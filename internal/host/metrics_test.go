package host

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"

	"soc/internal/core"
)

func TestHostMetricsRecordBothBindings(t *testing.T) {
	h := New()
	h.MustMount(calcService(t))
	ts := httptest.NewServer(h)
	defer ts.Close()
	c := NewClient(ts.URL)
	ctx := context.Background()

	for i := 0; i < 3; i++ {
		if _, err := c.Call(ctx, "Calc", "Add", core.Values{"a": 1, "b": 2}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.CallSOAP(ctx, "Calc", "Add", "http://soc.example/calc", core.Values{"a": 1, "b": 2}); err != nil {
		t.Fatal(err)
	}
	// One failing call (division by zero).
	_, _ = c.Call(ctx, "Calc", "Div", core.Values{"a": 1, "b": 0})

	stats := h.instr.Snapshot()
	add := stats["Calc.Add"]
	if add.Calls != 4 || add.Errors != 0 {
		t.Errorf("Add stats = %+v", add)
	}
	div := stats["Calc.Div"]
	if div.Calls != 1 || div.Errors != 1 {
		t.Errorf("Div stats = %+v", div)
	}
	if add.MeanTime() < 0 || add.TotalTime <= 0 {
		t.Errorf("Add timing = %+v", add)
	}
	keys := h.instr.Keys()
	if len(keys) != 2 || keys[0] != "Calc.Add" || keys[1] != "Calc.Div" {
		t.Errorf("keys = %v", keys)
	}
}

func TestStatsEndpoint(t *testing.T) {
	h := New()
	h.MustMount(calcService(t))
	ts := httptest.NewServer(h)
	defer ts.Close()
	c := NewClient(ts.URL)
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := c.Call(ctx, "Calc", "Add", core.Values{"a": 1, "b": 2}); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := ts.Client().Get(ts.URL + "/services/Calc/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var entries []struct {
		Operation string `json:"operation"`
		Calls     uint64 `json:"calls"`
		Errors    uint64 `json:"errors"`
		MeanNanos int64  `json:"meanNanos"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Operation != "Add" || entries[0].Calls != 2 {
		t.Errorf("entries = %+v", entries)
	}
	if entries[0].MeanNanos <= 0 {
		t.Errorf("mean = %d", entries[0].MeanNanos)
	}
	resp2, err := ts.Client().Get(ts.URL + "/services/Ghost/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != 404 {
		t.Errorf("ghost stats = %d", resp2.StatusCode)
	}
}
