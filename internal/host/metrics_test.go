package host

import (
	"context"
	"encoding/json"
	"maps"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"soc/internal/core"
	"soc/internal/telemetry"
	"soc/internal/vtime"
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
	keys := slices.Sorted(maps.Keys(h.instr.Snapshot()))
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

// TestDispatchTimesOnTheRequestClock: a request whose context carries a
// virtual clock is timed on it, so a handler that sleeps 250 ms of
// virtual time yields a server span and a latency sample of exactly
// 250 ms, with no wall time leaking into either.
func TestDispatchTimesOnTheRequestClock(t *testing.T) {
	const nap = 250 * time.Millisecond
	svc, err := core.NewService("Sleepy", "http://soc.example/sleepy", "sleeps on the request's clock")
	if err != nil {
		t.Fatal(err)
	}
	svc.MustAddOperation(core.Operation{
		Name:   "Nap",
		Output: []core.Param{{Name: "ok", Type: core.Bool}},
		Handler: func(ctx context.Context, _ core.Values) (core.Values, error) {
			return core.Values{"ok": true}, vtime.Sleep(ctx, nap)
		},
	})
	h := New()
	h.MustMount(svc)
	ctx := vtime.WithClock(context.Background(), vtime.NewVirtual(time.Unix(1000, 0)))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/services/Sleepy/invoke/Nap", strings.NewReader("{}")).WithContext(ctx))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var server []telemetry.Span
	for _, sp := range h.tracer.Snapshot() {
		if sp.Kind == telemetry.KindServer && sp.Name == "Sleepy.Nap" {
			server = append(server, sp)
		}
	}
	if len(server) != 1 || server[0].Duration != nap || !server[0].Start.Equal(time.Unix(1000, 0)) {
		t.Fatalf("server spans = %+v, want one starting at the virtual epoch and lasting %v", server, nap)
	}
	if got := h.instr.Snapshot()["Sleepy.Nap"]; got.Calls != 1 || got.TotalTime != nap {
		t.Fatalf("metrics = %+v, want 1 call of %v", got, nap)
	}
}
