package faultinject

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"soc/internal/rest"
)

// okTransport is a stub backend answering 200 {"ok":true}.
type okTransport struct{}

func (okTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     http.Header{"Content-Type": []string{"application/json"}},
		Body:       io.NopCloser(strings.NewReader(`{"ok":true}`)),
		Request:    req,
	}, nil
}

func classify(resp *http.Response, err error) string {
	switch {
	case err != nil:
		return "err"
	case resp.StatusCode != http.StatusOK:
		return "status"
	default:
		body, readErr := io.ReadAll(resp.Body)
		resp.Body.Close()
		var v map[string]any
		if readErr != nil || json.Unmarshal(body, &v) != nil {
			return "corrupt"
		}
		return "ok"
	}
}

func outcomes(t *testing.T, plan Plan, n int) []string {
	t.Helper()
	inj, err := New(plan)
	if err != nil {
		t.Fatal(err)
	}
	rt := inj.Transport(okTransport{})
	out := make([]string, n)
	for i := range out {
		req, _ := http.NewRequest(http.MethodPost, "http://x/services/Svc/invoke/Op", nil)
		out[i] = classify(rt.RoundTrip(req))
	}
	return out
}

func TestDeterministicReplay(t *testing.T) {
	plan := Plan{
		Seed: 42,
		Rules: map[string]Rule{
			"Svc.Op": {ErrorRate: 0.3, DropRate: 0.1, CorruptRate: 0.1,
				LatencyRate: 0.2, Latency: time.Microsecond},
		},
	}
	a := outcomes(t, plan, 200)
	b := outcomes(t, plan, 200)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different fault sequences")
	}
	seen := map[string]int{}
	for _, o := range a {
		seen[o]++
	}
	for _, want := range []string{"ok", "err", "status", "corrupt"} {
		if seen[want] == 0 {
			t.Errorf("outcome %q never occurred in %v", want, seen)
		}
	}

	plan.Seed = 43
	c := outcomes(t, plan, 200)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical fault sequences")
	}
}

func TestConcurrentDecisionsMatchSequential(t *testing.T) {
	plan := Plan{Seed: 7, Rules: map[string]Rule{
		"Svc.Op": {ErrorRate: 0.5},
	}}
	seq, err := New(plan)
	if err != nil {
		t.Fatal(err)
	}
	con, err := New(plan)
	if err != nil {
		t.Fatal(err)
	}
	const n = 400
	seqRT, conRT := seq.Transport(okTransport{}), con.Transport(okTransport{})
	for i := 0; i < n; i++ {
		req, _ := http.NewRequest(http.MethodGet, "http://x/services/Svc/invoke/Op", nil)
		resp, err := seqRT.RoundTrip(req)
		if err == nil {
			resp.Body.Close()
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req, _ := http.NewRequest(http.MethodGet, "http://x/services/Svc/invoke/Op", nil)
			resp, err := conRT.RoundTrip(req)
			if err == nil {
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	// The per-call decisions are index-keyed, so the aggregate counters
	// must match exactly no matter how the goroutines interleaved.
	if s, c := seq.String(), con.String(); s != c {
		t.Fatalf("concurrent counters diverged:\nseq: %s\ncon: %s", s, c)
	}
}

func TestBurstWindowForcesFaults(t *testing.T) {
	plan := Plan{Seed: 1, Rules: map[string]Rule{
		"Svc.Op": {ErrorRate: 0.01, Burst: Burst{Every: 10, Length: 3}},
	}}
	got := outcomes(t, plan, 20)
	for _, i := range []int{0, 1, 2, 10, 11, 12} {
		if got[i] != "status" {
			t.Errorf("call %d in burst window: got %q, want injected error", i, got[i])
		}
	}
}

func TestHangRespectsContext(t *testing.T) {
	inj, err := New(Plan{Seed: 3, Rules: map[string]Rule{
		"Svc.Op": {HangRate: 1, MaxHang: time.Minute},
	}})
	if err != nil {
		t.Fatal(err)
	}
	rt := inj.Transport(okTransport{})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, "http://x/services/Svc/invoke/Op", nil)
	start := time.Now()
	_, rtErr := rt.RoundTrip(req)
	if rtErr == nil {
		t.Fatal("hung request returned success")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("hang ignored context cancellation (took %v)", elapsed)
	}
}

func TestMiddlewareInjectsByOperation(t *testing.T) {
	inj, err := New(Plan{Seed: 5, Rules: map[string]Rule{
		"Svc.Bad": {ErrorRate: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	router := rest.NewRouter()
	router.Use(inj.Middleware())
	if err := router.POST("/services/{name}/invoke/{op}", func(w http.ResponseWriter, r *http.Request, p rest.Params) {
		rest.WriteResponse(w, r, http.StatusOK, map[string]any{"ok": true})
	}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(router)
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/services/Svc/invoke/Bad", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("faulted op: status %d, want 503", resp.StatusCode)
	}
	resp, err = http.Post(srv.URL+"/services/Svc/invoke/Good", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("clean op: status %d, want 200", resp.StatusCode)
	}
	counts := inj.Counts()
	if counts["Svc.Bad|error"] != 1 || counts["Svc.Good|pass"] != 1 {
		t.Errorf("counters = %v", counts)
	}
	if injected(&inj.ledger) != 1 {
		t.Errorf("injected = %d, want 1", injected(&inj.ledger))
	}
}

func TestMiddlewareCorruptsPayload(t *testing.T) {
	inj, err := New(Plan{Seed: 5, Default: Rule{CorruptRate: 1}})
	if err != nil {
		t.Fatal(err)
	}
	router := rest.NewRouter()
	router.Use(inj.Middleware())
	if err := router.GET("/services/{name}/invoke/{op}", func(w http.ResponseWriter, r *http.Request, p rest.Params) {
		rest.WriteResponse(w, r, http.StatusOK, map[string]any{"answer": 42, "padding": strings.Repeat("x", 64)})
	}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(router)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/services/Svc/invoke/Op")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	var v map[string]any
	if json.Unmarshal(body, &v) == nil {
		t.Fatalf("corrupted payload still decodes: %q", body)
	}
}

func TestDropAbortsConnection(t *testing.T) {
	inj, err := New(Plan{Seed: 5, Rules: map[string]Rule{"Svc.Op": {DropRate: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	router := rest.NewRouter()
	router.Use(rest.Recovery(), inj.Middleware())
	if err := router.GET("/services/{name}/invoke/{op}", func(w http.ResponseWriter, r *http.Request, p rest.Params) {
		rest.WriteResponse(w, r, http.StatusOK, map[string]any{"ok": true})
	}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(router)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/services/Svc/invoke/Op")
	if err == nil {
		resp.Body.Close()
		t.Fatalf("dropped request produced a response: %d", resp.StatusCode)
	}
}

func TestRuleValidation(t *testing.T) {
	bad := []Plan{
		{Default: Rule{ErrorRate: 1.5}},
		{Default: Rule{DropRate: -0.1}},
		{Default: Rule{Latency: -time.Second}},
		{Rules: map[string]Rule{"x": {Burst: Burst{Every: -1}}}},
	}
	for i, p := range bad {
		if _, err := New(p); err == nil {
			t.Errorf("plan %d accepted invalid rule", i)
		}
	}
}

func TestPathOpParsing(t *testing.T) {
	cases := map[string]string{
		"/services/Calc/invoke/Add": "Calc.Add",
		"/services/Calc/soap":       "Calc.soap",
		"/healthz":                  "/healthz",
		"/services":                 "/services",
	}
	for path, want := range cases {
		if got := pathOp(path); got != want {
			t.Errorf("pathOp(%q) = %q, want %q", path, got, want)
		}
	}
}

// injected totals every non-pass fault the ledger has injected so far.
func injected(l *ledger) uint64 {
	var total uint64
	for k, v := range l.Counts() {
		if !strings.HasSuffix(k, "|"+string(Pass)) {
			total += v
		}
	}
	return total
}
