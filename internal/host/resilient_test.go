package host

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"soc/internal/core"
	"soc/internal/reliability"
)

// newAddHost returns a host serving Calc.Add.
func newAddHost(t *testing.T) *Host {
	t.Helper()
	svc, err := core.NewService("Calc", "http://soc.example/calc", "")
	if err != nil {
		t.Fatal(err)
	}
	svc.MustAddOperation(core.Operation{
		Name:   "Add",
		Input:  []core.Param{{Name: "a", Type: core.Int}, {Name: "b", Type: core.Int}},
		Output: []core.Param{{Name: "sum", Type: core.Int}},
		Handler: func(_ context.Context, in core.Values) (core.Values, error) {
			return core.Values{"sum": in.Int("a") + in.Int("b")}, nil
		},
	})
	h := New()
	h.MustMount(svc)
	return h
}

func TestHealthzEndpoint(t *testing.T) {
	h := newAddHost(t)
	srv := httptest.NewServer(h)
	defer srv.Close()

	c := NewClient(srv.URL)
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := c.Call(ctx, "Calc", "Add", core.Values{"a": 1, "b": 2}); err != nil {
			t.Fatal(err)
		}
	}

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d, want 200", resp.StatusCode)
	}
	var report struct {
		Status   string `json:"status"`
		Services map[string]struct {
			Status     string `json:"status"`
			Operations int    `json:"operations"`
			Calls      uint64 `json:"calls"`
			Errors     uint64 `json:"errors"`
		} `json:"services"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&report); err != nil {
		t.Fatal(err)
	}
	if report.Status != "ok" {
		t.Errorf("host status = %q", report.Status)
	}
	calc, ok := report.Services["Calc"]
	if !ok {
		t.Fatalf("healthz missing Calc: %+v", report)
	}
	if calc.Status != "ok" || calc.Operations != 1 || calc.Calls != 3 || calc.Errors != 0 {
		t.Errorf("Calc health = %+v", calc)
	}
}

// A draining host answers probes with 503 so balancers steer away, but
// keeps serving real traffic for the work it still holds.
func TestHealthzDraining(t *testing.T) {
	h := newAddHost(t)
	srv := httptest.NewServer(h)
	defer srv.Close()

	h.SetDraining(true)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var report struct {
		Status string `json:"status"`
	}
	err = json.NewDecoder(resp.Body).Decode(&report)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || report.Status != "draining" {
		t.Fatalf("draining healthz = %d %q, want 503 draining", resp.StatusCode, report.Status)
	}
	// The data path is unaffected: the host still answers calls.
	if _, err := NewClient(srv.URL).Call(context.Background(), "Calc", "Add", core.Values{"a": 1, "b": 2}); err != nil {
		t.Fatalf("draining host refused a call: %v", err)
	}

	h.SetDraining(false)
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recovered healthz status = %d, want 200", resp.StatusCode)
	}
}

// quickPolicy keeps tests fast: with a zero BaseDelay the retries back
// off 0 then 1 ms.
func quickPolicy() Policy {
	return Policy{
		Timeout: 2 * time.Second,
		Retry:   reliability.RetryPolicy{MaxAttempts: 3},
	}
}

func TestResilientClientFailsOverToLiveReplica(t *testing.T) {
	live := httptest.NewServer(newAddHost(t))
	defer live.Close()
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // connection refused

	rc, err := NewResilientClient(quickPolicy(), dead.URL, live.URL)
	if err != nil {
		t.Fatal(err)
	}
	out, err := rc.Call(context.Background(), "Calc", "Add", core.Values{"a": 19, "b": 23})
	if err != nil {
		t.Fatalf("failover call: %v", err)
	}
	if out["sum"] != float64(42) {
		t.Errorf("sum = %v", out["sum"])
	}
	attempts, failovers, _, _ := rc.Counters()
	if attempts < 2 || failovers < 1 {
		t.Errorf("counters: attempts=%d failovers=%d, want a failover hop", attempts, failovers)
	}
	// Sticky preference: the next call should go straight to the live
	// replica without burning an attempt on the dead one.
	before, _, _, _ := rc.Counters()
	if _, err := rc.Call(context.Background(), "Calc", "Add", core.Values{"a": 1, "b": 1}); err != nil {
		t.Fatal(err)
	}
	after, _, _, _ := rc.Counters()
	if after-before != 1 {
		t.Errorf("sticky failover used %d attempts, want 1", after-before)
	}
}

func TestResilientClientSkipsDemotedReplica(t *testing.T) {
	live := httptest.NewServer(newAddHost(t))
	defer live.Close()
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()

	hc, err := reliability.NewHealthChecker(reliability.HealthCheckerConfig{Interval: time.Hour}, dead.URL, live.URL)
	if err != nil {
		t.Fatal(err)
	}
	p := quickPolicy()
	p.Health = hc
	rc, err := NewResilientClient(p, dead.URL, live.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	hc.Start(ctx)
	defer hc.Stop()
	hc.CheckNow(ctx) // demotes the dead replica immediately

	if hc.IsHealthy(dead.URL) {
		t.Fatal("dead replica still healthy after probe")
	}
	if _, err := rc.Call(ctx, "Calc", "Add", core.Values{"a": 2, "b": 2}); err != nil {
		t.Fatal(err)
	}
	_, _, skipped, _ := rc.Counters()
	if skipped < 1 {
		t.Errorf("skipped = %d, want >= 1 (demoted replica not bypassed)", skipped)
	}
	_, demotions, _ := hc.Counters()
	if demotions != 1 {
		t.Errorf("demotions = %d, want 1", demotions)
	}
}

func TestResilientClientFallback(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()

	p := quickPolicy()
	p.Fallback = func(_ context.Context, service, op string, args core.Values) (core.Values, error) {
		return core.Values{"sum": float64(-1), "degraded": true}, nil
	}
	rc, err := NewResilientClient(p, dead.URL)
	if err != nil {
		t.Fatal(err)
	}
	out, err := rc.Call(context.Background(), "Calc", "Add", core.Values{"a": 1, "b": 2})
	if err != nil {
		t.Fatalf("fallback should mask total failure, got %v", err)
	}
	if out["degraded"] != true {
		t.Errorf("out = %v, want degraded answer", out)
	}
	_, _, _, fallbacks := rc.Counters()
	if fallbacks != 1 {
		t.Errorf("fallbacks = %d, want 1", fallbacks)
	}
}

func TestResilientClientAllReplicasFailNoFallback(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	rc, err := NewResilientClient(quickPolicy(), dead.URL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rc.Call(context.Background(), "Calc", "Add", core.Values{"a": 1, "b": 2}); err == nil {
		t.Fatal("call against dead replica succeeded")
	}
}

func TestResilientClientBreakerIsolation(t *testing.T) {
	live := httptest.NewServer(newAddHost(t))
	defer live.Close()
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()

	p := quickPolicy()
	// Sticky failover only ever offers the dead replica once, so one
	// failure must open its breaker for the isolation to be observable.
	p.BreakerThreshold = 1
	p.BreakerCooldown = time.Hour // once open, stays open for the test
	rc, err := NewResilientClient(p, dead.URL, live.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if _, err := rc.Call(ctx, "Calc", "Add", core.Values{"a": 1, "b": 2}); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	// The dead replica's breaker opened; the live one's stayed closed.
	if got := rc.replicas[0].breaker.State(ctx); got != reliability.Open {
		t.Errorf("dead replica breaker = %v, want open", got)
	}
	if got := rc.replicas[1].breaker.State(ctx); got != reliability.Closed {
		t.Errorf("live replica breaker = %v, want closed", got)
	}
}

func TestResilientClientBulkhead(t *testing.T) {
	release := make(chan struct{})
	var started sync.WaitGroup
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		started.Done()
		<-release
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"sum":3}`))
	}))
	defer slow.Close()
	defer close(release)

	p := quickPolicy()
	p.MaxConcurrent = 1
	p.Retry.MaxAttempts = 1
	rc, err := NewResilientClient(p, slow.URL)
	if err != nil {
		t.Fatal(err)
	}
	started.Add(1)
	go rc.Call(context.Background(), "Calc", "Add", core.Values{"a": 1, "b": 2})
	started.Wait() // the slow call holds the only slot
	_, err = rc.Call(context.Background(), "Calc", "Add", core.Values{"a": 1, "b": 2})
	if !errors.Is(err, reliability.ErrBulkheadFull) {
		t.Errorf("second call err = %v, want ErrBulkheadFull", err)
	}
}

func TestResilientClientValidation(t *testing.T) {
	if _, err := NewResilientClient(Policy{}); err == nil {
		t.Error("no replicas accepted")
	}
}
