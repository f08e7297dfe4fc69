package soc

import (
	"context"
	"errors"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"soc/internal/core"
	"soc/internal/host"
	"soc/internal/reliability"
	"soc/internal/workflow"
)

// TestIntegrationPanicContainment proves a panicking service handler is
// contained by the host's recovery middleware: the client sees a 500
// problem document and the server keeps answering.
func TestIntegrationPanicContainment(t *testing.T) {
	svc, err := core.NewService("Fragile", "http://soc.example/fragile", "")
	if err != nil {
		t.Fatal(err)
	}
	svc.MustAddOperation(core.Operation{
		Name:  "Explode",
		Input: []core.Param{{Name: "really", Type: core.Bool, Optional: true}},
		Handler: func(_ context.Context, in core.Values) (core.Values, error) {
			if in.Bool("really") {
				panic("handler bug")
			}
			return core.Values{}, nil
		},
	})
	h := host.New()
	// Cache enabled but inert: Explode is not idempotent, so the panic
	// path is exercised with the cache middleware in place.
	h.UseResponseCache(32, time.Minute)
	h.MustMount(svc)
	server := httptest.NewServer(h)
	defer server.Close()
	client := host.NewClient(server.URL)
	ctx := context.Background()

	_, err = client.Call(ctx, "Fragile", "Explode", core.Values{"really": true})
	if err == nil {
		t.Fatal("panic produced a success")
	}
	// The server must survive and keep serving.
	if _, err := client.Call(ctx, "Fragile", "Explode", core.Values{"really": false}); err != nil {
		t.Fatalf("server dead after panic: %v", err)
	}
}

// TestIntegrationReliableComposition wraps a workflow's service invoker
// with retry + circuit breaking: a transiently failing provider is masked
// inside the composition — the dependability unit meeting the
// orchestration unit.
func TestIntegrationReliableComposition(t *testing.T) {
	var calls int64
	flaky, err := core.NewService("Flaky", "http://soc.example/flaky", "")
	if err != nil {
		t.Fatal(err)
	}
	flaky.MustAddOperation(core.Operation{
		Name:   "Work",
		Output: []core.Param{{Name: "n", Type: core.Int}},
		Handler: func(context.Context, core.Values) (core.Values, error) {
			// Fails twice, then succeeds (a warming-up dependency).
			if atomic.AddInt64(&calls, 1) <= 2 {
				return nil, errors.New("not ready yet")
			}
			return core.Values{"n": int64(42)}, nil
		},
	})
	h := host.New()
	// Non-idempotent Work must bypass the cache, or the retry loop would
	// be fed the first failure forever.
	h.UseResponseCache(32, time.Minute)
	h.MustMount(flaky)
	server := httptest.NewServer(h)
	defer server.Close()
	client := host.NewClient(server.URL)

	breaker, err := reliability.NewBreaker(10, time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	policy := reliability.RetryPolicy{MaxAttempts: 5}
	reliableInvoker := workflow.InvokerFunc(func(ctx context.Context, svcName, op string, args map[string]any) (map[string]any, error) {
		var out core.Values
		err := reliability.Retry(ctx, policy, func(ctx context.Context) error {
			return breaker.Do(ctx, func(ctx context.Context) error {
				var callErr error
				out, callErr = client.Call(ctx, svcName, op, core.Values(args))
				return callErr
			})
		})
		return map[string]any(out), err
	})

	wf, err := workflow.New("resilient", &workflow.Invoke{
		Label: "work", Service: "Flaky", Operation: "Work",
		Invoker: reliableInvoker,
		Outputs: map[string]string{"n": "result"},
	})
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := wf.Run(context.Background(), nil)
	if err != nil {
		t.Fatalf("composition failed despite retry: %v", err)
	}
	if out["result"] != float64(42) { // JSON numbers decode as float64
		t.Errorf("result = %v (%T)", out["result"], out["result"])
	}
	if atomic.LoadInt64(&calls) != 3 {
		t.Errorf("provider called %d times, want 3 (2 failures + success)", calls)
	}
	if s, f, _ := breaker.Counters(); s != 1 || f != 2 {
		t.Errorf("breaker counters = %d ok, %d failed", s, f)
	}
}
