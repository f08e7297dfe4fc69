//go:build !race

package host

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"soc/internal/cloud"
	"soc/internal/core"
	"soc/internal/rest"
	"soc/internal/soap"
	"soc/internal/telemetry"
)

// TestDispatchAllocCeiling pins the per-request allocation budget of
// dispatching a no-op operation through the full router + invoke path
// (route match, params, coercion, metrics, JSON response). Measured 7 —
// 14 while the result left through an indenting json.Encoder — given 10 %.
func TestDispatchAllocCeiling(t *testing.T) {
	svc, err := core.NewService("Noop", "http://soc.example/noop", "")
	if err != nil {
		t.Fatal(err)
	}
	err = svc.AddOperation(core.Operation{
		Name:   "Ping",
		Output: []core.Param{{Name: "ok", Type: core.Bool}},
		Handler: func(_ context.Context, _ core.Values) (core.Values, error) {
			return core.Values{"ok": true}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	h := New()
	h.MustMount(svc)

	r := httptest.NewRequest(http.MethodGet, "/services/Noop/invoke/Ping", nil)
	// Warm pools and lazy state once.
	h.ServeHTTP(httptest.NewRecorder(), r)

	w := httptest.NewRecorder()
	allocs := testing.AllocsPerRun(200, func() {
		w.Body.Reset()
		h.ServeHTTP(w, r)
	})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if allocs > 8 {
		t.Errorf("dispatch allocates %.1f/op, ceiling 8", allocs)
	}
}

// TestDispatchAllocCeilingParallel re-pins the dispatch budget with the
// request running from interleaved goroutines — the schedule where a
// shared-state regression (a lock guarding an alloc-heavy slow path, a
// pool defeated by contention) shows up as allocs the serial test never
// sees. Each goroutine owns its recorder and request; only the host is
// shared.
func TestDispatchAllocCeilingParallel(t *testing.T) {
	svc, err := core.NewService("Noop", "http://soc.example/noop", "")
	if err != nil {
		t.Fatal(err)
	}
	err = svc.AddOperation(core.Operation{
		Name:   "Ping",
		Output: []core.Param{{Name: "ok", Type: core.Bool}},
		Handler: func(_ context.Context, _ core.Values) (core.Values, error) {
			return core.Values{"ok": true}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	h := New()
	h.MustMount(svc)
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/services/Noop/invoke/Ping", nil))

	const workers, iters = 8, 400
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := httptest.NewRequest(http.MethodGet, "/services/Noop/invoke/Ping", nil)
			rec := httptest.NewRecorder()
			for i := 0; i < iters; i++ {
				rec.Body.Reset()
				h.ServeHTTP(rec, r)
			}
			if rec.Code != http.StatusOK {
				t.Errorf("status %d: %s", rec.Code, rec.Body.String())
			}
		}()
	}
	wg.Wait()
	runtime.ReadMemStats(&after)
	// The per-goroutine request/recorder setup amortizes to 0.1 over the
	// iteration count: measured 7.1, given 10 %.
	allocs := float64(after.Mallocs-before.Mallocs) / float64(workers*iters)
	if allocs > 8 {
		t.Errorf("parallel dispatch allocates %.1f/op, ceiling 8", allocs)
	}
}

// TestSOAPDispatchAllocCeiling pins the SOAP binding of the same
// router, in process: route match, envelope decode, invoke, envelope
// encode. Measured 22, given 10 %.
func TestSOAPDispatchAllocCeiling(t *testing.T) {
	echo, err := core.NewService("Echo", "http://soc.example/echo", "echo")
	if err != nil {
		t.Fatal(err)
	}
	echo.MustAddOperation(core.Operation{
		Name:   "Echo",
		Input:  []core.Param{{Name: "text", Type: core.String}},
		Output: []core.Param{{Name: "echo", Type: core.String}},
		Handler: func(_ context.Context, in core.Values) (core.Values, error) {
			return core.Values{"echo": in.Str("text")}, nil
		},
	})
	h := New()
	h.MustMount(echo)
	env, err := soap.Encode(soap.Message{
		Operation:  "Echo",
		Namespace:  "http://soc.example/echo",
		Params:     map[string]string{"text": "the quick <brown> fox & friends"},
		ParamOrder: []string{"text"},
	})
	if err != nil {
		t.Fatal(err)
	}
	body := bytes.NewReader(env)
	r := httptest.NewRequest(http.MethodPost, "/services/Echo/soap", io.NopCloser(body))
	r.ContentLength = int64(len(env))
	w := httptest.NewRecorder()
	dispatch := func() {
		body.Reset(env)
		w.Body.Reset()
		h.ServeHTTP(w, r)
	}
	dispatch()
	allocs := testing.AllocsPerRun(200, dispatch)
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "fox &amp; friends") {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if allocs > 24 {
		t.Errorf("SOAP dispatch allocates %.1f/op, ceiling 24", allocs)
	}
}

// noopClient is a client over cloud.HandlerTransport straight to a host
// with one no-op operation: what the client half itself allocates per
// call, plus callplane.Do under the given Timeout and the host's dispatch
// of a no-op.
func noopClient(t *testing.T, timeout time.Duration) *Client {
	t.Helper()
	svc, err := core.NewService("Noop", "http://soc.example/noop", "")
	if err != nil {
		t.Fatal(err)
	}
	err = svc.AddOperation(core.Operation{
		Name:   "Ping",
		Output: []core.Param{{Name: "ok", Type: core.Bool}},
		Handler: func(_ context.Context, _ core.Values) (core.Values, error) {
			return core.Values{"ok": true}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	h := New()
	h.MustMount(svc)
	return &Client{
		BaseURL:    "http://noop.test",
		HTTPClient: &http.Client{Transport: cloud.HandlerTransport(h), Timeout: timeout},
		Tracer:     telemetry.NewTracer(64),
	}
}

// TestClientCallAllocCeilings pins both bindings end to end over one
// in-memory exchange, measured on go1.24 and given 1. Without a Timeout
// (17 and 26) the client half's own share is the span context (1), the
// request (4) and the answer — map, key, value (3 to 5); the rest is the
// exchange (3) and the host's dispatch of the no-op; callplane.Do adds
// nothing. With the 30 s Timeout every default client carries (18 and 27)
// it adds the deadline, context and body guard in one (1). Through
// http.Client.Do the same four calls measured 36, 34, 59 and 56.
func TestClientCallAllocCeilings(t *testing.T) {
	ctx := context.Background()
	args := core.Values{}
	for _, tc := range []struct {
		timeout    time.Duration
		rest, soap float64
	}{
		{0, 18, 27},
		{30 * time.Second, 19, 28},
	} {
		c := noopClient(t, tc.timeout)
		rest := func() {
			out, err := c.Call(ctx, "Noop", "Ping", args)
			if err != nil || out["ok"] != true {
				t.Fatal(out, err)
			}
		}
		soap := func() {
			out, err := c.CallSOAP(ctx, "Noop", "Ping", "http://soc.example/noop", args)
			if err != nil || out["ok"] != "true" {
				t.Fatal(out, err)
			}
		}
		rest()
		soap()
		if allocs := testing.AllocsPerRun(200, rest); allocs > tc.rest {
			t.Errorf("Client.Call with Timeout %v allocates %.1f/op, ceiling %.0f", tc.timeout, allocs, tc.rest)
		}
		if allocs := testing.AllocsPerRun(200, soap); allocs > tc.soap {
			t.Errorf("Client.CallSOAP with Timeout %v allocates %.1f/op, ceiling %.0f", tc.timeout, allocs, tc.soap)
		}
	}
}

// TestInvokeKeyAllocCeiling: deriving a POST body's cache key costs the
// key string and nothing else — the body is read into, canonicalised in
// and replayed from pooled memory.
func TestInvokeKeyAllocCeiling(t *testing.T) {
	h, _, _, _ := newCachedHost(t, 8, time.Minute)
	body := strings.NewReader("")
	r := httptest.NewRequest(http.MethodPost, "/services/Calc/invoke/Square", nil)
	inbound := io.NopCloser(body)
	p := rest.Params{"name": "Calc", "op": "Square"}
	const posted = `{ "n" : 1.2e1, "pad": ["x", {"b": null, "a": "é"}] }`
	var key string
	derive := func() {
		body.Reset(posted)
		r.Body = inbound // release leaves NoBody behind
		k := keyerPool.Get().(*cacheKeyer)
		var ok bool
		if key, _, ok = h.cacheKey(k, r, p); !ok {
			t.Fatal("not cacheable")
		}
		if replay, _ := io.ReadAll(r.Body); string(replay) != posted {
			t.Fatalf("inner handler would read %q", replay)
		}
		k.release(r)
	}
	derive()
	if want := "POST\x00json\x00Calc.Square\x00" + `{"n":12,"pad":["x",{"a":"é","b":null}]}`; key != want {
		t.Fatalf("key = %q, want %q", key, want)
	}
	// io.ReadAll's buffer is the test's own allocation.
	if allocs := testing.AllocsPerRun(200, derive); allocs > 2+1 {
		t.Errorf("cacheKey of a POST body allocates %.1f/op, ceiling 2 (+1 for the test's ReadAll)", allocs)
	}
}
