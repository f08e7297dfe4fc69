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
// (route match, params, coercion, metrics, JSON response). Measured 4 —
// 5 while Invoke coerced its args into a fresh map, 7 while it copied a
// conforming result, 14 while the result left through an indenting
// json.Encoder.
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
	if allocs > 4 {
		t.Errorf("dispatch allocates %.1f/op, ceiling 4", allocs)
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
	// iteration count: measured 4.1, and one more allocation per op reads
	// 5.1.
	allocs := float64(after.Mallocs-before.Mallocs) / float64(workers*iters)
	if allocs > 5 {
		t.Errorf("parallel dispatch allocates %.1f/op, ceiling 5", allocs)
	}
}

// TestSOAPDispatchAllocCeiling pins the SOAP binding of the same
// router, in process: route match, envelope decode, invoke, envelope
// encode. Measured 6: 18 while Invoke copied a conforming result, the
// response's Content-Type slice was fresh and the decode copied the
// operation's name and namespace; 11 while the answer was built as a map
// and the decode copied the parameters' names; 8 while Invoke coerced
// its args into a fresh map.
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
	if allocs > 6 {
		t.Errorf("SOAP dispatch allocates %.1f/op, ceiling 6", allocs)
	}
}

// noopHost is a host with one no-op operation, Noop.Ping.
func noopHost(t *testing.T) *Host {
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
	return h
}

// TestUnsampledInvokeAllocCeiling: an invoke whose root drew
// "unsampled", through a front door and a host, allocates one more than
// the same invoke untraced — the traceparent its root formats. The door
// starts no span, and the host adds no context value: the request's own
// allocation carries the trace to it.
//
// On REST the untraced invoke has every tracer nil. Every SOAP client
// traces (a nil Tracer falls back to the default), so the SOAP row has two
// halves: the root against the same call nested under a context that
// already carries the trace, and, at the host, a traced envelope against
// an untraced one: the SocTrace entry that the transport header overrides
// is not decoded. Each unsampled invoke also has a ceiling of its own:
// measured 15 (REST) and 16 (SOAP), 17 and 18 while Invoke coerced its
// args into a fresh map and the client copied the answer's names.
func TestUnsampledInvokeAllocCeiling(t *testing.T) {
	ctx := context.Background()
	args := core.Values{}
	stack := func(tracer func() *telemetry.Tracer) *Client {
		h := noopHost(t)
		h.tracer = tracer()
		fd := cloud.NewFrontDoor(cloud.FrontDoorConfig{Tracer: tracer()})
		fd.Add(cloud.NewLocalReplica("r", h, 0))
		return &Client{
			BaseURL:    "http://door.test",
			HTTPClient: &http.Client{Transport: cloud.HandlerTransport(fd)},
			Tracer:     tracer(),
		}
	}
	never := stack(func() *telemetry.Tracer { return telemetry.NewSamplingTracer(64, 0) })
	untraced := stack(func() *telemetry.Tracer { return nil })
	const tp = "00-0123456789abcdef0123456789abcdef-0123456789abcdef-00"
	sc, _ := telemetry.ParseTraceParent(tp)
	var node telemetry.Unsampled
	nested := node.Bind(ctx, telemetry.CallTrace{SpanContext: sc, Header: tp})
	rest := func(call func() (core.Values, error)) func() {
		return func() {
			if out, err := call(); err != nil || out["ok"] != true {
				t.Fatal(out, err)
			}
		}
	}
	soapCall := func(ctx context.Context) func() {
		return func() {
			out, err := never.CallSOAP(ctx, "Noop", "Ping", "http://soc.example/noop", args)
			if err != nil || out["ok"] != "true" {
				t.Fatal(out, err)
			}
		}
	}
	for _, row := range []struct {
		name            string
		unsampled, base func()
		ceiling         float64
	}{
		// Client.Call falls back to the default tracer; call is the same
		// exchange with no span of its own.
		{"REST", rest(func() (core.Values, error) { return never.Call(ctx, "Noop", "Ping", args) }),
			rest(func() (core.Values, error) { return untraced.call(ctx, "Noop", "Ping", args) }), 15},
		{"SOAP", soapCall(ctx), soapCall(nested), 16},
	} {
		row.unsampled()
		row.base()
		got, base := testing.AllocsPerRun(200, row.unsampled), testing.AllocsPerRun(200, row.base)
		if got > base+1 {
			t.Errorf("an unsampled %s invoke allocates %.1f/op, its baseline %.1f: ceiling +1", row.name, got, base)
		}
		if got > row.ceiling {
			t.Errorf("an unsampled %s invoke allocates %.1f/op, ceiling %.0f", row.name, got, row.ceiling)
		}
		t.Logf("%s: unsampled %.1f allocs/op, baseline %.1f", row.name, got, base)
	}
	if n := never.Tracer.Recorded(); n != 0 {
		t.Errorf("the client recorded %d spans of unsampled traces", n)
	}

	h := noopHost(t)
	dispatch := func(traced bool) (func(), *httptest.ResponseRecorder) {
		m := soap.Message{Operation: "Ping", Namespace: "http://soc.example/noop"}
		if traced {
			m.Header = map[string]string{telemetry.SOAPHeaderName: tp}
		}
		env, err := soap.Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		body := bytes.NewReader(env)
		r := httptest.NewRequest(http.MethodPost, "/services/Noop/soap", io.NopCloser(body))
		if traced {
			r.Header.Set(telemetry.HeaderName, tp)
		}
		w := httptest.NewRecorder()
		return func() {
			body.Reset(env)
			w.Body.Reset()
			h.ServeHTTP(w, r)
		}, w
	}
	traced, tw := dispatch(true)
	bare, _ := dispatch(false)
	traced()
	bare()
	if tw.Code != http.StatusOK {
		t.Fatalf("status %d: %s", tw.Code, tw.Body.String())
	}
	if got, base := testing.AllocsPerRun(200, traced), testing.AllocsPerRun(200, bare); got > base {
		t.Errorf("the host's dispatch of a traced SOAP envelope allocates %.1f/op, of an untraced one %.1f: ceiling +0", got, base)
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
		Tracer:     telemetry.NewSamplingTracer(64, 1),
	}
}

// TestClientCallAllocCeilings pins both bindings end to end over one
// in-memory exchange, measured on go1.24 (13 and 14). The client half's
// own share is the span context (1), the request (4) and the answer —
// map and value, its key borrowed from the names the endpoint learned
// from its first answer (2 to 4); the rest is the exchange (3) and the
// host's dispatch of the no-op. callplane.Do adds nothing, with or
// without the 30 s Timeout every default client carries: the deadline,
// context and body guard is a field of the request. It added one before,
// and the SOAP answer's map two (16 and 19); the answer's key and
// Invoke's fresh args map one each (15 and 16). Through http.Client.Do
// the same four calls measured 36, 34, 59 and 56.
func TestClientCallAllocCeilings(t *testing.T) {
	ctx := context.Background()
	args := core.Values{}
	for _, tc := range []struct {
		timeout    time.Duration
		rest, soap float64
	}{
		{0, 13, 14},
		{30 * time.Second, 13, 14},
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

// TestInvokeKeyAllocCeiling: reading a POST body and deriving its cache
// key allocates nothing — the body is read into and canonicalised in
// pooled memory, and the key is the keyer's own buffer.
func TestInvokeKeyAllocCeiling(t *testing.T) {
	h, _, _, _ := newCachedHost(t, 8, time.Minute)
	body := strings.NewReader("")
	r := httptest.NewRequest(http.MethodPost, "/services/Calc/invoke/Square", nil)
	p := rest.Params{"name": "Calc", "op": "Square"}
	m, _ := h.mount("Calc")
	const posted = `{ "n" : 1.2e1, "pad": ["x", {"b": null, "a": "é"}] }`
	var key string
	derive := func() {
		body.Reset(posted)
		k := keyerPool.Get().(*cacheKeyer)
		if err := k.readBody(body); err != nil {
			t.Fatal(err)
		}
		b, _, ok := h.cacheKey(k, r, p, m, nil)
		if !ok {
			t.Fatal("not cacheable")
		}
		if key == "" {
			key = string(b) // the first run's, before release reuses the bytes
		}
		k.release()
	}
	derive()
	if want := "POST\x00json\x00Calc.Square\x00" + `{"n":12,"pad":["x",{"a":"é","b":null}]}`; key != want {
		t.Fatalf("key = %q, want %q", key, want)
	}
	if allocs := testing.AllocsPerRun(200, derive); allocs > 0 {
		t.Errorf("cacheKey of a POST body allocates %.1f/op, ceiling 0", allocs)
	}
}
