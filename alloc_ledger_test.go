//go:build !race

package soc

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"soc/internal/callplane"
	"soc/internal/cloud"
	"soc/internal/core"
	"soc/internal/host"
	"soc/internal/services"
	"soc/internal/soap"
	"soc/internal/telemetry"
)

// The allocation ledger of one dispatch-light request. The stack is the
// benchmark's (bench/requests.go), built from the same public
// constructors: host.Client over cloud.HandlerTransport into a FrontDoor,
// three local replica hosts behind it, serving in place into the door's
// writer, each with a 1024-entry response cache and Compute and
// RandomString mounted. Each hop is counted on its own, by
// testing.AllocsPerRun over a harness that runs only that hop: its input
// is built once, from what the real hop above sent, and the hop below is
// replaced by a stand-in that replays what the real one answered and
// allocates nothing. The whole request is counted on the real stack.
// The ledger fails unless the hops add up to the whole exactly: an
// allocation that only the composition makes — a pool that stops
// recycling, a context that only a real caller wraps, a copy one layer
// makes of what the next one returned — breaks the sum.
//
// Allocation counts are deterministic, so the figures are exact. A change
// that moves one names its row in the table the test prints.

const (
	ledgerRuns     = 200
	ledgerReplicas = 3
	ledgerCache    = 1024
	// ledgerN is a hot CollatzSteps argument above 255: like nearly all of
	// dispatch-light's, it is boxed on the heap when its args map is built.
	ledgerN        = 77031
	ledgerLength   = 16
	ledgerBase     = "http://soc.bench"
	ledgerTimeout  = 30 * time.Second
	ledgerReplicaN = 64
)

// The hops of a request, in the ledger's order. Two have no seam of their
// own in the public API and share a row: the client's decoding of the
// answer is in the client's, and REST's JSON codec in the host's.
const (
	hopClient = iota
	hopClientDoor
	hopDoor
	hopHost
	hopSOAPCodec
	hopCoerce
	hopHandler
	numHops
)

var hopNames = [numHops]string{
	"client: call, NewRequest, Do, decode",
	"client↔door exchange",
	"door proxy",
	"host: serve, cache (REST: JSON codec)",
	"SOAP codec: decode, encode",
	"core.Invoke coercion",
	"handler",
}

// ledgerOp is one of dispatch-light's op kinds, share its weight in the
// benchmark's ten-op block, or an op kind the benchmark does not send
// (share 0).
type ledgerOp struct {
	name    string
	share   float64
	svc, op string
	// ns is the namespace a SOAP call names.
	ns     string
	soap   bool
	cached bool
	// ttl is the replicas' response-cache TTL: an hour, or a nanosecond,
	// which an entry outlives by the next request, for an idempotent op
	// every request of which misses.
	ttl time.Duration
	// raw is the args map the host hands core.Service.Invoke (the binding's
	// decoding: JSON numbers are float64, SOAP values strings); in is what
	// the handler receives after coercion.
	raw, in core.Values
	// budget is each hop's allocation ceiling, unsampled and sampled: the
	// counts measured on go1.24. A hop above its ceiling fails the ledger.
	budget [2][numHops]float64
}

var ledgerOps = []ledgerOp{
	{name: "REST hit", share: 0.4, svc: "Compute", op: "CollatzSteps", cached: true, ttl: time.Hour,
		in:     core.Values{"n": int64(ledgerN)},
		budget: [2][numHops]float64{{8, 3, 0, 0, 0, 0, 0}, {9, 3, 2, 0, 0, 0, 0}}},
	{name: "REST Generate", share: 0.3, svc: "RandomString", op: "Generate", ttl: time.Hour,
		raw: core.Values{"length": float64(ledgerLength)}, in: core.Values{"length": int64(ledgerLength)},
		budget: [2][numHops]float64{{8, 3, 0, 1, 0, 0, 4}, {9, 3, 2, 2, 0, 0, 4}}},
	{name: "SOAP Generate", share: 0.3, svc: "RandomString", op: "Generate", soap: true, ttl: time.Hour,
		ns:  services.NamespacePrefix + "randomstring",
		raw: core.Values{"length": fmt.Sprint(ledgerLength)}, in: core.Values{"length": int64(ledgerLength)},
		budget: [2][numHops]float64{{7, 3, 0, 1, 1, 0, 4}, {8, 3, 2, 2, 1, 0, 4}}},
	// An idempotent SOAP call, which bench does not send: the host keys
	// and dispatches it from its one decode of the envelope.
	{name: "SOAP hit", svc: "Compute", op: "CollatzSteps", soap: true, cached: true, ttl: time.Hour,
		ns: services.NamespacePrefix + "compute", in: core.Values{"n": int64(ledgerN)},
		budget: [2][numHops]float64{{9, 3, 0, 0, 1, 0, 0}, {10, 3, 2, 0, 1, 0, 0}}},
	{name: "SOAP miss", svc: "Compute", op: "CollatzSteps", soap: true, ttl: time.Nanosecond,
		ns:  services.NamespacePrefix + "compute",
		raw: core.Values{"n": fmt.Sprint(ledgerN)}, in: core.Values{"n": int64(ledgerN)},
		budget: [2][numHops]float64{{9, 3, 0, 8, 1, 1, 3}, {10, 3, 2, 10, 1, 1, 3}}},
	// An idempotent REST call that misses, which dispatch-light does not
	// send: the path crypto-heavy's every Decrypt takes — a POST keyed
	// from its canonical JSON, filled through a recorder and stored, its
	// entry expired by the next request.
	{name: "REST miss", svc: "Compute", op: "CollatzSteps", ttl: time.Nanosecond,
		raw: core.Values{"n": float64(ledgerN)}, in: core.Values{"n": int64(ledgerN)},
		budget: [2][numHops]float64{{8, 3, 0, 7, 0, 1, 3}, {9, 3, 2, 9, 0, 1, 3}}},
}

// call is the benchmark's op: the args map, built fresh as dispatch-light
// builds it, and the SDK call.
func (o *ledgerOp) call(ctx context.Context, c *host.Client) error {
	var args core.Values
	if o.op == "CollatzSteps" {
		args = core.Values{"n": o.in["n"].(int64)}
	} else {
		args = core.Values{"length": int64(ledgerLength)}
	}
	if o.soap {
		out, err := c.CallSOAP(ctx, o.svc, o.op, o.ns, args)
		if err == nil && len(out) != 1 {
			err = fmt.Errorf("%s.%s over SOAP = %v", o.svc, o.op, out)
		}
		return err
	}
	out, err := c.Call(ctx, o.svc, o.op, args)
	if err == nil && len(out) != 1 {
		err = fmt.Errorf("%s.%s = %v", o.svc, o.op, out)
	}
	return err
}

// ledgerServices are what every replica host mounts.
func ledgerServices(t *testing.T) []*core.Service {
	t.Helper()
	var out []*core.Service
	for _, mk := range []func() (*core.Service, error){services.NewCompute, services.NewRandomString} {
		svc, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, svc)
	}
	return out
}

// ledgerHost is one replica host: the mounted services and the response
// cache, as the benchmark sets them up, its entries living ttl.
func ledgerHost(t *testing.T, svcs []*core.Service, ttl time.Duration) *host.Host {
	t.Helper()
	h := host.New()
	for _, svc := range svcs {
		if err := h.Mount(svc); err != nil {
			t.Fatal(err)
		}
	}
	h.UseResponseCache(ledgerCache, ttl)
	return h
}

// ledgerClient is the benchmark's client over rt, its roots sampled at rate.
func ledgerClient(rt http.RoundTripper, rate float64) *host.Client {
	return &host.Client{
		BaseURL:    ledgerBase,
		HTTPClient: &http.Client{Transport: rt, Timeout: ledgerTimeout},
		Tracer:     telemetry.NewSamplingTracer(64, rate),
	}
}

// ledgerStack builds the whole stack for o; seam wraps the door's handler
// and each replica's, for the capture run (nil: the real stack).
func ledgerStack(t *testing.T, o *ledgerOp, rate float64, seam func(string, http.Handler) http.Handler) *host.Client {
	t.Helper()
	if seam == nil {
		seam = func(_ string, h http.Handler) http.Handler { return h }
	}
	fd := cloud.NewFrontDoor(cloud.FrontDoorConfig{Tracer: telemetry.NewTracer(0)})
	for i := 0; i < ledgerReplicas; i++ {
		h := seam("replica", ledgerHost(t, ledgerServices(t), o.ttl))
		fd.Add(cloud.NewLocalReplica(fmt.Sprintf("replica-%d", i), h, ledgerReplicaN))
	}
	return ledgerClient(cloud.HandlerTransport(seam("door", fd)), rate)
}

// exchange is one request and its answer as a seam saw them.
type exchange struct {
	method, path string
	reqHeader    http.Header
	reqBody      []byte
	status       int
	header       http.Header
	body         []byte
}

// capture is a seam: it serves each request through the handler it wraps
// and records the last exchange.
type capture struct {
	inner http.Handler
	last  *exchange
}

func (c *capture) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	ex := &exchange{method: req.Method, path: req.URL.Path, reqHeader: req.Header.Clone()}
	ex.reqBody, _ = io.ReadAll(req.Body)
	in := req.WithContext(req.Context())
	in.Body = io.NopCloser(bytes.NewReader(ex.reqBody))
	c.inner.ServeHTTP(&tee{ResponseWriter: w, ex: ex}, in)
	if ex.status == 0 {
		ex.status = http.StatusOK
	}
	ex.header = w.Header().Clone()
	c.last = ex
}

// tee writes an answer through to the writer it wraps and keeps its
// status and body in ex.
type tee struct {
	http.ResponseWriter
	ex *exchange
}

func (t *tee) WriteHeader(code int) {
	if t.ex.status == 0 {
		t.ex.status = code
	}
	t.ResponseWriter.WriteHeader(code)
}

func (t *tee) Write(p []byte) (int, error) {
	if t.ex.status == 0 {
		t.ex.status = http.StatusOK
	}
	t.ex.body = append(t.ex.body, p...)
	return t.ResponseWriter.Write(p)
}

// replayBody is a reusable response or request body; it keeps
// bytes.Reader's WriteTo, so io.Copy needs no buffer.
type replayBody struct{ *bytes.Reader }

func (replayBody) Close() error { return nil }

// replay is the stand-in for the hop below a seam: every request gets the
// captured answer in one reused response. It closes the request body, as
// a RoundTripper must: that is what gives a caller's pooled body back.
type replay struct {
	resp http.Response
	body replayBody
	data []byte
}

func newReplay(ex *exchange) *replay {
	r := &replay{data: ex.body, body: replayBody{bytes.NewReader(nil)}}
	r.resp = http.Response{StatusCode: ex.status, Header: ex.header, Body: r.body}
	return r
}

func (r *replay) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		_ = req.Body.Close()
	}
	r.body.Reset(r.data)
	return &r.resp, nil
}

// ServeHTTP writes the captured answer, as the real handler below a door
// or an in-memory exchange does: header value slices assigned, not copied.
func (r *replay) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	h := w.Header()
	for k, vs := range r.resp.Header {
		h[k] = vs
	}
	w.WriteHeader(r.resp.StatusCode)
	_, _ = w.Write(r.data)
}

// sink is a reusable ResponseWriter that keeps nothing: its header map is
// emptied before each run, so a handler sees a fresh one without paying
// for it.
type sink struct{ h http.Header }

func (s *sink) Header() http.Header         { return s.h }
func (s *sink) WriteHeader(int)             {}
func (s *sink) Write(p []byte) (int, error) { return len(p), nil }

// inbound is a reusable server-side request rebuilt from a captured one,
// bound to ctx, its X-Soc-Trace value replaced by tp, the trace ctx
// carries; reset rewinds its body.
type inbound struct {
	req  *http.Request
	body *bytes.Reader
	rc   io.ReadCloser
	data []byte
}

func newInbound(t *testing.T, ctx context.Context, ex *exchange, tp string) *inbound {
	t.Helper()
	in := &inbound{body: bytes.NewReader(nil), data: ex.reqBody}
	in.rc = io.NopCloser(in.body)
	req, err := http.NewRequestWithContext(ctx, ex.method, ledgerBase+ex.path, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header = ex.reqHeader.Clone()
	req.Header[telemetry.HeaderName] = []string{tp}
	in.req = req
	return in
}

func (in *inbound) reset() *http.Request {
	in.body.Reset(in.data)
	in.req.Body = in.rc
	return in.req
}

// stub is svc with every handler replaced by one that returns, without
// allocating, what the real handler returned for the op's input.
func stub(t *testing.T, svc *core.Service, outs map[string]core.Values) *core.Service {
	t.Helper()
	s, err := core.NewService(svc.Name, svc.Namespace, svc.Doc)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range svc.Operations() {
		out := outs[op.Name]
		s.MustAddOperation(core.Operation{
			Name: op.Name, Input: op.Input, Output: op.Output, Idempotent: op.Idempotent,
			Handler: func(context.Context, core.Values) (core.Values, error) { return out, nil },
		})
	}
	return s
}

// traceCtx is a context carrying the trace whose wire value a request
// header holds: a live span's on a sampled trace, else an unsampled one.
// A real request carries its caller's; the harness builds its own.
func traceCtx(sampled bool) (context.Context, string) {
	if sampled {
		sp, ctx := telemetry.NewSamplingTracer(8, 1).StartSpan(context.Background(), telemetry.KindClient, "ledger")
		return ctx, sp.TraceParent()
	}
	sc := telemetry.SpanContext{TraceID: telemetry.NewTraceID(), SpanID: telemetry.NewSpanID()}
	call := telemetry.CallTrace{SpanContext: sc, Header: telemetry.FormatTraceParent(sc)}
	return new(telemetry.Unsampled).Bind(context.Background(), call), call.Header
}

// count is testing.AllocsPerRun over f, failing the test on f's error.
func count(t *testing.T, f func() error) float64 {
	t.Helper()
	var err error
	n := testing.AllocsPerRun(ledgerRuns, func() {
		if e := f(); e != nil && err == nil {
			err = e
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// ledger counts one variant: the hops, and the whole request.
func ledger(t *testing.T, o *ledgerOp, sampled bool) (hops [numHops]float64, whole float64) {
	t.Helper()
	rate := 0.0
	if sampled {
		rate = 1
	}
	ctx := context.Background()

	// What the door and the replicas are asked and answer, after enough
	// calls that every replica's cache is warm.
	door, replicas := &capture{}, []*capture{}
	client := ledgerStack(t, o, rate, func(at string, h http.Handler) http.Handler {
		c := &capture{inner: h}
		if at == "door" {
			door = c
		} else {
			replicas = append(replicas, c)
		}
		return c
	})
	for i := 0; i < 32; i++ {
		if err := o.call(ctx, client); err != nil {
			t.Fatal(err)
		}
	}
	var atReplica *exchange
	for _, c := range replicas {
		if ex := c.last; ex != nil && ex.status == http.StatusOK && (!o.cached || ex.header.Get("X-Cache") == "HIT") {
			atReplica = ex
		}
	}
	atDoor := door.last
	if atDoor.status != http.StatusOK || atReplica == nil {
		t.Fatalf("capture: door answered %d; a replica answered as wanted: %v", atDoor.status, atReplica != nil)
	}

	// The whole request, on the real stack.
	real := ledgerStack(t, o, rate, nil)
	whole = count(t, func() error { return o.call(ctx, real) })

	// client: the SDK call — span, args encoding, Route.NewRequest,
	// callplane.Do — and its decoding of the answer.
	replayDoor := newReplay(atDoor)
	sdk := ledgerClient(replayDoor, rate)
	hops[hopClient] = count(t, func() error { return o.call(ctx, sdk) })

	// The in-memory exchange, under a handler that writes the captured
	// answer, of the captured request: a POST with its body, as every
	// call the benchmark makes is.
	toDoorRT := cloud.HandlerTransport(newReplay(atDoor))
	doorReq := newInbound(t, ctx, atDoor, atDoor.reqHeader.Get(telemetry.HeaderName))
	hops[hopClientDoor] = count(t, func() error {
		resp, err := toDoorRT.RoundTrip(doorReq.reset())
		if err != nil {
			return err
		}
		return resp.Body.Close()
	})

	// door: admission, pick and the proxy chain, over local replicas that
	// write the captured answer in place.
	traced, tp := traceCtx(sampled)
	fd := cloud.NewFrontDoor(cloud.FrontDoorConfig{Tracer: telemetry.NewTracer(0)})
	for i := 0; i < ledgerReplicas; i++ {
		fd.Add(cloud.NewLocalReplica(fmt.Sprintf("replica-%d", i), newReplay(atReplica), ledgerReplicaN))
	}
	toDoor := newInbound(t, traced, atDoor, tp)
	w := &sink{h: http.Header{}}
	serve := func(h http.Handler, in *inbound) func() error {
		return func() error {
			clear(w.h)
			h.ServeHTTP(w, in.reset())
			return nil
		}
	}
	hops[hopDoor] = count(t, serve(fd, toDoor))

	// host: routing, the response cache, the binding's codec and
	// core.Service.Invoke, over services whose handlers allocate nothing.
	svcs := ledgerServices(t)
	var target *core.Service
	for _, svc := range svcs {
		if svc.Name == o.svc {
			target = svc
		}
	}
	op, err := target.Operation(o.op)
	if err != nil {
		t.Fatal(err)
	}
	out, err := op.Handler(ctx, o.in)
	if err != nil {
		t.Fatal(err)
	}
	stubs := []*core.Service{}
	for _, svc := range svcs {
		outs := map[string]core.Values{}
		if svc == target {
			outs[o.op] = out
		}
		stubs = append(stubs, stub(t, svc, outs))
	}
	toHost := newInbound(t, traced, atReplica, tp)
	served := count(t, serve(ledgerHost(t, stubs, o.ttl), toHost))

	// codec: the SOAP endpoint's read of the envelope into a reused
	// message and its answer, the host's, written from a parameter list.
	// REST's JSON codec has no seam of its own and stays in the host's row.
	var codec float64
	if o.soap {
		srv := soap.NewServer(target.Namespace)
		var input []string
		for _, p := range op.Input {
			input = append(input, p.Name)
		}
		if err := srv.Declare(o.op, input...); err != nil {
			t.Fatal(err)
		}
		var answer []soap.Param
		for k, v := range out {
			answer = append(answer, soap.Param{Name: k, Value: core.FormatValue(v)})
		}
		var req soap.Message
		endpoint := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			body := callplane.GetBuffer()
			defer body.Release()
			if srv.ReadRequest(w, r, body, &req) {
				srv.WriteAnswer(w, req.Operation, soap.SortParams(answer))
			}
		})
		codec = count(t, serve(endpoint, toHost))
	}

	// core.Service.Invoke's coercion, of the args the binding decoded,
	// around a handler that allocates nothing; and the real handler.
	// Invoke coerces its args in place, so each run gets them afresh in
	// one reused map, emptied and refilled as the host's pooled one is,
	// which allocates nothing once it has held them.
	var coerce, handle float64
	if !o.cached {
		var stubSvc *core.Service
		for _, s := range stubs {
			if s.Name == o.svc {
				stubSvc = s
			}
		}
		args := core.Values{}
		coerce = count(t, func() error {
			clear(args)
			for k, v := range o.raw {
				args[k] = v
			}
			_, err := stubSvc.Invoke(ctx, o.op, args)
			return err
		})
		handle = count(t, func() error { _, err := op.Handler(ctx, o.in); return err })
	}
	hops[hopHost] = served - codec - coerce
	hops[hopSOAPCodec], hops[hopCoerce], hops[hopHandler] = codec, coerce, handle
	return hops, whole
}

// TestAllocLedger prints the ledger of dispatch-light's three op kinds,
// and of an idempotent SOAP call hit and missed and a REST one missed,
// which carry no weight, unsampled and sampled, and the mix-weighted
// total — the figure bench's allocs_per_op reads — and fails unless, in
// every variant, the hops add up to the whole request exactly and each
// stays within its budget.
func TestAllocLedger(t *testing.T) {
	const sampledShare = 1.0 / 16 // telemetry.NewTracer's root rate, which bench's client uses
	var (
		mix     float64
		columns []string
		hops    [][numHops]float64
		wholes  []float64
	)
	for i := range ledgerOps {
		o := &ledgerOps[i]
		for s, sampled := range []bool{false, true} {
			variant, weight := o.name+" U", o.share*(1-sampledShare)
			if sampled {
				variant, weight = o.name+" S", o.share*sampledShare
			}
			counts, whole := ledger(t, o, sampled)
			var sum float64
			for h, n := range counts {
				sum += n
				if n > o.budget[s][h] {
					t.Errorf("%s: %s allocates %.0f/op, budget %.0f", variant, hopNames[h], n, o.budget[s][h])
				}
			}
			if sum != whole {
				t.Errorf("%s: the hops sum to %.0f allocs, the whole request makes %.0f", variant, sum, whole)
			}
			columns, hops, wholes = append(columns, variant), append(hops, counts), append(wholes, whole)
			mix += weight * whole
		}
	}
	var table strings.Builder
	line := func(label string, cell func(v int) float64) {
		fmt.Fprintf(&table, "%-38s", label)
		for v := range columns {
			fmt.Fprintf(&table, " %15.0f", cell(v))
		}
		table.WriteByte('\n')
	}
	fmt.Fprintf(&table, "\nallocs/op (U unsampled, S sampled)    ")
	for _, c := range columns {
		fmt.Fprintf(&table, " %15s", c)
	}
	table.WriteByte('\n')
	for h := range hopNames {
		line(hopNames[h], func(v int) float64 { return hops[v][h] })
	}
	line("Σ hops", func(v int) float64 {
		var sum float64
		for _, n := range hops[v] {
			sum += n
		}
		return sum
	})
	line("whole request", func(v int) float64 { return wholes[v] })
	fmt.Fprintf(&table, "mix-weighted total (4/3/3 per ten ops, 15/16 unsampled): %.3f allocs/op\n", mix)
	t.Log(table.String())
}
