package host

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"soc/internal/core"
	"soc/internal/faultinject"
	"soc/internal/telemetry"
	"soc/internal/workflow"
)

// tracedPolicy is quickPolicy with an explicit tracer, so each test owns
// its span ring instead of sharing the process default.
func tracedPolicy(tr *telemetry.Tracer) Policy {
	p := quickPolicy()
	p.Tracer = tr
	return p
}

// faultedAddHost returns an Add host whose invocations run through a
// fault injector, with injected faults recorded into the host's tracer.
func faultedAddHost(t *testing.T, plan faultinject.Plan) (*Host, *faultinject.Injector) {
	t.Helper()
	h := newAddHost(t)
	inj, err := faultinject.New(plan)
	if err != nil {
		t.Fatal(err)
	}
	inj.Tracer = h.Tracer()
	h.Use(inj.Middleware())
	return h, inj
}

// alwaysError fails every call to Calc.Add.
func alwaysError() faultinject.Plan {
	return faultinject.Plan{Rules: map[string]faultinject.Rule{
		"Calc.Add": {ErrorRate: 1},
	}}
}

// firstCallError fails only the first call to Calc.Add: the burst window
// forces the (negligible) base rate to certainty for exactly one call.
func firstCallError() faultinject.Plan {
	return faultinject.Plan{Rules: map[string]faultinject.Rule{
		"Calc.Add": {ErrorRate: 1e-12, Burst: faultinject.Burst{Every: 1 << 30, Length: 1}},
	}}
}

func childrenNamed(n *telemetry.Node, name string) []*telemetry.Node {
	var out []*telemetry.Node
	for _, c := range n.Children {
		if c.Span.Name == name {
			out = append(out, c)
		}
	}
	return out
}

func childOfKind(n *telemetry.Node, kind telemetry.Kind) *telemetry.Node {
	for _, c := range n.Children {
		if c.Span.Kind == kind {
			return c
		}
	}
	return nil
}

func hasAnnotation(sp telemetry.Span, key, value string) bool {
	for _, a := range sp.Annotations() {
		if a.Key == key && a.Value == value {
			return true
		}
	}
	return false
}

// TestResilientCallUnderFaultsOneTraceTree drives a single ResilientClient
// call across three fault-injected hosts — replicas A and B always fail,
// C fails only its first call — and asserts that the merged client- and
// provider-side span rings reassemble into exactly one trace tree whose
// per-attempt spans match the attempt sequence: A err, B err, C err
// (pass 1), then A err, B err, C ok (retry pass 2).
func TestResilientCallUnderFaultsOneTraceTree(t *testing.T) {
	hA, _ := faultedAddHost(t, alwaysError())
	hB, _ := faultedAddHost(t, alwaysError())
	hC, _ := faultedAddHost(t, firstCallError())
	srvA := httptest.NewServer(hA)
	defer srvA.Close()
	srvB := httptest.NewServer(hB)
	defer srvB.Close()
	srvC := httptest.NewServer(hC)
	defer srvC.Close()

	ct := telemetry.NewTracer(256)
	rc, err := NewResilientClient(tracedPolicy(ct), srvA.URL, srvB.URL, srvC.URL)
	if err != nil {
		t.Fatal(err)
	}
	out, err := rc.Call(context.Background(), "Calc", "Add", core.Values{"a": 19, "b": 23})
	if err != nil {
		t.Fatalf("call: %v", err)
	}
	if out["sum"] != float64(42) {
		t.Errorf("sum = %v", out["sum"])
	}
	attempts, failovers, _, _ := rc.Counters()
	if attempts != 6 || failovers != 4 {
		t.Errorf("counters: attempts=%d failovers=%d, want 6 and 4", attempts, failovers)
	}

	spans := ct.Snapshot()
	spans = append(spans, hA.Tracer().Snapshot()...)
	spans = append(spans, hB.Tracer().Snapshot()...)
	spans = append(spans, hC.Tracer().Snapshot()...)
	trees := telemetry.BuildTraces(spans)
	if len(trees) != 1 {
		t.Fatalf("got %d trace trees, want 1:\n%s", len(trees), telemetry.FormatTraces(trees))
	}
	tree := trees[0]
	if len(tree.Roots) != 1 {
		t.Fatalf("got %d roots, want 1:\n%s", len(tree.Roots), tree.Format())
	}
	root := tree.Roots[0]
	if root.Span.Kind != telemetry.KindClient || root.Span.Name != "Calc.Add" || root.Span.Err != "" {
		t.Errorf("root span = %s %s err=%q", root.Span.Kind, root.Span.Name, root.Span.Err)
	}
	if !hasAnnotation(root.Span, "attempts", "6") {
		t.Errorf("root missing attempts=6 annotation: %v", root.Span.Annotations())
	}

	attemptSpans := childrenNamed(root, "attempt")
	if len(attemptSpans) != 6 {
		t.Fatalf("got %d attempt spans, want 6:\n%s", len(attemptSpans), tree.Format())
	}
	wantTargets := []string{srvA.URL, srvB.URL, srvC.URL, srvA.URL, srvB.URL, srvC.URL}
	faultEvents := 0
	for i, at := range attemptSpans {
		if at.Span.Attempt != i+1 {
			t.Errorf("attempt %d numbered %d", i+1, at.Span.Attempt)
		}
		if at.Span.Target != wantTargets[i] {
			t.Errorf("attempt %d target = %s, want %s", i+1, at.Span.Target, wantTargets[i])
		}
		failed := i < 5
		if (at.Span.Err != "") != failed {
			t.Errorf("attempt %d err = %q, want failed=%v", i+1, at.Span.Err, failed)
		}
		if f := childOfKind(at, telemetry.KindFault); f != nil {
			faultEvents++
			if !hasAnnotation(f.Span, "fault", "error") {
				t.Errorf("fault event annotations = %v", f.Span.Annotations())
			}
		}
	}
	if faultEvents != 5 {
		t.Errorf("got %d fault events, want 5 (one per injected failure):\n%s", faultEvents, tree.Format())
	}
	// The successful final attempt nests C's provider dispatch span.
	last := attemptSpans[5]
	srvSpan := childOfKind(last, telemetry.KindServer)
	if srvSpan == nil {
		t.Fatalf("successful attempt has no server dispatch child:\n%s", tree.Format())
	}
	if srvSpan.Span.Name != "Calc.Add" || !hasAnnotation(srvSpan.Span, "binding", "rest") {
		t.Errorf("server span = %q annotations %v", srvSpan.Span.Name, srvSpan.Span.Annotations())
	}
}

// newIdempotentAddHost is newAddHost with the operation declared
// idempotent, so the response cache may answer repeats.
func newIdempotentAddHost(t *testing.T) *Host {
	t.Helper()
	svc, err := core.NewService("Calc", "http://soc.example/calc", "")
	if err != nil {
		t.Fatal(err)
	}
	svc.MustAddOperation(core.Operation{
		Name:       "Add",
		Idempotent: true,
		Input:      []core.Param{{Name: "a", Type: core.Int}, {Name: "b", Type: core.Int}},
		Output:     []core.Param{{Name: "sum", Type: core.Int}},
		Handler: func(_ context.Context, in core.Values) (core.Values, error) {
			return core.Values{"sum": in.Int("a") + in.Int("b")}, nil
		},
	})
	h := New()
	h.MustMount(svc)
	return h
}

// TestRespcacheTraceAnnotationsAndMetrics asserts the cache plane's trace
// contract: a cold call's dispatch span is annotated respcache=miss, a
// repeat renders as a zero-duration cached span in the second call's
// trace, and /metricz counts the hit apart from the latency-sampled
// calls so cached answers can't skew QoS-feeding histograms.
func TestRespcacheTraceAnnotationsAndMetrics(t *testing.T) {
	h := newIdempotentAddHost(t)
	h.UseResponseCache(64, time.Minute)
	srv := httptest.NewServer(h)
	defer srv.Close()

	ct := telemetry.NewTracer(64)
	c := NewClient(srv.URL)
	c.Tracer = ct
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := c.Call(ctx, "Calc", "Add", core.Values{"a": 1, "b": 2}); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}

	spans := append(ct.Snapshot(), h.Tracer().Snapshot()...)
	trees := telemetry.BuildTraces(spans)
	if len(trees) != 2 {
		t.Fatalf("got %d trace trees, want 2 (one per call):\n%s", len(trees), telemetry.FormatTraces(trees))
	}
	cold, warm := trees[0], trees[1]

	srvSpan := childOfKind(cold.Roots[0], telemetry.KindServer)
	if srvSpan == nil || !hasAnnotation(srvSpan.Span, "respcache", "miss") {
		t.Errorf("cold dispatch span missing respcache=miss:\n%s", cold.Format())
	}
	hit := childOfKind(warm.Roots[0], telemetry.KindCache)
	if hit == nil {
		t.Fatalf("warm call has no cache span:\n%s", warm.Format())
	}
	if !hit.Span.Cached || hit.Span.Duration != 0 || hit.Span.Name != "Calc.Add" ||
		!hasAnnotation(hit.Span, "respcache", "hit") {
		t.Errorf("cache span = %+v", hit.Span)
	}
	if childOfKind(warm.Roots[0], telemetry.KindServer) != nil {
		t.Errorf("warm call reached dispatch despite the cache hit:\n%s", warm.Format())
	}

	// /metricz: one latency-sampled call, one hit counted apart.
	resp, err := http.Get(srv.URL + "/metricz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var report telemetry.MetricsReport
	if err := json.NewDecoder(resp.Body).Decode(&report); err != nil {
		t.Fatal(err)
	}
	op, ok := report.Operations["Calc.Add"]
	if !ok {
		t.Fatalf("metricz missing Calc.Add: %+v", report.Operations)
	}
	if op.Calls != 1 || op.Errors != 0 || op.CacheHits != 1 {
		t.Errorf("metricz Calc.Add = %+v, want calls=1 errors=0 cacheHits=1", op)
	}
	// A zero-duration hit in the distribution would pull p50 below p99.
	if op.P50Nanos != op.P99Nanos || op.MaxNanos > op.P99Nanos {
		t.Errorf("metricz Calc.Add p50 %d p99 %d max %d ns, want one sample (hits excluded)",
			op.P50Nanos, op.P99Nanos, op.MaxNanos)
	}

	// /tracez renders the same ring, as JSON and as an ASCII tree.
	resp2, err := http.Get(srv.URL + "/tracez")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var tz struct {
		Recorded uint64            `json:"recorded"`
		Retained int               `json:"retained"`
		Spans    []json.RawMessage `json:"spans"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&tz); err != nil {
		t.Fatal(err)
	}
	if tz.Retained == 0 || len(tz.Spans) != tz.Retained {
		t.Errorf("tracez retained=%d spans=%d", tz.Retained, len(tz.Spans))
	}
	resp3, err := http.Get(srv.URL + "/tracez?format=tree")
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	tree, err := io.ReadAll(resp3.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(tree), "trace ") || !strings.Contains(string(tree), "(cached)") {
		t.Errorf("tracez tree rendering missing expected content:\n%s", tree)
	}
}

// invoking adapts a host client (plain or resilient) to workflow.Invoker.
func invoking(call func(ctx context.Context, service, op string, args core.Values) (core.Values, error)) workflow.Invoker {
	return workflow.InvokerFunc(func(ctx context.Context, service, op string, args map[string]any) (map[string]any, error) {
		out, err := call(ctx, service, op, core.Values(args))
		return map[string]any(out), err
	})
}

// TestWorkflowCompositionOneTraceAcrossThreeHosts composes three service
// invocations across three hosts — the second surviving one injected
// error via retry, the third failing over from an always-faulting replica
// — and asserts the whole composition reassembles into a single trace
// tree: workflow activity spans under the sequence root, client spans
// under their activities, and attempt parentage matching the attempt
// sequence on each resilient leg.
func TestWorkflowCompositionOneTraceAcrossThreeHosts(t *testing.T) {
	hA := newAddHost(t)
	srvA := httptest.NewServer(hA)
	defer srvA.Close()
	hB, _ := faultedAddHost(t, firstCallError())
	srvB := httptest.NewServer(hB)
	defer srvB.Close()
	hC1, _ := faultedAddHost(t, alwaysError())
	srvC1 := httptest.NewServer(hC1)
	defer srvC1.Close()
	hC2 := newAddHost(t)
	srvC2 := httptest.NewServer(hC2)
	defer srvC2.Close()

	ct := telemetry.NewTracer(256)
	cA := NewClient(srvA.URL)
	cA.Tracer = ct
	rcB, err := NewResilientClient(tracedPolicy(ct), srvB.URL)
	if err != nil {
		t.Fatal(err)
	}
	rcC, err := NewResilientClient(tracedPolicy(ct), srvC1.URL, srvC2.URL)
	if err != nil {
		t.Fatal(err)
	}

	wf, err := workflow.New("quote", &workflow.Sequence{
		Label: "quote",
		Steps: []workflow.Activity{
			&workflow.Invoke{Label: "base", Service: "Calc", Operation: "Add", Invoker: invoking(cA.Call),
				Inputs: map[string]string{"a": "x", "b": "y"}, Outputs: map[string]string{"sum": "base"}},
			&workflow.Invoke{Label: "taxed", Service: "Calc", Operation: "Add", Invoker: invoking(rcB.Call),
				Inputs: map[string]string{"a": "base", "b": "tax"}, Outputs: map[string]string{"sum": "taxed"}},
			&workflow.Invoke{Label: "total", Service: "Calc", Operation: "Add", Invoker: invoking(rcC.Call),
				Inputs: map[string]string{"a": "taxed", "b": "fee"}, Outputs: map[string]string{"sum": "total"}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := telemetry.ContextWithTracer(context.Background(), ct)
	out, _, err := wf.Run(ctx, map[string]any{"x": 19, "y": 23, "tax": 8, "fee": 50})
	if err != nil {
		t.Fatalf("workflow: %v", err)
	}
	if got := out["total"]; got != float64(100) {
		t.Errorf("total = %v, want 100", got)
	}

	spans := ct.Snapshot()
	for _, h := range []*Host{hA, hB, hC1, hC2} {
		spans = append(spans, h.Tracer().Snapshot()...)
	}
	trees := telemetry.BuildTraces(spans)
	if len(trees) != 1 {
		t.Fatalf("got %d trace trees, want 1:\n%s", len(trees), telemetry.FormatTraces(trees))
	}
	tree := trees[0]
	if len(tree.Roots) != 1 {
		t.Fatalf("got %d roots, want 1:\n%s", len(tree.Roots), tree.Format())
	}
	root := tree.Roots[0]
	if root.Span.Kind != telemetry.KindWorkflow || root.Span.Name != "quote" {
		t.Fatalf("root = %s %s, want workflow quote", root.Span.Kind, root.Span.Name)
	}
	if len(root.Children) != 3 {
		t.Fatalf("sequence has %d activity children, want 3:\n%s", len(root.Children), tree.Format())
	}
	for i, want := range []string{"base", "taxed", "total"} {
		act := root.Children[i]
		if act.Span.Kind != telemetry.KindWorkflow || act.Span.Name != want {
			t.Errorf("activity %d = %s %s, want workflow %s", i, act.Span.Kind, act.Span.Name, want)
		}
		client := childOfKind(act, telemetry.KindClient)
		if client == nil || client.Span.Name != "Calc.Add" {
			t.Fatalf("activity %s has no Calc.Add client child:\n%s", want, tree.Format())
		}
	}

	// Leg B: one retry — attempt 1 faulted, attempt 2 clean, same replica.
	legB := childOfKind(root.Children[1], telemetry.KindClient)
	bAttempts := childrenNamed(legB, "attempt")
	if len(bAttempts) != 2 || bAttempts[0].Span.Err == "" || bAttempts[1].Span.Err != "" {
		t.Errorf("retry leg attempts wrong:\n%s", tree.Format())
	}
	if childOfKind(bAttempts[0], telemetry.KindFault) == nil {
		t.Errorf("retry leg's failed attempt lacks its fault event:\n%s", tree.Format())
	}

	// Leg C: one failover hop — C1 fails, C2 answers.
	legC := childOfKind(root.Children[2], telemetry.KindClient)
	cAttempts := childrenNamed(legC, "attempt")
	if len(cAttempts) != 2 ||
		cAttempts[0].Span.Target != srvC1.URL || cAttempts[0].Span.Err == "" ||
		cAttempts[1].Span.Target != srvC2.URL || cAttempts[1].Span.Err != "" {
		t.Errorf("failover leg attempts wrong:\n%s", tree.Format())
	}
	if childOfKind(cAttempts[1], telemetry.KindServer) == nil {
		t.Errorf("failover leg's success lacks its dispatch span:\n%s", tree.Format())
	}

	_, failoversB, _, _ := rcB.Counters()
	_, failoversC, _, _ := rcC.Counters()
	if failoversB != 0 || failoversC != 1 {
		t.Errorf("failovers B=%d C=%d, want 0 and 1", failoversB, failoversC)
	}
}
