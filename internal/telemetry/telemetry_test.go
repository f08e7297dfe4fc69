package telemetry

import (
	"context"
	"errors"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestTraceParentRoundTrip(t *testing.T) {
	sc := SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID()}
	wire := FormatTraceParent(sc)
	if len(wire) != traceParentLen {
		t.Fatalf("wire length = %d, want %d (%q)", len(wire), traceParentLen, wire)
	}
	if !strings.HasPrefix(wire, "00-") || !strings.HasSuffix(wire, "-01") {
		t.Fatalf("unexpected wire form %q", wire)
	}
	got, ok := ParseTraceParent(wire)
	if !ok || got != sc {
		t.Fatalf("round trip: got %+v ok=%v, want %+v", got, ok, sc)
	}
}

func TestParseTraceParentRejects(t *testing.T) {
	bad := []string{
		"",
		"00-short-01",
		"00-zzzz651916cd43dd8448eb211c80319czz-00f067aa0ba902b7-01",
		// zero trace ID
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",
		// zero span ID
		"00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01",
		"000af7651916cd43dd8448eb211c80319c-00f067aa0ba902b7-01",
	}
	for _, s := range bad {
		if _, ok := ParseTraceParent(s); ok {
			t.Errorf("ParseTraceParent(%q) accepted, want reject", s)
		}
	}
	// Foreign version and flags are tolerated.
	if _, ok := ParseTraceParent("01-0af7651916cd43dd8448eb211c80319c-00f067aa0ba902b7-00"); !ok {
		t.Error("version 01 rejected, want tolerated")
	}
}

func TestHTTPInjectExtract(t *testing.T) {
	tr := NewTracer(8)
	sp, ctx := tr.StartSpan(context.Background(), KindClient, "Calc.Add")
	h := make(http.Header)
	InjectHTTP(ctx, h)
	if h.Get(HeaderName) != sp.TraceParent() {
		t.Fatalf("header = %q, want %q", h.Get(HeaderName), sp.TraceParent())
	}
	want := sp.Context()

	got, ok := FromHTTPHeader(h)
	if !ok || got != want {
		t.Fatalf("extracted %+v ok=%v, want %+v", got, ok, want)
	}
	sp.End()

	// Absent header: no parent, and an untraced request costs nothing.
	untraced := make(http.Header)
	if sc, ok := FromHTTPHeader(untraced); ok || sc.Valid() {
		t.Errorf("untraced request yielded parent %+v", sc)
	}
	if n := testing.AllocsPerRun(100, func() { FromHTTPHeader(untraced) }); n != 0 {
		t.Errorf("FromHTTPHeader allocated %.1f/op for an untraced request", n)
	}
	// No active span: no header written.
	h2 := make(http.Header)
	InjectHTTP(context.Background(), h2)
	if len(h2) != 0 {
		t.Error("InjectHTTP wrote a header with no active span")
	}
}

func TestSpanParentage(t *testing.T) {
	tr := NewTracer(8)
	root, ctx := tr.StartSpan(context.Background(), KindClient, "root")
	rootCtx := root.Context()
	child, cctx := tr.StartSpan(ctx, KindInternal, "child")
	if child.TraceID != root.TraceID || child.Parent != rootCtx.SpanID {
		t.Fatalf("child not parented on root: %+v vs %+v", child, root)
	}
	grand, _ := tr.StartSpan(cctx, KindInternal, "grand")
	if grand.Parent != child.SpanID {
		t.Fatal("grandchild not parented on child")
	}
	grand.End()
	child.End()
	root.EndErr(errors.New("boom"))

	spans := tr.Snapshot()
	if len(spans) != 3 {
		t.Fatalf("recorded %d spans, want 3", len(spans))
	}
	// Finished in grand, child, root order.
	if spans[2].Err != "boom" || spans[2].Name != "root" {
		t.Fatalf("root span = %+v", spans[2])
	}
}

func TestStartSpanRemote(t *testing.T) {
	tr := NewTracer(8)
	remote := SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID()}
	sp, _ := tr.StartSpanRemote(context.Background(), KindServer, "Echo.Echo", remote)
	if sp.TraceID != remote.TraceID || sp.Parent != remote.SpanID {
		t.Fatalf("remote parentage lost: %+v", sp)
	}
	sp.End()

	// Invalid remote falls back to the context's span.
	parent, ctx := tr.StartSpan(context.Background(), KindClient, "p")
	sp2, _ := tr.StartSpanRemote(ctx, KindServer, "s", SpanContext{})
	if sp2.Parent != parent.SpanID {
		t.Fatal("invalid remote did not fall back to context parent")
	}
	sp2.End()
	parent.End()
}

func TestAnnotationsBounded(t *testing.T) {
	tr := NewTracer(4)
	sp, _ := tr.StartSpan(context.Background(), KindClient, "x")
	for i := 0; i < MaxAnnotations+3; i++ {
		sp.Annotate("k", "v")
	}
	if got := len(sp.Annotations()); got != MaxAnnotations {
		t.Fatalf("annotations = %d, want capped at %d", got, MaxAnnotations)
	}
	sp.End()
	var nilSpan *Span
	nilSpan.Annotate("k", "v") // must not panic
	nilSpan.End()
}

func TestRingWrap(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		sp, _ := tr.StartSpan(context.Background(), KindInternal, string(rune('a'+i)))
		sp.End()
	}
	spans := tr.Snapshot()
	if len(spans) != 4 {
		t.Fatalf("snapshot = %d spans, want capacity 4", len(spans))
	}
	// Oldest-first: spans g,h,i,j survive.
	want := []string{"g", "h", "i", "j"}
	for i, sp := range spans {
		if sp.Name != want[i] {
			t.Fatalf("snapshot[%d] = %q, want %q", i, sp.Name, want[i])
		}
	}
	if tr.Recorded() != 10 {
		t.Fatalf("Recorded = %d, want 10", tr.Recorded())
	}
	tr.Reset()
	if tr.Snapshot() != nil || tr.Recorded() != 0 {
		t.Fatal("Reset did not clear the ring")
	}
}

func TestEvent(t *testing.T) {
	tr := NewTracer(8)
	parent := SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID()}
	tr.Event(parent, KindCache, "Echo.Echo", "respcache", "hit")
	spans := tr.Snapshot()
	if len(spans) != 1 {
		t.Fatalf("recorded %d spans, want 1", len(spans))
	}
	ev := spans[0]
	if !ev.Cached || ev.Duration != 0 || ev.TraceID != parent.TraceID || ev.Parent != parent.SpanID {
		t.Fatalf("event span = %+v", ev)
	}
	if anns := ev.Annotations(); len(anns) != 1 || anns[0] != (Annotation{Key: "respcache", Value: "hit"}) {
		t.Fatalf("event annotations = %v", ev.Annotations())
	}
}

func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	sp, ctx := tr.StartSpan(context.Background(), KindClient, "x")
	if sp != nil || ctx != context.Background() {
		t.Fatal("nil tracer must return (nil, ctx)")
	}
	sp.Annotate("k", "v")
	sp.EndErr(errors.New("x"))
	tr.Event(SpanContext{}, KindFault, "f", "", "")
	if tr.Snapshot() != nil || tr.Recorded() != 0 {
		t.Fatal("nil tracer recorded")
	}
}

func TestBuildTraces(t *testing.T) {
	tr := NewTracer(16)
	root, ctx := tr.StartSpan(context.Background(), KindClient, "Calc.Add")
	rootSC := root.Context()
	a1, _ := tr.StartSpan(ctx, KindClient, "attempt")
	a1.Attempt = 1
	a1.EndErr(errors.New("fail"))
	a2, a2ctx := tr.StartSpan(ctx, KindClient, "attempt")
	a2.Attempt = 2
	srv, _ := tr.StartSpanRemote(a2ctx, KindServer, "Calc.Add", a2.Context())
	srv.End()
	a2.End()
	root.End()
	// Unrelated second trace.
	other, _ := tr.StartSpan(context.Background(), KindInternal, "other")
	other.End()

	trees := BuildTraces(tr.Snapshot())
	if len(trees) != 2 {
		t.Fatalf("trees = %d, want 2", len(trees))
	}
	main := trees[0]
	if main.TraceID != rootSC.TraceID {
		t.Fatalf("first tree is %s, want root trace (earliest start)", main.TraceID)
	}
	if len(main.Roots) != 1 || main.Roots[0].Span.Name != "Calc.Add" {
		t.Fatalf("main roots = %+v", main.Roots)
	}
	kids := main.Roots[0].Children
	if len(kids) != 2 || kids[0].Span.Attempt != 1 || kids[1].Span.Attempt != 2 {
		t.Fatalf("attempt children wrong: %+v", kids)
	}
	if len(kids[1].Children) != 1 || kids[1].Children[0].Span.Kind != KindServer {
		t.Fatal("server span not nested under attempt 2")
	}

	out := FormatTraces(trees)
	for _, want := range []string{"trace " + rootSC.TraceID.String(), "#1", "#2", `err="fail"`, "server Calc.Add"} {
		if !strings.Contains(out, want) {
			t.Fatalf("formatted output missing %q:\n%s", want, out)
		}
	}
}

func TestBuildTracesOrphan(t *testing.T) {
	// A span whose parent fell out of the ring becomes a root, not lost.
	sp := Span{TraceID: NewTraceID(), SpanID: NewSpanID(), Parent: NewSpanID(), Name: "orphan", Start: time.Now()}
	trees := BuildTraces([]Span{sp})
	if len(trees) != 1 || len(trees[0].Roots) != 1 || trees[0].Roots[0].Span.Name != "orphan" {
		t.Fatalf("orphan handling: %+v", trees)
	}
}

func TestMetrics(t *testing.T) {
	m := NewMetrics()
	m.Record("Calc.Add", 5*time.Millisecond, false)
	m.Record("Calc.Add", 15*time.Millisecond, true)
	m.RecordCached("Calc.Add")
	m.RecordCached("Calc.Add")

	snap := m.Snapshot()
	om := snap["Calc.Add"]
	if om.Calls != 2 || om.Errors != 1 || om.CacheHits != 2 {
		t.Fatalf("counters = %+v", om)
	}
	if om.TotalTime != 20*time.Millisecond {
		t.Fatalf("TotalTime = %v", om.TotalTime)
	}
	if om.MeanTime() != 10*time.Millisecond {
		t.Fatalf("MeanTime = %v, want 10ms (cache hits excluded)", om.MeanTime())
	}
	// The hits stay out of the distribution: p50 is the 5ms sample's
	// bucket, p99 and max the 15ms one.
	op := m.Report().Operations["Calc.Add"]
	if op.P50Nanos < int64(5*time.Millisecond) || op.P50Nanos >= int64(10*time.Millisecond) ||
		op.P99Nanos < int64(15*time.Millisecond) || op.MaxNanos != int64(15*time.Millisecond) {
		t.Fatalf("report = %+v", op)
	}
	if keys := m.Keys(); len(keys) != 1 || keys[0] != "Calc.Add" {
		t.Fatalf("keys = %v", keys)
	}
}

func TestContextTracerPlumbing(t *testing.T) {
	tr := NewTracer(8)
	ctx := ContextWithTracer(context.Background(), tr)
	if TracerFromContext(ctx) != tr {
		t.Fatal("tracer not carried")
	}
	sp, sctx := StartSpanFromContext(ctx, KindWorkflow, "step")
	if sp == nil || sp.tracer != tr {
		t.Fatal("StartSpanFromContext did not use ambient tracer")
	}
	// Child started from the span's context reuses the span's tracer even
	// without the tracer key.
	child, _ := StartSpanFromContext(ContextWithSpan(context.Background(), sp), KindInternal, "sub")
	if child == nil || child.tracer != tr {
		t.Fatal("child did not inherit span tracer")
	}
	child.End()
	sp.End()
	_ = sctx

	// Neither tracer nor span: nil span, unchanged context.
	nsp, nctx := StartSpanFromContext(context.Background(), KindInternal, "x")
	if nsp != nil || nctx != context.Background() {
		t.Fatal("untraced StartSpanFromContext must no-op")
	}
}

func TestCacheMissMark(t *testing.T) {
	ctx := context.Background()
	if IsCacheMiss(ctx) {
		t.Fatal("fresh context is not a miss")
	}
	if !IsCacheMiss(MarkCacheMiss(ctx)) {
		t.Fatal("mark lost")
	}
}
