package telemetry

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"soc/internal/vtime"
)

func TestTraceParentRoundTrip(t *testing.T) {
	for _, sampled := range []bool{true, false} {
		sc := SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID(), Sampled: sampled}
		wire := FormatTraceParent(sc)
		if len(wire) != traceParentLen {
			t.Fatalf("wire length = %d, want %d (%q)", len(wire), traceParentLen, wire)
		}
		flags := "-00"
		if sampled {
			flags = "-01"
		}
		if !strings.HasPrefix(wire, "00-") || !strings.HasSuffix(wire, flags) {
			t.Fatalf("unexpected wire form %q", wire)
		}
		got, ok := ParseTraceParent(wire)
		if !ok || got != sc {
			t.Fatalf("round trip: got %+v ok=%v, want %+v", got, ok, sc)
		}
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
		// version ff is invalid, and version and flags are hex
		"ff-0af7651916cd43dd8448eb211c80319c-00f067aa0ba902b7-01",
		"0x-0af7651916cd43dd8448eb211c80319c-00f067aa0ba902b7-01",
		"00-0af7651916cd43dd8448eb211c80319c-00f067aa0ba902b7-0z",
	}
	for _, s := range bad {
		if _, ok := ParseTraceParent(s); ok {
			t.Errorf("ParseTraceParent(%q) accepted, want reject", s)
		}
	}
	// Foreign version and flags are tolerated; bit 0 is the sampled flag.
	for s, sampled := range map[string]bool{
		"01-0af7651916cd43dd8448eb211c80319c-00f067aa0ba902b7-00": false,
		"00-0af7651916cd43dd8448eb211c80319c-00f067aa0ba902b7-03": true,
		"00-0af7651916cd43dd8448eb211c80319c-00f067aa0ba902b7-02": false,
	} {
		if sc, ok := ParseTraceParent(s); !ok || sc.Sampled != sampled {
			t.Errorf("ParseTraceParent(%q) = %+v ok=%v, want sampled=%v", s, sc, ok, sampled)
		}
	}
}

// The sampler draws once per root: deterministic, at its rate, and not
// every Nth — so two alternating operations are both traced.
func TestSamplerDrawsRoots(t *testing.T) {
	const roots = 4096
	for _, rate := range []float64{0, 1.0 / 16, 0.25, 1} {
		tr := NewSamplingTracer(roots, rate)
		var kept [2]int
		for k := uint64(1); k <= roots; k++ {
			sp, _ := tr.StartSpan(context.Background(), KindClient, "op")
			if (sp != nil) != newSampler(rate).sampled(k) {
				t.Fatalf("rate %v: root %d sampled=%v, the sampler says otherwise", rate, k, sp != nil)
			}
			if sp != nil {
				kept[k%2]++
			}
			sp.End()
		}
		n := kept[0] + kept[1]
		if int(tr.Recorded()) != n {
			t.Errorf("rate %v: recorded %d spans for %d sampled roots", rate, tr.Recorded(), n)
		}
		if want := rate * roots; math.Abs(float64(n)-want) > 4*math.Sqrt(want+1) {
			t.Errorf("rate %v: sampled %d of %d roots, want about %.0f", rate, n, roots, want)
		}
		if rate > 0 && rate < 1 && (kept[0] == 0 || kept[1] == 0) {
			t.Errorf("rate %v: odd and even roots sampled %v times: the draw aliases", rate, kept)
		}
	}
	if NewTracer(1).sampler != newSampler(1.0/16) {
		t.Error("NewTracer does not sample 1 in 16 roots")
	}
}

// Every hop of an unsampled trace inherits the root's decision: no span,
// no event, no draw, and the traceparent forwarded as it arrived.
func TestUnsampledTracePropagates(t *testing.T) {
	tr := NewSamplingTracer(8, 0)
	sp, ctx := tr.StartSpan(context.Background(), KindClient, "root")
	if sp != nil {
		t.Fatal("a rate-0 tracer sampled a root")
	}
	root := SpanContextOf(ctx)
	if !root.Valid() || root.Sampled {
		t.Fatalf("unsampled root's context carries %+v", root)
	}
	tp := TraceParentOf(ctx)
	if got, ok := ParseTraceParent(tp); !ok || got != root || !strings.HasSuffix(tp, "-00") {
		t.Fatalf("traceparent %q does not name the root %+v", tp, root)
	}
	// A rate-1 tracer downstream inherits the decision and never draws.
	down := NewSamplingTracer(8, 1)
	child, cctx := down.StartSpan(ctx, KindInternal, "child")
	remote, rctx := down.StartSpanRemote(context.Background(), KindServer, "remote", root)
	call, callTP, callCtx := down.StartCall(ctx, KindClient, "call")
	if child != nil || remote != nil || call != nil {
		t.Fatal("a hop on an unsampled trace started a span")
	}
	if cctx != ctx || callCtx != ctx || callTP != (CallTrace{root, tp}) {
		t.Fatal("a hop on an unsampled trace changed its context or traceparent")
	}
	if sc := SpanContextOf(rctx); sc != root {
		t.Fatalf("the context of an unsampled remote carries %+v, want %+v", sc, root)
	}
	if _, again := down.StartSpanRemote(rctx, KindServer, "again", root); again != rctx {
		t.Fatal("a context already carrying the trace was wrapped again")
	}
	down.Event(rctx, root, KindCache, "hit", "respcache", "hit")
	if down.Recorded() != 0 || down.roots.Load() != 0 {
		t.Fatalf("downstream recorded %d spans and drew %d roots", down.Recorded(), down.roots.Load())
	}
	// A sampled root formats its traceparent once and carries its span.
	sampled, stp, sctx := down.StartCall(context.Background(), KindClient, "call")
	if sampled == nil || stp != (CallTrace{sampled.Context(), sampled.TraceParent()}) || SpanFromContext(sctx) != sampled {
		t.Fatal("a sampled call root did not start and carry its span")
	}
	sampled.End()
}

// Unsampled.Bind makes a context out of storage the caller owns.
func TestUnsampledBind(t *testing.T) {
	sc := SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID()}
	tp := FormatTraceParent(sc)
	type key struct{}
	parent, cancel := context.WithCancel(context.WithValue(context.Background(), key{}, "v"))
	var u Unsampled
	ctx := u.Bind(parent, CallTrace{sc, tp})
	if SpanContextOf(ctx) != sc || TraceParentOf(ctx) != tp || ctx.Value(key{}) != "v" {
		t.Fatal("a bound context lost the trace or its parent's values")
	}
	cancel()
	if ctx.Err() == nil {
		t.Fatal("a bound context does not see its parent's cancelation")
	}
}

func TestHTTPInjectExtract(t *testing.T) {
	tr := NewSamplingTracer(8, 1)
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
	tr := NewSamplingTracer(8, 1)
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
	tr := NewSamplingTracer(8, 1)
	remote := SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID(), Sampled: true}
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
	tr := NewSamplingTracer(4, 1)
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
	tr := NewSamplingTracer(4, 1)
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
	// A cursor the ring has lapped reads what survives and counts the
	// rest: after b (seq 2), c–f were overwritten.
	spans, next, lost := tr.Since(2)
	if names := spanNames(spans); names != "ghij" || next != 10 || lost != 4 {
		t.Fatalf("Since(2) = %q next=%d lost=%d, want \"ghij\" next=10 lost=4", names, next, lost)
	}
	if spans, next, lost := tr.Since(10); spans != nil || next != 10 || lost != 0 {
		t.Fatalf("Since(10) = %d spans next=%d lost=%d, want none at 10", len(spans), next, lost)
	}
	var nilTracer *Tracer
	if spans, next, lost := nilTracer.Since(7); spans != nil || next != 7 || lost != 0 {
		t.Fatalf("nil Since(7) = %d spans next=%d lost=%d, want (nil, 7, 0)", len(spans), next, lost)
	}
}

func spanNames(spans []Span) string {
	var b strings.Builder
	for _, sp := range spans {
		b.WriteString(sp.Name)
	}
	return b.String()
}

// TestSinceAgainstConcurrentRecorders runs cursor readers while
// recorders fill a small ring (run it under -race): each reader sees every
// recorder's spans in the order it recorded them, never twice, and every
// sequence number is either read or counted lost.
func TestSinceAgainstConcurrentRecorders(t *testing.T) {
	const recorders, readers, perRecorder = 4, 3, 2000
	tr := NewSamplingTracer(64, 1)
	var recording sync.WaitGroup
	for g := 0; g < recorders; g++ {
		recording.Add(1)
		go func() {
			defer recording.Done()
			for i := 1; i <= perRecorder; i++ {
				sp, _ := tr.StartSpan(context.Background(), KindInternal, "r")
				sp.Target, sp.Attempt = string(rune('a'+g)), i
				sp.End()
			}
		}()
	}
	done := make(chan struct{})
	go func() { recording.Wait(); close(done) }()

	errs := make(chan string, readers)
	for r := 0; r < readers; r++ {
		go func() {
			var cursor, read, lost uint64
			last := map[string]int{}
			for finished := false; ; {
				select {
				case <-done:
					finished = true
				default:
				}
				spans, next, l := tr.Since(cursor)
				if next < cursor || uint64(len(spans))+l != next-cursor {
					errs <- fmt.Sprintf("Since(%d) = %d spans, next %d, lost %d: (cursor, next] not accounted for", cursor, len(spans), next, l)
					return
				}
				for _, sp := range spans {
					if sp.Attempt <= last[sp.Target] {
						errs <- fmt.Sprintf("recorder %s: span %d read after %d", sp.Target, sp.Attempt, last[sp.Target])
						return
					}
					last[sp.Target] = sp.Attempt
				}
				cursor, read, lost = next, read+uint64(len(spans)), lost+l
				// A pass that starts after every recorder returned reads
				// to the end, so it is the last one.
				if finished && cursor == tr.Recorded() {
					break
				}
			}
			if total := uint64(recorders * perRecorder); read+lost != total {
				errs <- fmt.Sprintf("read %d + lost %d != recorded %d", read, lost, total)
				return
			}
			t.Logf("reader: %d spans read, %d lost", read, lost)
			errs <- ""
		}()
	}
	for r := 0; r < readers; r++ {
		if e := <-errs; e != "" {
			t.Error(e)
		}
	}
}

func TestEvent(t *testing.T) {
	tr := NewSamplingTracer(8, 1)
	parent := SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID(), Sampled: true}
	tr.Event(context.Background(), parent, KindCache, "Echo.Echo", "respcache", "hit")
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

// A span starts and ends on the clock of the context it started in, and
// an event is stamped with its context's clock.
func TestSpansReadTheContextClock(t *testing.T) {
	tr := NewSamplingTracer(8, 1)
	clock := vtime.NewVirtual(time.Unix(1_000, 0))
	ctx := vtime.WithClock(context.Background(), clock)
	sp, sctx := tr.StartSpan(ctx, KindServer, "Echo.Echo")
	clock.Advance(250 * time.Millisecond)
	// The child starts in sctx, so it reads the same clock.
	child, _ := tr.StartSpan(sctx, KindInternal, "inner")
	clock.Advance(time.Second)
	child.End()
	tr.Event(sctx, sp.Context(), KindCache, "hit", "", "")
	sp.End()
	spans := tr.Snapshot()
	if len(spans) != 3 {
		t.Fatalf("recorded %d spans, want 3", len(spans))
	}
	start := time.Unix(1_000, 0)
	for i, want := range []struct {
		start time.Time
		dur   time.Duration
	}{
		{start.Add(250 * time.Millisecond), time.Second},
		{start.Add(1250 * time.Millisecond), 0},
		{start, 1250 * time.Millisecond},
	} {
		if got := spans[i]; !got.Start.Equal(want.start) || got.Duration != want.dur {
			t.Errorf("span %q: start %v, duration %v; want %v, %v", got.Name, got.Start, got.Duration, want.start, want.dur)
		}
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
	tr.Event(ctx, SpanContext{}, KindFault, "f", "", "")
	if tr.Snapshot() != nil || tr.Recorded() != 0 {
		t.Fatal("nil tracer recorded")
	}
}

func TestBuildTraces(t *testing.T) {
	tr := NewSamplingTracer(16, 1)
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
	if keys := slices.Sorted(maps.Keys(m.Snapshot())); len(keys) != 1 || keys[0] != "Calc.Add" {
		t.Fatalf("keys = %v", keys)
	}
}

func TestContextTracerPlumbing(t *testing.T) {
	tr := NewSamplingTracer(8, 1)
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
