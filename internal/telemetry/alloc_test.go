//go:build !race

package telemetry

import (
	"context"
	"fmt"
	"net/http"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// The span lifecycle rides the hot message plane, so its allocation cost
// is pinned: start+annotate+finish may allocate only the context carrying
// the span (one WithValue), and a recorded Event must allocate nothing at
// steady state.
func TestSpanAllocCeiling(t *testing.T) {
	tr := NewTracer(64)
	// Prime the pool and the ring.
	sp, _ := tr.StartSpan(context.Background(), KindClient, "warm")
	sp.End()

	ctx := context.Background()
	allocs := testing.AllocsPerRun(200, func() {
		sp, _ := tr.StartSpan(ctx, KindClient, "Calc.Add")
		sp.Annotate("binding", "rest")
		sp.EndErr(nil)
	})
	if allocs > 1 {
		t.Fatalf("span start/annotate/finish = %.1f allocs/op, want <= 1", allocs)
	}
}

func TestEventAllocCeiling(t *testing.T) {
	tr := NewTracer(64)
	tr.Event(SpanContext{}, KindCache, "warm", "", "")
	parent := SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID()}
	allocs := testing.AllocsPerRun(200, func() {
		tr.Event(parent, KindCache, "Calc.Add", "respcache", "hit")
	})
	if allocs > 0 {
		t.Fatalf("Event = %.1f allocs/op, want 0", allocs)
	}
}

func TestHeaderParseAllocCeiling(t *testing.T) {
	h := make(http.Header)
	h.Set(HeaderName, FormatTraceParent(SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID()}))
	allocs := testing.AllocsPerRun(200, func() {
		if _, ok := FromHTTPHeader(h); !ok {
			t.Fatal("parse failed")
		}
	})
	if allocs > 0 {
		t.Fatalf("FromHTTPHeader = %.1f allocs/op, want 0", allocs)
	}
}

func TestMetricsRecordAllocCeiling(t *testing.T) {
	m := NewMetrics()
	m.Record("Calc.Add", time.Millisecond, false)
	allocs := testing.AllocsPerRun(200, func() {
		m.Record("Calc.Add", time.Millisecond, false)
		m.RecordCached("Calc.Add")
	})
	if allocs > 0 {
		t.Fatalf("Record+RecordCached = %.1f allocs/op, want 0", allocs)
	}
}

// TestMetricsKeyMemoryCeiling prices a fresh operation key: its first
// Record allocates the key's one instrument block, whose histogram is
// 9,240 B, plus its share of the map's growth. A 10 % margin over the
// histogram leaves 924 B for the counters, the size-class round-up
// (9,256 B → 9,472 B) and the map; the block measures about 9.6 KB per
// key. A table that copied itself on every insert, or a block per core,
// pays a multiple of that.
func TestMetricsKeyMemoryCeiling(t *testing.T) {
	const keys = 500
	names := make([]string, keys)
	for i := range names {
		names[i] = fmt.Sprintf("Svc%d.Op", i)
	}
	m := NewMetrics()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, k := range names {
		m.Record(k, time.Millisecond, false)
	}
	runtime.ReadMemStats(&after)
	perKey := float64(after.TotalAlloc-before.TotalAlloc) / keys
	histBytes := reflect.TypeFor[Histogram]().Size()
	limit := 1.1 * float64(histBytes)
	if perKey > limit {
		t.Fatalf("a fresh metric key allocates %.0f B, ceiling %.0f B (1.1 × the %d B histogram)",
			perKey, limit, histBytes)
	}
	t.Logf("%.0f B per fresh key (ceiling %.0f B)", perKey, limit)
}
