package telemetry

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// BucketBounds are the latency histogram upper bounds; a final implicit
// +Inf bucket catches the rest. Exposed so /metricz consumers can label
// the buckets.
var BucketBounds = [...]time.Duration{
	100 * time.Microsecond,
	time.Millisecond,
	10 * time.Millisecond,
	100 * time.Millisecond,
	time.Second,
}

// NumBuckets is the histogram length (BucketBounds plus +Inf).
const NumBuckets = len(BucketBounds) + 1

// OpMetrics is the instrument set of one operation: call/error counters,
// total handler time, the latency histogram — and a cache-hit counter
// kept apart from the latency instruments, so zero-cost cached answers
// never skew the mean or histogram that quality scoring reads.
type OpMetrics struct {
	Calls     uint64
	Errors    uint64
	CacheHits uint64
	TotalTime time.Duration
	Buckets   [NumBuckets]uint64
}

// MeanTime is the average handler latency over real (uncached) calls.
func (m OpMetrics) MeanTime() time.Duration {
	if m.Calls == 0 {
		return 0
	}
	return m.TotalTime / time.Duration(m.Calls)
}

// opStripe is one cache-line-padded stripe of an operation's counters.
// Every field is atomic: the record path takes no lock at all.
type opStripe struct {
	calls     atomic.Uint64
	errors    atomic.Uint64
	cacheHits atomic.Uint64
	totalTime atomic.Int64
	buckets   [NumBuckets]atomic.Uint64
	_         [48]byte // pad to 128 B so stripes don't share cache lines
}

// stripedOp is the live instrument block of one operation: counters
// striped so concurrent recorders on different cores touch different
// cache lines. Snapshot sums the stripes.
type stripedOp struct {
	stripes []opStripe
}

func (o *stripedOp) sum() OpMetrics {
	var out OpMetrics
	for i := range o.stripes {
		s := &o.stripes[i]
		out.Calls += s.calls.Load()
		out.Errors += s.errors.Load()
		out.CacheHits += s.cacheHits.Load()
		out.TotalTime += time.Duration(s.totalTime.Load())
		for b := range s.buckets {
			out.Buckets[b] += s.buckets[b].Load()
		}
	}
	return out
}

// stripeToken carries a stripe index between Record calls via a sync.Pool
// — per-P pools make the token a cheap core-affine stripe hint.
type stripeToken struct{ idx uint32 }

// Metrics is a concurrency-safe registry of per-operation instruments
// keyed "Service.Operation" — the single instrument set shared by host
// metrics, /metricz and the trace plane. The hot record path is
// lock-free: an RCU-style atomic map resolves the key, and the counters
// are striped atomics. The mutex guards only first-time key insertion
// and map replacement.
type Metrics struct {
	mu      sync.Mutex
	m       atomic.Pointer[map[string]*stripedOp]
	stripes int
	tokens  sync.Pool
	tokSeq  atomic.Uint32
}

// metricsStripes picks the per-op stripe count: one per core, power of
// two, capped at 8. A single-core box gets one stripe and skips token
// dispatch entirely.
func metricsStripes() int {
	n := 1
	for n*2 <= runtime.NumCPU() && n < 8 {
		n *= 2
	}
	return n
}

// NewMetrics returns an empty instrument set.
func NewMetrics() *Metrics {
	x := &Metrics{stripes: metricsStripes()}
	m := make(map[string]*stripedOp)
	x.m.Store(&m)
	x.tokens.New = func() any {
		return &stripeToken{idx: x.tokSeq.Add(1) % uint32(x.stripes)}
	}
	return x
}

// stripe picks the stripe to record on. With one stripe (single-core)
// it's free; otherwise a pooled token supplies a core-affine index.
func (x *Metrics) stripe(o *stripedOp) *opStripe {
	if x.stripes == 1 {
		return &o.stripes[0]
	}
	tok := x.tokens.Get().(*stripeToken)
	s := &o.stripes[tok.idx]
	x.tokens.Put(tok)
	return s
}

// get resolves (or lazily creates) the instrument block for key. The
// fast path is one atomic load and a map read; insertion copies the map
// under the mutex and swings the pointer (RCU), so readers never block.
func (x *Metrics) get(key string) *stripedOp {
	if om, ok := (*x.m.Load())[key]; ok {
		return om
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	old := *x.m.Load()
	if om, ok := old[key]; ok {
		return om
	}
	om := &stripedOp{stripes: make([]opStripe, x.stripes)}
	next := make(map[string]*stripedOp, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[key] = om
	x.m.Store(&next)
	return om
}

// Record folds one real (handler-executed) call into the instruments.
func (x *Metrics) Record(key string, d time.Duration, failed bool) {
	s := x.stripe(x.get(key))
	s.calls.Add(1)
	s.totalTime.Add(int64(d))
	if failed {
		s.errors.Add(1)
	}
	i := 0
	for i < len(BucketBounds) && d > BucketBounds[i] {
		i++
	}
	s.buckets[i].Add(1)
}

// RecordCached counts a response served from the idempotent-response
// cache. Deliberately not folded into Calls, TotalTime or the histogram:
// a cached answer says nothing about handler latency, and counting its
// ~zero duration would flatter every latency-derived quality score.
func (x *Metrics) RecordCached(key string) {
	x.stripe(x.get(key)).cacheHits.Add(1)
}

// Snapshot copies the instrument set. Counters are summed per key with
// atomic loads; a snapshot taken while recorders are in flight is a
// monotone cut, not a single instant.
func (x *Metrics) Snapshot() map[string]OpMetrics {
	m := *x.m.Load()
	out := make(map[string]OpMetrics, len(m))
	for k, v := range m {
		out[k] = v.sum()
	}
	return out
}

// opReport is one operation's entry in a MetricsReport.
type opReport struct {
	Calls     uint64   `json:"calls"`
	Errors    uint64   `json:"errors"`
	CacheHits uint64   `json:"cacheHits"`
	MeanNanos int64    `json:"meanNanos"`
	Histogram []uint64 `json:"histogram"`
}

// MetricsReport is the GET /metricz document, the one shape the host and
// the front door both serve: the instrument set plus the shared
// histogram bucket bounds.
type MetricsReport struct {
	BucketBoundsNanos []int64             `json:"bucketBoundsNanos"`
	Operations        map[string]opReport `json:"operations"`
}

// Report renders a Snapshot as the /metricz document.
func (x *Metrics) Report() MetricsReport {
	snap := x.Snapshot()
	report := MetricsReport{
		BucketBoundsNanos: make([]int64, len(BucketBounds)),
		Operations:        make(map[string]opReport, len(snap)),
	}
	for i, b := range BucketBounds {
		report.BucketBoundsNanos[i] = int64(b)
	}
	for key, om := range snap {
		report.Operations[key] = opReport{
			Calls:     om.Calls,
			Errors:    om.Errors,
			CacheHits: om.CacheHits,
			MeanNanos: int64(om.MeanTime()),
			Histogram: append([]uint64(nil), om.Buckets[:]...),
		}
	}
	return report
}

// Keys returns the sorted operation keys with any recorded activity.
func (x *Metrics) Keys() []string {
	m := *x.m.Load()
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
