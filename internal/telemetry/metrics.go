package telemetry

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// OpMetrics is the counter set of one operation: calls, errors, total
// handler time — and a cache-hit counter kept apart from the latency
// instruments, so zero-cost cached answers never skew the mean or the
// percentiles that quality scoring reads.
type OpMetrics struct {
	Calls     uint64
	Errors    uint64
	CacheHits uint64
	TotalTime time.Duration
}

// MeanTime is the average handler latency over real (uncached) calls.
func (m OpMetrics) MeanTime() time.Duration {
	if m.Calls == 0 {
		return 0
	}
	return m.TotalTime / time.Duration(m.Calls)
}

// opStripe is one stripe of an operation's instruments: the error and
// cache-hit counters, then the latency histogram whose count and sum are
// the call counter and total handler time. Every field is atomic: the
// record path takes no lock at all. The ~9 KB of buckets keep the hot
// head of one stripe off the next stripe's (the tail buckets, ~minutes,
// are never touched), so no padding is needed.
type opStripe struct {
	errors    atomic.Uint64
	cacheHits atomic.Uint64
	latency   Histogram
}

// stripedOp is the live instrument block of one operation: counters
// striped so concurrent recorders on different cores touch different
// cache lines. Snapshot sums the stripes' counters; Report also merges
// their histograms.
type stripedOp struct {
	stripes []opStripe
}

func (o *stripedOp) sum() OpMetrics {
	var out OpMetrics
	for i := range o.stripes {
		s := &o.stripes[i]
		out.Calls += s.latency.count.Load()
		out.Errors += s.errors.Load()
		out.CacheHits += s.cacheHits.Load()
		out.TotalTime += time.Duration(s.latency.sum.Load())
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
	s.latency.Record(d)
	if failed {
		s.errors.Add(1)
	}
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

// opReport is one operation's entry in a MetricsReport. The counters and
// the mean are exact; the percentiles are nearest-rank, reported as the
// upper bound of their histogram bucket (at most 2^-5 high).
type opReport struct {
	Calls     uint64 `json:"calls"`
	Errors    uint64 `json:"errors"`
	CacheHits uint64 `json:"cacheHits"`
	MeanNanos int64  `json:"meanNanos"`
	P50Nanos  int64  `json:"p50Nanos"`
	P99Nanos  int64  `json:"p99Nanos"`
	MaxNanos  int64  `json:"maxNanos"`
}

// MetricsReport is the GET /metricz document, the one shape the host and
// the front door both serve.
type MetricsReport struct {
	Operations map[string]opReport `json:"operations"`
}

// Report renders the instrument set as the /metricz document, merging
// each operation's stripes into one histogram for its percentiles.
func (x *Metrics) Report() MetricsReport {
	m := *x.m.Load()
	report := MetricsReport{Operations: make(map[string]opReport, len(m))}
	for key, o := range m {
		var lat Histogram
		for i := range o.stripes {
			lat.merge(&o.stripes[i].latency)
		}
		om := o.sum()
		report.Operations[key] = opReport{
			Calls:     om.Calls,
			Errors:    om.Errors,
			CacheHits: om.CacheHits,
			MeanNanos: int64(om.MeanTime()),
			P50Nanos:  int64(lat.Quantile(0.50)),
			P99Nanos:  int64(lat.Quantile(0.99)),
			MaxNanos:  int64(lat.Max()),
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
