package telemetry

import (
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

// opBlock is the live instrument block of one operation: the error and
// cache-hit counters, then the latency histogram whose count and sum are
// the call counter and total handler time. Every field is atomic, so
// recording into a block takes no lock once its key is resolved.
type opBlock struct {
	errors    atomic.Uint64
	cacheHits atomic.Uint64
	latency   Histogram
}

func (o *opBlock) sum() OpMetrics {
	return OpMetrics{
		Calls:     o.latency.count.Load(),
		Errors:    o.errors.Load(),
		CacheHits: o.cacheHits.Load(),
		TotalTime: time.Duration(o.latency.sum.Load()),
	}
}

// Metrics is a concurrency-safe registry of per-operation instruments
// keyed "Service.Operation" — the single instrument set shared by host
// metrics, /metricz and the trace plane. A key resolves under the read
// lock; only a key's first record takes the write lock to insert its
// block.
type Metrics struct {
	mu sync.RWMutex
	m  map[string]*opBlock
}

// NewMetrics returns an empty instrument set.
func NewMetrics() *Metrics {
	return &Metrics{m: make(map[string]*opBlock)}
}

// get resolves (or lazily creates) the instrument block for key.
func (x *Metrics) get(key string) *opBlock {
	x.mu.RLock()
	om, ok := x.m[key]
	x.mu.RUnlock()
	if ok {
		return om
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	if om, ok := x.m[key]; ok {
		return om
	}
	om = &opBlock{}
	x.m[key] = om
	return om
}

// Record folds one real (handler-executed) call into the instruments.
func (x *Metrics) Record(key string, d time.Duration, failed bool) {
	om := x.get(key)
	om.latency.Record(d)
	if failed {
		om.errors.Add(1)
	}
}

// RecordCached counts a response served from the idempotent-response
// cache. Deliberately not folded into Calls, TotalTime or the histogram:
// a cached answer says nothing about handler latency, and counting its
// ~zero duration would flatter every latency-derived quality score.
func (x *Metrics) RecordCached(key string) {
	x.get(key).cacheHits.Add(1)
}

// Snapshot copies the instrument set. Counters are read per key with
// atomic loads; a snapshot taken while recorders are in flight is a
// monotone cut, not a single instant.
func (x *Metrics) Snapshot() map[string]OpMetrics {
	x.mu.RLock()
	defer x.mu.RUnlock()
	out := make(map[string]OpMetrics, len(x.m))
	for k, v := range x.m {
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

// Report renders the instrument set as the /metricz document, the
// percentiles read from each operation's histogram.
func (x *Metrics) Report() MetricsReport {
	x.mu.RLock()
	defer x.mu.RUnlock()
	report := MetricsReport{Operations: make(map[string]opReport, len(x.m))}
	for key, o := range x.m {
		om := o.sum()
		report.Operations[key] = opReport{
			Calls:     om.Calls,
			Errors:    om.Errors,
			CacheHits: om.CacheHits,
			MeanNanos: int64(om.MeanTime()),
			P50Nanos:  int64(o.latency.Quantile(0.50)),
			P99Nanos:  int64(o.latency.Quantile(0.99)),
			MaxNanos:  int64(o.latency.Max()),
		}
	}
	return report
}
