package telemetry

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// histSubBits sets the sub-bucket resolution of the latency histogram:
// each power-of-two octave is split into 2^histSubBits linear
// sub-buckets, bounding the relative quantile error at 2^-histSubBits
// (~3% at 5 bits) — the HDR-histogram layout, sized for atomics instead
// of a library dependency.
const histSubBits = 5

// histBuckets covers 1ns up to ~2^40 ns (~18 minutes) at full
// resolution; anything slower saturates into the last bucket.
const histBuckets = (41 - histSubBits) << histSubBits

// Histogram is a fixed-size log-bucketed latency histogram safe for
// concurrent recording: every Record is three atomic adds and a CAS-free
// max update, so the measurement plane never becomes the convoy it is
// trying to observe. It is the one latency distribution in the tree —
// loadgen's open-loop samples and every /metricz operation. The zero value
// is ready to use; it holds no pointers.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [histBuckets]atomic.Uint64
}

// bucketIndex maps a duration to its bucket. Durations below
// 2^histSubBits ns are exact; above that, the top histSubBits bits after
// the leading one select the sub-bucket within the octave.
func bucketIndex(d time.Duration) int {
	ns := uint64(d)
	if d < 0 {
		ns = 0
	}
	exp := bits.Len64(ns) // 0..64
	if exp <= histSubBits {
		return int(ns)
	}
	mant := (ns >> (uint(exp) - histSubBits - 1)) &^ (1 << histSubBits)
	idx := (exp-histSubBits)<<histSubBits | int(mant)
	if idx >= histBuckets {
		return histBuckets - 1
	}
	return idx
}

// bucketValue returns the representative (upper-bound) duration of a
// bucket, the inverse of bucketIndex up to sub-bucket width.
func bucketValue(idx int) time.Duration {
	if idx < 1<<histSubBits {
		return time.Duration(idx)
	}
	exp := uint(idx>>histSubBits) + histSubBits - 1
	mant := uint64(idx&(1<<histSubBits-1)) | 1<<histSubBits
	return time.Duration((mant + 1) << (exp - histSubBits))
}

// Record folds one latency sample into the histogram.
func (h *Histogram) Record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.buckets[bucketIndex(d)].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
	h.raiseMax(int64(d))
}

// raiseMax lifts the recorded maximum to v if v is larger.
func (h *Histogram) raiseMax(v int64) {
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Max returns the largest recorded sample.
func (h *Histogram) Max() time.Duration { return time.Duration(h.max.Load()) }

// Mean returns the arithmetic mean of recorded samples (0 when empty).
func (h *Histogram) Mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(uint64(h.sum.Load()) / n)
}

// Quantile returns the q-quantile (0 < q <= 1) as the upper bound of the
// bucket holding the nearest-rank sample, the ⌈q·count⌉-th smallest — so
// Quantile(0.99) reads "99% of samples were at or below this". Returns 0
// on an empty histogram. Concurrent Records move the answer but never
// corrupt it: each bucket is read once, atomically.
func (h *Histogram) Quantile(q float64) time.Duration {
	n := h.count.Load()
	if n == 0 || q <= 0 {
		return 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(math.Ceil(q * float64(n)))
	var seen uint64
	for i := range h.buckets {
		if c := h.buckets[i].Load(); c > 0 {
			seen += c
			if seen >= target {
				return bucketValue(i)
			}
		}
	}
	return h.Max()
}
