package telemetry

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"
)

func TestHistogramExactSmallValues(t *testing.T) {
	var h Histogram
	for d := time.Duration(0); d < 32; d++ {
		if got := bucketValue(bucketIndex(d)); got != d {
			t.Fatalf("small value %d mapped to %d", d, got)
		}
	}
	h.Record(7)
	if got := h.Quantile(1); got != 7 {
		t.Fatalf("Quantile(1) = %v, want 7ns", got)
	}
}

func TestHistogramQuantileError(t *testing.T) {
	// The representative value of any bucket must be within one
	// sub-bucket width (2^-histSubBits ≈ 3.1%) above the true sample.
	for _, d := range []time.Duration{
		123 * time.Nanosecond,
		456 * time.Microsecond,
		789 * time.Millisecond,
		12 * time.Second,
		17 * time.Minute,
	} {
		var h Histogram
		h.Record(d)
		got := h.Quantile(0.999)
		if got < d {
			t.Fatalf("quantile %v below sample %v", got, d)
		}
		if relErr := float64(got-d) / float64(d); relErr > 0.04 {
			t.Fatalf("quantile %v vs sample %v: relative error %.3f", got, d, relErr)
		}
	}
}

func TestHistogramQuantileOrdering(t *testing.T) {
	var h Histogram
	// 1000 samples at 1ms, 9 at 50ms, 1 at 500ms: p50 ~1ms, p99 within
	// the 1ms bulk, p99.9 must see the 50ms band, max the 500ms outlier.
	for i := 0; i < 1000; i++ {
		h.Record(time.Millisecond)
	}
	for i := 0; i < 9; i++ {
		h.Record(50 * time.Millisecond)
	}
	h.Record(500 * time.Millisecond)
	if p50 := h.Quantile(0.5); p50 > 2*time.Millisecond {
		t.Fatalf("p50 = %v, want ~1ms", p50)
	}
	if p999 := h.Quantile(0.999); p999 < 45*time.Millisecond {
		t.Fatalf("p99.9 = %v, want >= ~50ms", p999)
	}
	if max := h.Max(); max != 500*time.Millisecond {
		t.Fatalf("max = %v, want 500ms", max)
	}
	if n := h.count.Load(); n != 1010 {
		t.Fatalf("count = %d, want 1010", n)
	}
}

// TestHistogramQuantileNearestRank: with two samples the tail quantiles
// are the slow one — ranking by ⌊q·n⌋ used to answer p99 = 50µs here,
// although only half the samples were at or below it.
func TestHistogramQuantileNearestRank(t *testing.T) {
	var h Histogram
	h.Record(50 * time.Microsecond)
	h.Record(2 * time.Second)
	if p50 := h.Quantile(0.5); p50 < 50*time.Microsecond || p50 >= time.Millisecond {
		t.Fatalf("p50 = %v, want the 50µs sample's bucket", p50)
	}
	for _, q := range []float64{0.51, 0.9, 0.99, 1} {
		if got := h.Quantile(q); got < 2*time.Second {
			t.Fatalf("Quantile(%v) = %v, want at or above the 2s sample", q, got)
		}
	}
}

// TestHistogramQuantileProperty checks Quantile against the sorted
// samples it was fed: at least ⌈q·n⌉ samples are at or below the answer,
// and the answer is within one sub-bucket above the exact nearest-rank
// order statistic.
func TestHistogramQuantileProperty(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(3000)
		samples := make([]time.Duration, n)
		var h Histogram
		for i := range samples {
			// Log-uniform over 1ns..~9min, so every octave below the
			// saturating one is exercised.
			samples[i] = time.Duration(math.Exp(rng.Float64() * 27))
			h.Record(samples[i])
		}
		slices.Sort(samples)
		for _, q := range []float64{0.5, 0.9, 0.99, 0.999, 1} {
			got := h.Quantile(q)
			rank := int(math.Ceil(q * float64(n)))
			exact := samples[rank-1]
			atOrBelow, _ := slices.BinarySearch(samples, got+1)
			if atOrBelow < rank {
				t.Fatalf("seed %d n %d: Quantile(%v) = %v covers %d samples, want >= %d",
					seed, n, q, got, atOrBelow, rank)
			}
			if got < exact || got-exact > exact>>histSubBits {
				t.Fatalf("seed %d n %d: Quantile(%v) = %v, exact order statistic %v: more than one sub-bucket apart",
					seed, n, q, got, exact)
			}
		}
	}
}

func TestHistogramConcurrentRecord(t *testing.T) {
	var h Histogram
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Record(time.Duration(w+1) * time.Millisecond)
			}
		}(w)
	}
	wg.Wait()
	if n := h.count.Load(); n != workers*per {
		t.Fatalf("count = %d, want %d", n, workers*per)
	}
	if max := h.Max(); max != workers*time.Millisecond {
		t.Fatalf("max = %v, want %v", max, workers*time.Millisecond)
	}
}
