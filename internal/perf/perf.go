// Package perf provides the performance metrics and measurement harness
// used throughout the course units on parallel and distributed computing:
// speedup, efficiency, work, cost, Amdahl's and Gustafson's laws, and a
// repetition-based timing harness that reports stable statistics.
//
// The definitions follow the standard ones taught in CSE445 unit 2
// ("Performance metrics: speedup, efficiency, work, cost, Amdahl's law").
package perf

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// ErrBadInput reports metric inputs outside their domain (e.g. zero
// processors or a negative duration).
var ErrBadInput = errors.New("perf: input out of domain")

// Speedup returns T1/Tp, the ratio of sequential to parallel execution time.
func Speedup(t1, tp time.Duration) (float64, error) {
	if t1 <= 0 || tp <= 0 {
		return 0, fmt.Errorf("%w: t1=%v tp=%v", ErrBadInput, t1, tp)
	}
	return float64(t1) / float64(tp), nil
}

// Efficiency returns Speedup/p, the per-processor utilization in [0, 1]
// for well-behaved programs (super-linear speedup can exceed 1).
func Efficiency(t1, tp time.Duration, p int) (float64, error) {
	if p <= 0 {
		return 0, fmt.Errorf("%w: p=%d", ErrBadInput, p)
	}
	s, err := Speedup(t1, tp)
	if err != nil {
		return 0, err
	}
	return s / float64(p), nil
}

// Work returns p*Tp, the processor-time product actually consumed (the
// course also calls it the cost of a parallel computation).
func Work(tp time.Duration, p int) (time.Duration, error) {
	if p <= 0 || tp <= 0 {
		return 0, fmt.Errorf("%w: p=%d tp=%v", ErrBadInput, p, tp)
	}
	return time.Duration(int64(tp) * int64(p)), nil
}

// Amdahl returns the speedup predicted by Amdahl's law for a program whose
// serial fraction is f (0 <= f <= 1) on p processors:
//
//	S(p) = 1 / (f + (1-f)/p)
func Amdahl(serialFraction float64, p int) (float64, error) {
	if serialFraction < 0 || serialFraction > 1 || p <= 0 {
		return 0, fmt.Errorf("%w: f=%v p=%d", ErrBadInput, serialFraction, p)
	}
	return 1 / (serialFraction + (1-serialFraction)/float64(p)), nil
}

// Gustafson returns the scaled speedup predicted by Gustafson's law:
//
//	S(p) = p - f*(p-1)
//
// where f is the serial fraction of the scaled workload.
func Gustafson(serialFraction float64, p int) (float64, error) {
	if serialFraction < 0 || serialFraction > 1 || p <= 0 {
		return 0, fmt.Errorf("%w: f=%v p=%d", ErrBadInput, serialFraction, p)
	}
	return float64(p) - serialFraction*float64(p-1), nil
}

// SerialFraction inverts Amdahl's law: given an observed speedup s on p
// processors it estimates the serial fraction (the Karp–Flatt metric).
func SerialFraction(speedup float64, p int) (float64, error) {
	if speedup <= 0 || p <= 1 {
		return 0, fmt.Errorf("%w: s=%v p=%d", ErrBadInput, speedup, p)
	}
	return (1/speedup - 1/float64(p)) / (1 - 1/float64(p)), nil
}

// Sample is one timed measurement.
type Sample struct {
	Elapsed time.Duration
}

// Stats summarizes repeated measurements of the same computation.
type Stats struct {
	N      int
	Min    time.Duration
	Max    time.Duration
	Mean   time.Duration
	Median time.Duration
	StdDev time.Duration
}

// Summarize computes order statistics over a set of samples.
func Summarize(samples []Sample) (Stats, error) {
	if len(samples) == 0 {
		return Stats{}, fmt.Errorf("%w: no samples", ErrBadInput)
	}
	ds := make([]time.Duration, len(samples))
	for i, s := range samples {
		ds[i] = s.Elapsed
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	var sum, sumSq float64
	for _, d := range ds {
		f := float64(d)
		sum += f
		sumSq += f * f
	}
	n := float64(len(ds))
	mean := sum / n
	variance := sumSq/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	med := ds[len(ds)/2]
	if len(ds)%2 == 0 {
		med = (ds[len(ds)/2-1] + ds[len(ds)/2]) / 2
	}
	return Stats{
		N:      len(ds),
		Min:    ds[0],
		Max:    ds[len(ds)-1],
		Mean:   time.Duration(mean),
		Median: med,
		StdDev: time.Duration(math.Sqrt(variance)),
	}, nil
}

// Measure times fn reps times and returns the summary statistics. The
// minimum is the conventional estimator for CPU-bound microbenchmarks; the
// median is robust for I/O-bound ones.
func Measure(reps int, fn func()) (Stats, error) {
	if reps <= 0 || fn == nil {
		return Stats{}, fmt.Errorf("%w: reps=%d", ErrBadInput, reps)
	}
	samples := make([]Sample, reps)
	for i := range samples {
		start := time.Now()
		fn()
		samples[i] = Sample{Elapsed: time.Since(start)}
	}
	return Summarize(samples)
}

// ScalingPoint is one row of a scaling study: the processor count with its
// measured time and the derived metrics relative to the 1-processor time.
type ScalingPoint struct {
	P          int
	Elapsed    time.Duration
	Speedup    float64
	Efficiency float64
}

// ScalingStudy derives speedup and efficiency for measured times at the
// given processor counts. times[i] corresponds to procs[i]; procs must
// include 1, which is used as the baseline.
func ScalingStudy(procs []int, times []time.Duration) ([]ScalingPoint, error) {
	if len(procs) == 0 || len(procs) != len(times) {
		return nil, fmt.Errorf("%w: %d procs vs %d times", ErrBadInput, len(procs), len(times))
	}
	var t1 time.Duration
	for i, p := range procs {
		if p == 1 {
			t1 = times[i]
		}
	}
	if t1 <= 0 {
		return nil, fmt.Errorf("%w: missing 1-processor baseline", ErrBadInput)
	}
	points := make([]ScalingPoint, len(procs))
	for i, p := range procs {
		s, err := Speedup(t1, times[i])
		if err != nil {
			return nil, err
		}
		e, err := Efficiency(t1, times[i], p)
		if err != nil {
			return nil, err
		}
		points[i] = ScalingPoint{P: p, Elapsed: times[i], Speedup: s, Efficiency: e}
	}
	return points, nil
}

// FormatScaling renders a scaling study as the kind of table Figure 3 of
// the paper plots: cores, time, speedup, efficiency.
func FormatScaling(points []ScalingPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%6s %14s %9s %11s\n", "cores", "time", "speedup", "efficiency")
	for _, pt := range points {
		fmt.Fprintf(&b, "%6d %14v %9.2f %10.1f%%\n", pt.P, pt.Elapsed.Round(time.Microsecond), pt.Speedup, pt.Efficiency*100)
	}
	return b.String()
}
