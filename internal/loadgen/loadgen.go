// Package loadgen is an open-loop, coordinated-omission-safe load
// generator for the service stack. Arrivals follow a fixed schedule
// derived from the offered rate — they do not wait for responses — and
// every latency sample is measured from the request's *scheduled*
// arrival time, not the instant a worker got around to issuing it. A
// server stall therefore shows up as tail latency on the samples queued
// behind it, instead of silently reducing the number of requests sent
// (the coordinated-omission trap closed-loop "do; measure; repeat"
// harnesses fall into; see the HdrHistogram literature).
//
// All time flows through the context's vtime.Clock, so the same runner
// drives live hosts on the wall clock and deterministic in-process
// scenarios on a virtual clock — a virtual run of a two-minute schedule
// completes in microseconds and replays identically, which is how the
// harness's own CO-safety is tested.
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"soc/internal/telemetry"
	"soc/internal/vtime"
)

// ErrConfig reports an invalid load configuration.
var ErrConfig = errors.New("loadgen: invalid configuration")

// ErrShed marks a request the server refused under backpressure (a
// load-shed 503). Ops return it — or an error wrapping it — so the
// harness reports sheds as their own outcome class: a server protecting
// itself is not failing, and folding sheds into the error count would
// hide exactly the behavior admission control exists to produce.
var ErrShed = errors.New("loadgen: request shed")

// Op issues one request. The error marks the sample as failed; the
// sample is recorded either way.
type Op func(ctx context.Context) error

// Config shapes one load run.
type Config struct {
	// Rate is the offered arrival rate in requests per second. The
	// schedule is fixed up front: request i is due at start + i/Rate,
	// regardless of how the server is doing.
	Rate float64
	// Duration is the schedule horizon; Rate*Duration arrivals total.
	Duration time.Duration
	// Workers bounds in-flight requests (0 means 8*GOMAXPROCS). On a
	// virtual clock (a *vtime.Virtual in the context) the run is forced
	// single-worker so it stays deterministic.
	Workers int
}

// Result summarizes one run.
type Result struct {
	// Scheduled is the number of arrivals in the schedule; Issued is how
	// many were actually sent (== Scheduled unless the context was
	// canceled). An open-loop harness keeps Issued at Scheduled even
	// when the server stalls — the stall surfaces in the tail quantiles
	// instead.
	Scheduled int
	Issued    int
	// Errors counts ops that returned an error; Shed counts ops the
	// server refused under backpressure (errors wrapping ErrShed), kept
	// apart from Errors because a deliberate 503 is the admission
	// control working, not the workload failing.
	Errors int
	Shed   int
	// Elapsed is the clock time from first scheduled arrival to last
	// completion.
	Elapsed time.Duration
	// OfferedRate is Rate as configured; AchievedRate is Issued/Elapsed.
	OfferedRate  float64
	AchievedRate float64
	// Latency is measured from each request's scheduled arrival time.
	Latency *telemetry.Histogram
}

// Run executes the schedule on the context's clock (vtime.ClockFrom)
// and blocks until every arrival has been issued and completed (or ctx
// is canceled, which abandons the remainder but reports what was
// measured). Ops receive ctx, so they share that clock.
func Run(ctx context.Context, cfg Config, op Op) (*Result, error) {
	if cfg.Rate <= 0 || cfg.Duration <= 0 {
		return nil, fmt.Errorf("%w: rate=%v duration=%v", ErrConfig, cfg.Rate, cfg.Duration)
	}
	if op == nil {
		return nil, fmt.Errorf("%w: nil op", ErrConfig)
	}
	clock := vtime.ClockFrom(ctx)
	n := int(cfg.Rate * cfg.Duration.Seconds())
	if n < 1 {
		n = 1
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = 8 * runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if _, virtual := clock.(*vtime.Virtual); virtual {
		// A virtual clock advances inside Sleep; racing workers would
		// advance it non-deterministically.
		workers = 1
	}

	res := &Result{Scheduled: n, OfferedRate: cfg.Rate, Latency: &telemetry.Histogram{}}
	start := clock.Now()
	var (
		next   atomic.Int64
		issued atomic.Int64
		errs   atomic.Int64
		sheds  atomic.Int64
		wg     sync.WaitGroup
	)
	// arrivalOffset is the fixed open-loop schedule: request i is due at
	// start + i/Rate, computed — never accumulated — so rounding error
	// does not drift across a long run.
	arrivalOffset := func(i int64) time.Duration {
		return time.Duration(float64(i) / cfg.Rate * float64(time.Second))
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(n) || ctx.Err() != nil {
					return
				}
				due := start.Add(arrivalOffset(i))
				if wait := due.Sub(clock.Now()); wait > 0 {
					if err := clock.Sleep(ctx, wait); err != nil {
						return
					}
				}
				err := op(ctx)
				// Latency from the scheduled arrival: if every worker
				// was stuck behind a stalled server, `due` is in the
				// past and the queueing delay lands in the sample.
				res.Latency.Record(clock.Now().Sub(due))
				issued.Add(1)
				switch {
				case err == nil:
				case errors.Is(err, ErrShed):
					sheds.Add(1)
				default:
					errs.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	res.Issued = int(issued.Load())
	res.Errors = int(errs.Load())
	res.Shed = int(sheds.Load())
	res.Elapsed = clock.Now().Sub(start)
	if s := res.Elapsed.Seconds(); s > 0 {
		res.AchievedRate = float64(res.Issued) / s
	}
	if err := ctx.Err(); err != nil {
		return res, err
	}
	return res, nil
}

// OK is the successful-response count: issued minus errors minus sheds.
func (r *Result) OK() int { return r.Issued - r.Errors - r.Shed }

// GoodputRate is successful responses per second of elapsed time — the
// number a saturation study compares, since a stalling server can keep
// "achieving" its issue rate while serving almost nothing.
func (r *Result) GoodputRate() float64 {
	if s := r.Elapsed.Seconds(); s > 0 {
		return float64(r.OK()) / s
	}
	return 0
}

// ShedRate is shed responses per second of elapsed time.
func (r *Result) ShedRate() float64 {
	if s := r.Elapsed.Seconds(); s > 0 {
		return float64(r.Shed) / s
	}
	return 0
}

// Format renders the result as the human-readable report socload prints.
func (r *Result) Format(w io.Writer) {
	fmt.Fprintf(w, "scheduled %d  issued %d  ok %d  errors %d  shed %d  elapsed %v\n",
		r.Scheduled, r.Issued, r.OK(), r.Errors, r.Shed, r.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(w, "offered %.1f req/s  achieved %.1f req/s  goodput %.1f req/s  shed %.1f req/s\n",
		r.OfferedRate, r.AchievedRate, r.GoodputRate(), r.ShedRate())
	fmt.Fprintf(w, "latency (from scheduled arrival): p50 %v  p99 %v  p99.9 %v  max %v  mean %v\n",
		r.Latency.Quantile(0.50), r.Latency.Quantile(0.99),
		r.Latency.Quantile(0.999), r.Latency.Max(), r.Latency.Mean())
}
