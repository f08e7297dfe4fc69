package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// system is one assembled stack under test, built only from the module's
// public constructors.
type system interface {
	// do performs client c's i-th operation through the real SDK and
	// checks the answer; a wrong answer is an error like any other.
	do(ctx context.Context, c, i int) error
	// settle runs the checks a workload defers until the load has stopped.
	settle() error
	// restart brings the system down and back to ready, verifies that what
	// it acknowledged is still there, and reports the time to ready.
	restart() (time.Duration, error)
	// counts reads the stack's public counters (cumulative).
	counts() map[string]float64
	close() error
}

// driver runs closed-loop load phases against one system: each client sends
// its next operation only when the previous one has answered. Closed, not
// open, because the stack's callers are service-to-service compositions
// that wait for a reply — and because at microsecond service times an
// open-loop pacer measures its own timer, not the stack.
type driver struct {
	sys     system
	clients int
	next    []int // each client's next op index; phases continue the sequence
	errs    []string
}

func newDriver(sys system, clients int) *driver {
	return &driver{sys: sys, clients: clients, next: make([]int, clients)}
}

// phase is what one load phase measured besides its samples.
type phase struct {
	phaseStats
	mallocs, bytes uint64
	cpu            time.Duration
	// cpuPerOp is CPU time per operation over each window-long stretch of
	// the phase, in nanoseconds.
	cpuPerOp []float64
}

// cpuMark is the process's CPU time, read at a moment of the phase.
type cpuMark struct{ at, cpu time.Duration }

// run drives the clients for d, or — when perClient > 0 — until each has
// done exactly perClient operations.
func (dr *driver) run(ctx context.Context, d time.Duration, perClient int, window time.Duration) (phase, error) {
	capacity := perClient
	if capacity == 0 {
		capacity = int(d.Seconds()*400000) + 1024 // 2.5 µs per op per client would fill it
	}
	bufs := make([]*sampleBuf, dr.clients)
	for c := range bufs {
		b, err := newSampleBuf(capacity)
		if err != nil {
			return phase{}, err
		}
		defer b.free() //soclint:ignore errdiscard unmapping scratch memory at exit has no failure the run could act on
		bufs[c] = b
	}
	failed := make([]int, dr.clients)
	firstErr := make([]error, dr.clients)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	cpu0 := cpuTime()
	start := time.Now()
	// A sampler reads the CPU clock once per window, so that CPU time per op
	// can be taken per window like the other timings.
	var (
		marks   []cpuMark
		stop    = make(chan struct{})
		sampler sync.WaitGroup
	)
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		tick := time.NewTicker(window)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				marks = append(marks, cpuMark{at: time.Since(start), cpu: cpuTime() - cpu0})
			case <-stop:
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for c := 0; c < dr.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			i, done := dr.next[c], 0
			t0 := time.Since(start)
			for {
				if perClient > 0 {
					if done == perClient {
						break
					}
				} else if t0 >= d {
					break
				}
				err := dr.sys.do(ctx, c, i)
				t1 := time.Since(start)
				switch {
				case err != nil:
					failed[c]++
					if firstErr[c] == nil {
						firstErr[c] = err
					}
				case !bufs[c].add(t1, t1-t0):
					failed[c]++
					if firstErr[c] == nil {
						firstErr[c] = fmt.Errorf("sample buffer of %d full", capacity)
					}
				}
				t0 = t1
				i++
				done++
			}
			dr.next[c] = i
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	cpu := cpuTime() - cpu0
	close(stop)
	sampler.Wait()
	runtime.ReadMemStats(&after)

	totalFailed := 0
	for c, n := range failed {
		totalFailed += n
		if firstErr[c] != nil {
			dr.errs = append(dr.errs, fmt.Sprintf("client %d: %d failed, first: %v", c, n, firstErr[c]))
		}
	}
	p := phase{
		phaseStats: summarize(bufs, totalFailed, elapsed, window),
		mallocs:    after.Mallocs - before.Mallocs,
		bytes:      after.TotalAlloc - before.TotalAlloc,
		cpu:        cpu,
		cpuPerOp:   cpuPerOp(bufs, marks),
	}
	return p, dr.sys.settle()
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
