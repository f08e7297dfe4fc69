package main

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"soc/internal/collatz"
	"soc/internal/parallel"
)

// tbbTour runs, on [lo, hi), each abstraction the paper's Intel TBB row
// maps onto internal/parallel — loops, fork-join, futures, pipelines —
// and the synchronization classes of the multithreading chapter.
func tbbTour(lo, hi, workers int) {
	ctx := context.Background()
	steps := func(i int) int {
		n, err := collatz.Steps(uint64(i))
		must(err)
		return n
	}
	var dynamic, static atomic.Int64
	must(parallel.For(lo, hi, func(i int) { dynamic.Add(int64(steps(i))) }, parallel.Options{Workers: workers}))
	must(parallel.ForStatic(lo, hi, func(i int) { static.Add(int64(steps(i))) }, parallel.Options{Workers: workers}))
	fmt.Printf("For (dynamic chunks) and ForStatic (one block per worker): %d and %d steps\n", dynamic.Load(), static.Load())

	// Fork-join over four quarters, two at a time; a future for the whole.
	var verified atomic.Uint64
	tg := parallel.NewTaskGroup(2)
	for k, q := 0, (hi-lo)/4; k < 4; k++ {
		tg.Go(func() error {
			r, err := collatz.ValidateSeq(uint64(lo+k*q), uint64(lo+(k+1)*q))
			verified.Add(r.Verified)
			return err
		})
	}
	must(tg.Wait())
	f := parallel.Async(func() (collatz.Result, error) { return collatz.ValidateSeq(uint64(lo), uint64(hi)) })
	ready := f.Done()
	r, err := f.GetContext(ctx)
	must(err)
	_, err = f.Get()
	must(err)
	fmt.Printf("TaskGroup: %d verified; Async (ready at once: %v): longest trajectory %d steps\n", verified.Load(), ready, r.MaxSteps)

	// A pipeline: trajectory lengths in parallel, then a serial stage.
	in := make([]int, 1000)
	for i := range in {
		in[i] = lo + i
	}
	p, err := parallel.NewPipeline(workers,
		parallel.Stage[int]{Name: "steps", Workers: workers, Fn: func(n int) (int, error) { return steps(n), nil }},
		parallel.Stage[int]{Name: "hundreds", Workers: 1, Fn: func(s int) (int, error) { return s / 100, nil }})
	must(err)
	out, err := p.Run(in)
	must(err)
	long := 0
	for _, h := range out {
		long += min(h, 1)
	}
	fmt.Printf("Pipeline: %d of %d numbers take 100 steps or more\n", long, len(out))

	// A semaphore, a countdown event, a barrier and a bounded queue, each
	// coordinating tasks of one group.
	sem, err := parallel.NewSemaphore(2)
	must(err)
	done, err := parallel.NewCountdownEvent(4)
	must(err)
	barrier, err := parallel.NewBarrier(2)
	must(err)
	queue, err := parallel.NewQueue[int](8)
	must(err)
	var peak, leaders, taken atomic.Int64
	g := parallel.NewTaskGroup(0)
	for k := 0; k < 4; k++ {
		g.Go(func() error {
			defer done.Signal()
			if err := sem.Acquire(ctx); err != nil {
				return err
			}
			defer sem.Release()
			for n := int64(sem.InUse()); ; {
				if p := peak.Load(); n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			_, err := collatz.ValidateSeq(uint64(lo), uint64(hi))
			return err
		})
	}
	for k := 0; k < 2; k++ {
		g.Go(func() error {
			for phase := 0; phase < 3; phase++ {
				leader, err := barrier.Await(ctx)
				if err != nil {
					return err
				}
				if leader {
					leaders.Add(1)
				}
			}
			return nil
		})
	}
	g.Go(func() error {
		defer queue.Close()
		for i := 0; i < 100; i++ {
			if err := queue.Put(i); err != nil {
				return err
			}
		}
		return nil
	})
	g.Go(func() error {
		for {
			if _, err := queue.Take(); errors.Is(err, parallel.ErrClosed) {
				return nil
			} else if err != nil {
				return err
			}
			taken.Add(1)
		}
	})
	must(done.Wait(ctx))
	must(g.Wait())
	fmt.Printf("Semaphore: at most %d of 2 permits in use, one free now: %v; CountdownEvent: %d left; Barrier: %d leaders; Queue: %d items\n",
		peak.Load(), sem.TryAcquire(), done.Remaining(), leaders.Load(), taken.Load())
}
