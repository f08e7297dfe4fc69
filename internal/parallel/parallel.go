// Package parallel is a Threading-Building-Blocks-style task parallelism
// substrate built on goroutines. It provides the abstractions CSE445 unit 2
// teaches — parallel loops with grain control, reductions, pipelines,
// fork-join task groups, futures that turn synchronous calls into
// asynchronous ones — together with the classic coordination primitives
// (counting semaphore, countdown event, cyclic barrier, bounded
// producer/consumer queue).
package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// ErrBadRange reports an invalid iteration space or grain size.
var ErrBadRange = errors.New("parallel: invalid range")

// Options configures the parallel loop primitives.
type Options struct {
	// Workers is the number of concurrent workers. Zero means GOMAXPROCS.
	Workers int
	// Grain is the minimum chunk of iterations given to a worker at a
	// time. Zero picks a heuristic chunk (range/(8*workers), at least 1).
	Grain int
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (o Options) grain(n, workers int) int {
	if o.Grain > 0 {
		return o.Grain
	}
	g := n / (8 * workers)
	if g < 1 {
		g = 1
	}
	return g
}

// For executes body(i) for every i in [lo, hi) using a dynamic
// (work-stealing-like) chunked schedule: workers repeatedly claim the next
// grain-sized chunk from a shared counter, which balances irregular
// iteration costs the way TBB's auto partitioner does. It is Reduce with
// nothing to fold.
func For(lo, hi int, body func(i int), opts Options) error {
	if body == nil {
		return fmt.Errorf("%w: nil body", ErrBadRange)
	}
	_, err := Reduce(lo, hi, struct{}{},
		func(i int) struct{} { body(i); return struct{}{} },
		func(struct{}, struct{}) struct{} { return struct{}{} }, opts)
	return err
}

// ForStatic executes body(i) for i in [lo, hi) with a static block
// partition: each worker gets one contiguous block, the dynamic schedule
// with a grain of a whole block. It mirrors the naive partitioning
// students implement first, and is the baseline against which the
// dynamic schedule's load balancing is measured.
func ForStatic(lo, hi int, body func(i int), opts Options) error {
	if n, w := hi-lo, opts.workers(); n > 0 {
		opts.Grain = (n + w - 1) / w
	}
	return For(lo, hi, body, opts)
}

// Reduce computes combine over map(i) for i in [lo, hi). Each worker folds
// its chunk locally starting from identity; partial results are combined at
// the end. combine must be associative, and commutative results require a
// commutative combine (chunk order is nondeterministic).
func Reduce[T any](lo, hi int, identity T, mapf func(i int) T, combine func(a, b T) T, opts Options) (T, error) {
	var zero T
	if mapf == nil || combine == nil {
		return zero, fmt.Errorf("%w: nil func", ErrBadRange)
	}
	if hi < lo {
		return zero, fmt.Errorf("%w: [%d,%d)", ErrBadRange, lo, hi)
	}
	n := hi - lo
	if n == 0 {
		return identity, nil
	}
	workers := opts.workers()
	if workers > n {
		workers = n
	}
	grain := opts.grain(n, workers)
	partials := make([]T, workers)
	var next int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			acc := identity
			for {
				start := int(atomic.AddInt64(&next, int64(grain))) - grain
				if start >= n {
					break
				}
				end := start + grain
				if end > n {
					end = n
				}
				for i := start; i < end; i++ {
					acc = combine(acc, mapf(lo+i))
				}
			}
			partials[w] = acc
		}(w)
	}
	wg.Wait()
	result := identity
	for _, p := range partials {
		result = combine(result, p)
	}
	return result, nil
}

// TaskGroup is a fork-join scope: Go spawns tasks (possibly recursively),
// Wait joins them all and returns the first error. A panicking task is
// recovered and reported as an error rather than crashing the process,
// matching the "dependable services" discipline of unit 6.
type TaskGroup struct {
	wg   sync.WaitGroup
	once sync.Once
	err  error
	sem  chan struct{} // nil means unlimited
}

// NewTaskGroup returns a TaskGroup that runs at most limit tasks
// concurrently; limit <= 0 means unlimited.
func NewTaskGroup(limit int) *TaskGroup {
	tg := &TaskGroup{}
	if limit > 0 {
		tg.sem = make(chan struct{}, limit)
	}
	return tg
}

// Go spawns fn as a task of the group.
func (g *TaskGroup) Go(fn func() error) {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		if g.sem != nil {
			g.sem <- struct{}{}
			defer func() { <-g.sem }()
		}
		defer func() {
			if r := recover(); r != nil {
				g.once.Do(func() { g.err = fmt.Errorf("parallel: task panic: %v", r) })
			}
		}()
		if err := fn(); err != nil {
			g.once.Do(func() { g.err = err })
		}
	}()
}

// Wait joins all spawned tasks and returns the first recorded error.
func (g *TaskGroup) Wait() error {
	g.wg.Wait()
	return g.err
}

// Future is the result of an asynchronous call: the TBB/TPL pattern of
// "turning synchronous calls into asynchronous calls" from the CSE445
// server-design project.
type Future[T any] struct {
	done chan struct{}
	val  T
	err  error
}

// Async runs fn in its own goroutine and returns a Future for its result.
func Async[T any](fn func() (T, error)) *Future[T] {
	f := &Future[T]{done: make(chan struct{})}
	go func() {
		defer close(f.done)
		defer func() {
			if r := recover(); r != nil {
				f.err = fmt.Errorf("parallel: async panic: %v", r)
			}
		}()
		f.val, f.err = fn()
	}()
	return f
}

// Get blocks until the result is available.
func (f *Future[T]) Get() (T, error) {
	<-f.done
	return f.val, f.err
}

// GetContext blocks until the result is available or ctx is done.
func (f *Future[T]) GetContext(ctx context.Context) (T, error) {
	select {
	case <-f.done:
		return f.val, f.err
	case <-ctx.Done():
		var zero T
		return zero, ctx.Err()
	}
}

// Done reports whether the result is ready without blocking.
func (f *Future[T]) Done() bool {
	select {
	case <-f.done:
		return true
	default:
		return false
	}
}
