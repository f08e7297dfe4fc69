package parallel

import (
	"context"
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestForCoversRange(t *testing.T) {
	const n = 1000
	var hits [n]int32
	err := For(0, n, func(i int) { atomic.AddInt32(&hits[i], 1) }, Options{Workers: 4})
	if err != nil {
		t.Fatalf("For: %v", err)
	}
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d visited %d times", i, h)
		}
	}
}

func TestForOffsetRange(t *testing.T) {
	var sum int64
	err := For(10, 20, func(i int) { atomic.AddInt64(&sum, int64(i)) }, Options{Workers: 3, Grain: 2})
	if err != nil {
		t.Fatalf("For: %v", err)
	}
	if sum != 145 { // 10+11+...+19
		t.Errorf("sum = %d, want 145", sum)
	}
}

func TestForEmptyAndInvalid(t *testing.T) {
	if err := For(5, 5, func(int) { t.Error("body called on empty range") }, Options{}); err != nil {
		t.Errorf("empty range: %v", err)
	}
	if err := For(5, 4, func(int) {}, Options{}); err == nil {
		t.Error("reversed range accepted")
	}
	if err := For(0, 1, nil, Options{}); err == nil {
		t.Error("nil body accepted")
	}
}

func TestForStaticCoversRange(t *testing.T) {
	const n = 777
	var hits [n]int32
	err := ForStatic(0, n, func(i int) { atomic.AddInt32(&hits[i], 1) }, Options{Workers: 5})
	if err != nil {
		t.Fatalf("ForStatic: %v", err)
	}
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d visited %d times", i, h)
		}
	}
}

func TestForStaticMoreWorkersThanWork(t *testing.T) {
	var count int32
	err := ForStatic(0, 3, func(int) { atomic.AddInt32(&count, 1) }, Options{Workers: 64})
	if err != nil || count != 3 {
		t.Errorf("count=%d err=%v", count, err)
	}
}

func TestForCoverageProperty(t *testing.T) {
	prop := func(nRaw uint8, wRaw, gRaw uint8) bool {
		n := int(nRaw)
		var visited sync.Map
		err := For(0, n, func(i int) { visited.Store(i, true) },
			Options{Workers: int(wRaw%8) + 1, Grain: int(gRaw % 16)})
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			if _, ok := visited.Load(i); !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestReduceSum(t *testing.T) {
	got, err := Reduce(1, 101, 0,
		func(i int) int { return i },
		func(a, b int) int { return a + b },
		Options{Workers: 4, Grain: 7})
	if err != nil {
		t.Fatalf("Reduce: %v", err)
	}
	if got != 5050 {
		t.Errorf("sum = %d, want 5050", got)
	}
}

func TestReduceEmptyReturnsIdentity(t *testing.T) {
	got, err := Reduce(3, 3, 42, func(int) int { return 0 }, func(a, b int) int { return a + b }, Options{})
	if err != nil || got != 42 {
		t.Errorf("got %d err=%v, want identity 42", got, err)
	}
}

func TestReduceMatchesSequentialProperty(t *testing.T) {
	prop := func(nRaw uint8) bool {
		n := int(nRaw)
		seq := 0
		for i := 0; i < n; i++ {
			seq += i * i
		}
		par, err := Reduce(0, n, 0,
			func(i int) int { return i * i },
			func(a, b int) int { return a + b }, Options{Workers: 3})
		return err == nil && par == seq
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestTaskGroupJoinsAll(t *testing.T) {
	tg := NewTaskGroup(0)
	var count int32
	for i := 0; i < 50; i++ {
		tg.Go(func() error { atomic.AddInt32(&count, 1); return nil })
	}
	if err := tg.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if count != 50 {
		t.Errorf("count = %d, want 50", count)
	}
}

func TestTaskGroupReportsError(t *testing.T) {
	tg := NewTaskGroup(2)
	sentinel := errors.New("boom")
	tg.Go(func() error { return nil })
	tg.Go(func() error { return sentinel })
	if err := tg.Wait(); !errors.Is(err, sentinel) {
		t.Errorf("Wait = %v, want %v", err, sentinel)
	}
}

func TestTaskGroupRecoversPanic(t *testing.T) {
	tg := NewTaskGroup(0)
	tg.Go(func() error { panic("kaboom") })
	err := tg.Wait()
	if err == nil {
		t.Fatal("panic not reported")
	}
}

func TestTaskGroupLimit(t *testing.T) {
	tg := NewTaskGroup(2)
	var inFlight, peak int32
	for i := 0; i < 20; i++ {
		tg.Go(func() error {
			cur := atomic.AddInt32(&inFlight, 1)
			for {
				p := atomic.LoadInt32(&peak)
				if cur <= p || atomic.CompareAndSwapInt32(&peak, p, cur) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			atomic.AddInt32(&inFlight, -1)
			return nil
		})
	}
	if err := tg.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if peak > 2 {
		t.Errorf("peak concurrency %d exceeds limit 2", peak)
	}
}

func TestTaskGroupRecursiveSpawn(t *testing.T) {
	// Fork-join fib, the canonical recursive task-spawning exercise.
	var fib func(g *TaskGroup, n int, out *atomic.Int64)
	fib = func(g *TaskGroup, n int, out *atomic.Int64) {
		if n < 2 {
			out.Add(int64(n))
			return
		}
		inner := NewTaskGroup(0)
		inner.Go(func() error { fib(inner, n-1, out); return nil })
		inner.Go(func() error { fib(inner, n-2, out); return nil })
		if err := inner.Wait(); err != nil {
			panic(err)
		}
	}
	var result atomic.Int64
	g := NewTaskGroup(0)
	g.Go(func() error { fib(g, 10, &result); return nil })
	if err := g.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if got := result.Load(); got != 55 {
		t.Errorf("fib(10) = %d, want 55", got)
	}
}

func TestFutureGet(t *testing.T) {
	f := Async(func() (int, error) { return 7, nil })
	v, err := f.Get()
	if err != nil || v != 7 {
		t.Errorf("Get = %d, %v", v, err)
	}
	if !f.Done() {
		t.Error("Done() false after Get")
	}
}

func TestFutureError(t *testing.T) {
	sentinel := errors.New("fail")
	f := Async(func() (string, error) { return "", sentinel })
	_, err := f.Get()
	if !errors.Is(err, sentinel) {
		t.Errorf("err = %v", err)
	}
}

func TestFuturePanicBecomesError(t *testing.T) {
	f := Async(func() (int, error) { panic("argh") })
	_, err := f.Get()
	if err == nil {
		t.Error("panic not converted to error")
	}
}

func TestFutureGetContextCancel(t *testing.T) {
	block := make(chan struct{})
	f := Async(func() (int, error) { <-block; return 1, nil })
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := f.GetContext(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want canceled", err)
	}
	close(block)
	if v, err := f.Get(); err != nil || v != 1 {
		t.Errorf("Get after unblock = %d, %v", v, err)
	}
}

func TestSemaphore(t *testing.T) {
	s, err := NewSemaphore(2)
	if err != nil {
		t.Fatalf("NewSemaphore: %v", err)
	}
	ctx := context.Background()
	if err := s.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	if s.TryAcquire() {
		t.Error("TryAcquire succeeded past capacity")
	}
	if s.InUse() != 2 {
		t.Errorf("InUse = %d", s.InUse())
	}
	s.Release()
	if !s.TryAcquire() {
		t.Error("TryAcquire failed after release")
	}
	s.Release()
	s.Release()
}

func TestSemaphoreInvalid(t *testing.T) {
	if _, err := NewSemaphore(0); err == nil {
		t.Error("NewSemaphore(0) accepted")
	}
}

func TestSemaphoreReleaseWithoutAcquirePanics(t *testing.T) {
	s, _ := NewSemaphore(1)
	defer func() {
		if recover() == nil {
			t.Error("release without acquire did not panic")
		}
	}()
	s.Release()
}

func TestSemaphoreAcquireCancel(t *testing.T) {
	s, _ := NewSemaphore(1)
	_ = s.Acquire(context.Background())
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := s.Acquire(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v", err)
	}
}

func TestCountdownEvent(t *testing.T) {
	e, err := NewCountdownEvent(3)
	if err != nil {
		t.Fatalf("NewCountdownEvent: %v", err)
	}
	if e.Remaining() != 3 {
		t.Errorf("Remaining = %d", e.Remaining())
	}
	e.Signal()
	e.Signal()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	if err := e.Wait(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Wait before final signal = %v", err)
	}
	cancel()
	e.Signal()
	e.Signal() // past zero: ignored
	if err := e.Wait(context.Background()); err != nil {
		t.Errorf("Wait after final signal = %v", err)
	}
	if e.Remaining() != 0 {
		t.Errorf("Remaining = %d", e.Remaining())
	}
}

func TestCountdownInvalid(t *testing.T) {
	if _, err := NewCountdownEvent(0); err == nil {
		t.Error("NewCountdownEvent(0) accepted")
	}
}

func TestBarrierRounds(t *testing.T) {
	const parties, rounds = 4, 3
	b, err := NewBarrier(parties)
	if err != nil {
		t.Fatalf("NewBarrier: %v", err)
	}
	var leaders int32
	var wg sync.WaitGroup
	wg.Add(parties)
	for p := 0; p < parties; p++ {
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				leader, err := b.Await(context.Background())
				if err != nil {
					t.Errorf("Await: %v", err)
					return
				}
				if leader {
					atomic.AddInt32(&leaders, 1)
				}
			}
		}()
	}
	wg.Wait()
	if leaders != rounds {
		t.Errorf("leaders = %d, want %d (one per round)", leaders, rounds)
	}
}

func TestBarrierCancel(t *testing.T) {
	b, _ := NewBarrier(2)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := b.Await(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Await = %v", err)
	}
	// Barrier must still work for a full complement after the withdrawal.
	done := make(chan struct{})
	go func() {
		_, _ = b.Await(context.Background())
		close(done)
	}()
	if _, err := b.Await(context.Background()); err != nil {
		t.Errorf("Await after withdraw: %v", err)
	}
	<-done
}

func TestQueueFIFO(t *testing.T) {
	q, err := NewQueue[int](4)
	if err != nil {
		t.Fatalf("NewQueue: %v", err)
	}
	for i := 1; i <= 4; i++ {
		if err := q.Put(i); err != nil {
			t.Fatalf("Put(%d): %v", i, err)
		}
	}
	if q.Len() != 4 || q.Cap() != 4 {
		t.Errorf("Len=%d Cap=%d", q.Len(), q.Cap())
	}
	for i := 1; i <= 4; i++ {
		v, err := q.Take()
		if err != nil || v != i {
			t.Fatalf("Take = %d,%v want %d", v, err, i)
		}
	}
}

func TestQueueProducerConsumer(t *testing.T) {
	q, _ := NewQueue[int](3)
	const n = 200
	var consumed []int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				v, err := q.Take()
				if err != nil {
					return
				}
				mu.Lock()
				consumed = append(consumed, v)
				mu.Unlock()
			}
		}()
	}
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := p; i < n; i += 2 {
				if err := q.Put(i); err != nil {
					t.Errorf("Put: %v", err)
				}
			}
		}(p)
	}
	// Wait for producers, then close, then wait for consumers to drain.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		mu.Lock()
		got := len(consumed)
		mu.Unlock()
		if got == n {
			break
		}
		time.Sleep(time.Millisecond)
	}
	q.Close()
	<-done
	sort.Ints(consumed)
	for i, v := range consumed {
		if v != i {
			t.Fatalf("consumed[%d] = %d", i, v)
		}
	}
}

func TestQueueCloseSemantics(t *testing.T) {
	q, _ := NewQueue[string](2)
	_ = q.Put("a")
	q.Close()
	if err := q.Put("b"); !errors.Is(err, ErrClosed) {
		t.Errorf("Put after close = %v", err)
	}
	v, err := q.Take()
	if err != nil || v != "a" {
		t.Errorf("drain = %q,%v", v, err)
	}
	if _, err := q.Take(); !errors.Is(err, ErrClosed) {
		t.Errorf("Take after drain = %v", err)
	}
	if _, ok := q.TryTake(); ok {
		t.Error("TryTake succeeded on drained queue")
	}
	q.Close() // idempotent
}

func TestQueueInvalidCapacity(t *testing.T) {
	if _, err := NewQueue[int](0); err == nil {
		t.Error("NewQueue(0) accepted")
	}
}

func TestPipelineTransforms(t *testing.T) {
	p, err := NewPipeline(4,
		Stage[int]{Name: "double", Workers: 2, Fn: func(v int) (int, error) { return v * 2, nil }},
		Stage[int]{Name: "inc", Workers: 3, Fn: func(v int) (int, error) { return v + 1, nil }},
	)
	if err != nil {
		t.Fatalf("NewPipeline: %v", err)
	}
	in := make([]int, 100)
	for i := range in {
		in[i] = i
	}
	out, err := p.Run(in)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(out) != 100 {
		t.Fatalf("len(out) = %d", len(out))
	}
	sort.Ints(out)
	for i, v := range out {
		if v != 2*i+1 {
			t.Fatalf("out[%d] = %d, want %d", i, v, 2*i+1)
		}
	}
}

func TestPipelineError(t *testing.T) {
	sentinel := errors.New("stage failure")
	p, _ := NewPipeline(2,
		Stage[int]{Name: "ok", Fn: func(v int) (int, error) { return v, nil }},
		Stage[int]{Name: "bad", Fn: func(v int) (int, error) {
			if v == 13 {
				return 0, sentinel
			}
			return v, nil
		}},
	)
	_, err := p.Run([]int{1, 13, 2, 3, 4, 5, 6, 7, 8, 9})
	if !errors.Is(err, sentinel) {
		t.Errorf("Run = %v, want %v", err, sentinel)
	}
}

func TestPipelineValidation(t *testing.T) {
	if _, err := NewPipeline[int](1); err == nil {
		t.Error("empty pipeline accepted")
	}
	if _, err := NewPipeline(1, Stage[int]{Name: "nil"}); err == nil {
		t.Error("nil-Fn stage accepted")
	}
}

func TestPipelineEmptyInput(t *testing.T) {
	p, _ := NewPipeline(1, Stage[int]{Fn: func(v int) (int, error) { return v, nil }})
	out, err := p.Run(nil)
	if err != nil || len(out) != 0 {
		t.Errorf("Run(nil) = %v, %v", out, err)
	}
}
