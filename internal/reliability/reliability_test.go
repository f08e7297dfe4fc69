package reliability

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"soc/internal/vtime"
)

// attemptGaps runs Retry with p on a virtual clock, failing every
// attempt, and returns the virtual time between consecutive attempts:
// the backoff schedule Retry slept.
func attemptGaps(t *testing.T, p RetryPolicy) []time.Duration {
	t.Helper()
	v := vtime.NewVirtual(time.Unix(0, 0))
	ctx := vtime.WithClock(context.Background(), v)
	var at []time.Time
	if err := Retry(ctx, p, func(context.Context) error {
		at = append(at, v.Now())
		return errors.New("always fails")
	}); err == nil {
		t.Fatal("retry succeeded unexpectedly")
	}
	var gaps []time.Duration
	for i := 1; i < len(at); i++ {
		gaps = append(gaps, at[i].Sub(at[i-1]))
	}
	return gaps
}

func TestRetrySucceedsEventually(t *testing.T) {
	calls := 0
	err := Retry(context.Background(), RetryPolicy{MaxAttempts: 5},
		func(context.Context) error {
			calls++
			if calls < 3 {
				return errors.New("flaky")
			}
			return nil
		})
	if err != nil || calls != 3 {
		t.Errorf("err=%v calls=%d", err, calls)
	}
}

func TestRetryExhaustsAttempts(t *testing.T) {
	sentinel := errors.New("always down")
	calls := 0
	err := Retry(context.Background(), RetryPolicy{MaxAttempts: 4},
		func(context.Context) error { calls++; return sentinel })
	if !errors.Is(err, sentinel) || calls != 4 {
		t.Errorf("err=%v calls=%d", err, calls)
	}
}

func TestRetryNonRetryable(t *testing.T) {
	fatal := errors.New("bad request")
	calls := 0
	err := Retry(context.Background(), RetryPolicy{
		MaxAttempts: 5,
		Retryable:   func(err error) bool { return !errors.Is(err, fatal) },
	}, func(context.Context) error { calls++; return fatal })
	if !errors.Is(err, fatal) || calls != 1 {
		t.Errorf("err=%v calls=%d", err, calls)
	}
}

func TestRetryBackoffDoublesAndCaps(t *testing.T) {
	delays := attemptGaps(t, RetryPolicy{
		MaxAttempts: 5,
		BaseDelay:   10 * time.Millisecond,
		MaxDelay:    35 * time.Millisecond,
	})
	want := []time.Duration{10, 20, 35, 35}
	if len(delays) != 4 {
		t.Fatalf("delays = %v", delays)
	}
	for i, d := range delays {
		if d != want[i]*time.Millisecond {
			t.Errorf("delay[%d] = %v, want %vms", i, d, want[i])
		}
	}
}

func TestRetryValidation(t *testing.T) {
	if err := Retry(context.Background(), RetryPolicy{}, func(context.Context) error { return nil }); err == nil {
		t.Error("MaxAttempts=0 accepted")
	}
}

func TestRetryContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := Retry(ctx, RetryPolicy{MaxAttempts: 3}, func(context.Context) error { return errors.New("x") })
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v", err)
	}
}

func TestBreakerOpensAfterThreshold(t *testing.T) {
	b, err := NewBreaker(3, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("down")
	fail := func(context.Context) error { return boom }
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if err := b.Do(ctx, fail); !errors.Is(err, boom) {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if b.State(ctx) != Open {
		t.Fatalf("state = %v", b.State(ctx))
	}
	if err := b.Do(ctx, fail); !errors.Is(err, ErrOpen) {
		t.Errorf("open call: %v", err)
	}
	_, failed, rejected := b.Counters()
	if failed != 3 || rejected != 1 {
		t.Errorf("counters failed=%d rejected=%d", failed, rejected)
	}
}

func TestBreakerHalfOpenRecovery(t *testing.T) {
	v := vtime.NewVirtual(time.Unix(0, 0))
	b, _ := NewBreaker(1, time.Minute)
	ctx := vtime.WithClock(context.Background(), v)
	_ = b.Do(ctx, func(context.Context) error { return errors.New("x") })
	if b.State(ctx) != Open {
		t.Fatal("not open")
	}
	v.Advance(2 * time.Minute)
	if b.State(ctx) != HalfOpen {
		t.Fatalf("state = %v", b.State(ctx))
	}
	// Successful probe closes.
	if err := b.Do(ctx, func(context.Context) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if b.State(ctx) != Closed {
		t.Errorf("state after probe = %v", b.State(ctx))
	}
}

func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	v := vtime.NewVirtual(time.Unix(0, 0))
	b, _ := NewBreaker(1, time.Minute)
	ctx := vtime.WithClock(context.Background(), v)
	_ = b.Do(ctx, func(context.Context) error { return errors.New("x") })
	v.Advance(2 * time.Minute)
	_ = b.Do(ctx, func(context.Context) error { return errors.New("still down") })
	if b.State(ctx) != Open {
		t.Errorf("state = %v", b.State(ctx))
	}
	// And the cooldown restarted: not half-open yet.
	v.Advance(30 * time.Second)
	if b.State(ctx) != Open {
		t.Errorf("state after partial cooldown = %v", b.State(ctx))
	}
}

func TestBreakerSingleProbe(t *testing.T) {
	v := vtime.NewVirtual(time.Unix(0, 0))
	b, _ := NewBreaker(1, time.Minute)
	ctx := vtime.WithClock(context.Background(), v)
	_ = b.Do(ctx, func(context.Context) error { return errors.New("x") })
	v.Advance(2 * time.Minute)

	probeStarted := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = b.Do(ctx, func(context.Context) error {
			close(probeStarted)
			<-release
			return nil
		})
	}()
	<-probeStarted
	// Concurrent caller while the probe is in flight: rejected.
	if err := b.Do(ctx, func(context.Context) error { return nil }); !errors.Is(err, ErrOpen) {
		t.Errorf("concurrent call during probe: %v", err)
	}
	close(release)
	wg.Wait()
	if b.State(ctx) != Closed {
		t.Errorf("state = %v", b.State(ctx))
	}
}

// TestBreakerCallerGaveUpIsNotAFailure: calls that fail because their
// caller's context ended leave a healthy dependency's breaker closed and
// uncounted, while a per-attempt deadline applied below the breaker —
// the caller still waiting — keeps counting and opens it.
func TestBreakerCallerGaveUpIsNotAFailure(t *testing.T) {
	hang := func(ctx context.Context) error {
		<-ctx.Done()
		return ctx.Err()
	}
	b, _ := NewBreaker(2, time.Minute)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 5; i++ {
		if err := b.Do(cancelled, hang); !errors.Is(err, context.Canceled) {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if _, failed, _ := b.Counters(); b.State(context.Background()) != Closed || failed != 0 {
		t.Fatalf("after caller-cancelled calls: state %v failed %d, want closed and 0", b.State(context.Background()), failed)
	}

	perAttempt := func(ctx context.Context) error { return WithTimeout(ctx, time.Millisecond, hang) }
	for i := 0; i < 2; i++ {
		if err := b.Do(context.Background(), perAttempt); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("per-attempt timeout %d: %v", i, err)
		}
	}
	if _, failed, _ := b.Counters(); b.State(context.Background()) != Open || failed != 2 {
		t.Fatalf("after per-attempt timeouts: state %v failed %d, want open and 2", b.State(context.Background()), failed)
	}
}

// TestBreakerCancelledProbeFreesTheSlot: a half-open probe whose caller
// gave up reaches no verdict — the breaker stays half-open and the next
// caller probes.
func TestBreakerCancelledProbeFreesTheSlot(t *testing.T) {
	v := vtime.NewVirtual(time.Unix(0, 0))
	clocked := vtime.WithClock(context.Background(), v)
	b, _ := NewBreaker(1, time.Minute)
	_ = b.Do(clocked, func(context.Context) error { return errors.New("x") })
	v.Advance(2 * time.Minute)

	ctx, cancel := context.WithCancel(clocked)
	err := b.Do(ctx, func(ctx context.Context) error {
		cancel()
		return ctx.Err()
	})
	if !errors.Is(err, context.Canceled) || b.State(clocked) != HalfOpen {
		t.Fatalf("cancelled probe: err %v, state %v; want context.Canceled and half-open", err, b.State(clocked))
	}
	ran := false
	if err := b.Do(clocked, func(context.Context) error { ran = true; return nil }); err != nil || !ran {
		t.Fatalf("next caller: err %v, ran %v; want it admitted as the probe", err, ran)
	}
	if b.State(clocked) != Closed {
		t.Fatalf("state after the next probe succeeded = %v", b.State(clocked))
	}
	if _, failed, rejected := b.Counters(); failed != 1 || rejected != 0 {
		t.Fatalf("counters failed=%d rejected=%d, want 1 and 0", failed, rejected)
	}
}

func TestBreakerValidation(t *testing.T) {
	if _, err := NewBreaker(0, time.Second); err == nil {
		t.Error("threshold 0 accepted")
	}
	if _, err := NewBreaker(1, 0); err == nil {
		t.Error("cooldown 0 accepted")
	}
}

func TestWithTimeout(t *testing.T) {
	err := WithTimeout(context.Background(), 10*time.Millisecond, func(ctx context.Context) error {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Second):
			return nil
		}
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v", err)
	}
	if err := WithTimeout(context.Background(), time.Second, func(context.Context) error { return nil }); err != nil {
		t.Errorf("fast call: %v", err)
	}
	if err := WithTimeout(context.Background(), 0, func(context.Context) error { return nil }); err == nil {
		t.Error("zero timeout accepted")
	}
}

// TestWithTimeoutRunsOnCallersGoroutine: fn runs on the goroutine that
// called WithTimeout, not on one of its own, so the caller's frame is on
// fn's stack.
func TestWithTimeoutRunsOnCallersGoroutine(t *testing.T) {
	onCaller := false
	err := WithTimeout(context.Background(), time.Second, func(context.Context) error {
		pc := make([]uintptr, 64)
		frames := runtime.CallersFrames(pc[:runtime.Callers(1, pc)])
		for more := true; more; {
			var f runtime.Frame
			f, more = frames.Next()
			onCaller = onCaller || strings.HasSuffix(f.Function, ".TestWithTimeoutRunsOnCallersGoroutine")
		}
		return nil
	})
	if err != nil || !onCaller {
		t.Fatalf("err %v, caller's frame on fn's stack %v; want nil and true", err, onCaller)
	}
}

func TestBulkhead(t *testing.T) {
	b, err := NewBulkhead(2)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	inFlight := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = b.Do(ctx, func(context.Context) error {
				inFlight <- struct{}{}
				<-release
				return nil
			})
		}()
	}
	<-inFlight
	<-inFlight
	if len(b.slots) != 2 {
		t.Errorf("in use = %d", len(b.slots))
	}
	if err := b.Do(ctx, func(context.Context) error { return nil }); !errors.Is(err, ErrBulkheadFull) {
		t.Errorf("third call: %v", err)
	}
	close(release)
	wg.Wait()
	if err := b.Do(ctx, func(context.Context) error { return nil }); err != nil {
		t.Errorf("after drain: %v", err)
	}
	if _, err := NewBulkhead(0); err == nil {
		t.Error("capacity 0 accepted")
	}
}

func TestFailoverStickyPreference(t *testing.T) {
	f, err := NewFailover("a", "b", "c")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var tried []string
	err = f.Do(ctx, func(_ context.Context, r string) error {
		tried = append(tried, r)
		if r == "c" {
			return nil
		}
		return errors.New(r + " down")
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tried) != 3 || tried[2] != "c" {
		t.Errorf("tried = %v", tried)
	}
	// Sticky: next call starts at c.
	tried = nil
	_ = f.Do(ctx, func(_ context.Context, r string) error {
		tried = append(tried, r)
		return nil
	})
	if len(tried) != 1 || tried[0] != "c" {
		t.Errorf("sticky tried = %v", tried)
	}
}

func TestFailoverAllFail(t *testing.T) {
	f, _ := NewFailover(1, 2)
	down := errors.New("down")
	err := f.Do(context.Background(), func(_ context.Context, r int) error {
		return fmt.Errorf("replica %d: %w", r, down)
	})
	if !errors.Is(err, ErrAllReplicasFailed) || !errors.Is(err, down) {
		t.Errorf("err = %v, want all-replicas-failed wrapping the last cause", err)
	}
	if want := "reliability: all replicas failed: last error: replica 2: down"; err.Error() != want {
		t.Errorf("err = %q, want %q", err, want)
	}
	if _, err := NewFailover[string](); err == nil {
		t.Error("empty group accepted")
	}
}

func TestFailoverContextCancel(t *testing.T) {
	f, _ := NewFailover("a")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := f.Do(ctx, func(context.Context, string) error { return nil }); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v", err)
	}
}

func TestAvailabilityMath(t *testing.T) {
	s, err := SeriesAvailability(0.99, 0.99)
	if err != nil || math.Abs(s-0.9801) > 1e-9 {
		t.Errorf("series = %v %v", s, err)
	}
	p, err := ParallelAvailability(0.9, 0.9)
	if err != nil || math.Abs(p-0.99) > 1e-9 {
		t.Errorf("parallel = %v %v", p, err)
	}
	// Redundancy helps, chaining hurts.
	if p <= 0.9 || s >= 0.99 {
		t.Error("availability intuitions violated")
	}
	if _, err := SeriesAvailability(); err == nil {
		t.Error("empty series accepted")
	}
	if _, err := SeriesAvailability(1.5); err == nil {
		t.Error("availability > 1 accepted")
	}
	if _, err := ParallelAvailability(-0.1); err == nil {
		t.Error("negative availability accepted")
	}
}
