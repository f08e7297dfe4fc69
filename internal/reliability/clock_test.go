package reliability

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"soc/internal/vtime"
)

// These tests pin the clock-discipline contract: with a virtual clock in
// the context, every reliability primitive advances virtual time instead
// of sleeping, and breaker transitions surface through OnTransition in
// order.

func TestRetryBackoffOnVirtualClock(t *testing.T) {
	v := vtime.NewVirtual(time.Unix(0, 0))
	ctx := vtime.WithClock(context.Background(), v)
	calls := 0
	wall := time.Now()
	err := Retry(ctx, RetryPolicy{MaxAttempts: 3, BaseDelay: 100 * time.Millisecond}, func(context.Context) error {
		calls++
		return errors.New("boom")
	})
	if err == nil || calls != 3 {
		t.Fatalf("err=%v calls=%d, want failure after 3 attempts", err, calls)
	}
	// Backoff 100ms then 200ms — all virtual, none of it wall time.
	if got := v.Now().Sub(time.Unix(0, 0)); got != 300*time.Millisecond {
		t.Fatalf("virtual backoff advanced %v, want 300ms", got)
	}
	if elapsed := time.Since(wall); elapsed > time.Second {
		t.Fatalf("retry burned %v of wall time on a virtual clock", elapsed)
	}
}

func TestWithTimeoutVirtualClock(t *testing.T) {
	v := vtime.NewVirtual(time.Unix(0, 0))
	ctx := vtime.WithClock(context.Background(), v)

	// A function that sleeps past the virtual deadline times out without
	// waiting in wall time.
	err := WithTimeout(ctx, 50*time.Millisecond, func(ctx context.Context) error {
		return vtime.Sleep(ctx, time.Minute)
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("slow fn returned %v, want DeadlineExceeded", err)
	}
	if got := v.Now().Sub(time.Unix(0, 0)); got != 50*time.Millisecond {
		t.Fatalf("clock at +%v after timeout, want exactly the 50ms deadline", got)
	}

	// A fast function's result passes through untouched.
	if err := WithTimeout(ctx, 50*time.Millisecond, func(context.Context) error { return nil }); err != nil {
		t.Fatalf("fast fn: %v", err)
	}
	sentinel := errors.New("app error")
	if err := WithTimeout(ctx, 50*time.Millisecond, func(context.Context) error { return sentinel }); !errors.Is(err, sentinel) {
		t.Fatalf("fn error replaced by %v", err)
	}

	// A function that moves the clock past the deadline itself and then
	// reports success still ran over its budget.
	if err := WithTimeout(ctx, 50*time.Millisecond, func(context.Context) error {
		v.Advance(time.Second)
		return nil
	}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("fn past its deadline returned %v, want DeadlineExceeded", err)
	}
}

func TestBreakerOnVirtualClock(t *testing.T) {
	v := vtime.NewVirtual(time.Unix(0, 0))
	b, err := NewBreaker(2, time.Second)
	if err != nil {
		t.Fatalf("breaker: %v", err)
	}
	var edges []string
	b.OnTransition = func(from, to BreakerState) {
		edges = append(edges, fmt.Sprintf("%s>%s", from, to))
	}
	boom := errors.New("boom")
	fail := func(context.Context) error { return boom }
	ok := func(context.Context) error { return nil }
	ctx := vtime.WithClock(context.Background(), v)

	for i := 0; i < 2; i++ {
		if err := b.Do(ctx, fail); !errors.Is(err, boom) {
			t.Fatalf("failure %d: %v", i, err)
		}
	}
	if err := b.Do(ctx, ok); !errors.Is(err, ErrOpen) {
		t.Fatalf("open breaker admitted a call: %v", err)
	}

	// Cooldown elapses in virtual time only: advance the clock and the
	// next call is the half-open probe; its success closes the circuit.
	v.Advance(time.Second)
	if err := b.Do(ctx, ok); err != nil {
		t.Fatalf("probe: %v", err)
	}
	want := []string{"closed>open", "open>half-open", "half-open>closed"}
	if len(edges) != len(want) {
		t.Fatalf("transitions %v, want %v", edges, want)
	}
	for i := range want {
		if edges[i] != want[i] {
			t.Fatalf("transition %d = %s, want %s (all: %v)", i, edges[i], want[i], edges)
		}
	}
}

func TestBreakerProbeFailureReopensViaHook(t *testing.T) {
	v := vtime.NewVirtual(time.Unix(0, 0))
	ctx := vtime.WithClock(context.Background(), v)
	b, err := NewBreaker(1, time.Second)
	if err != nil {
		t.Fatalf("breaker: %v", err)
	}
	var edges []string
	b.OnTransition = func(from, to BreakerState) {
		edges = append(edges, fmt.Sprintf("%s>%s", from, to))
	}
	boom := errors.New("boom")
	//soclint:ignore errdiscard the error outcomes are asserted through the transition hook below
	_ = b.Do(ctx, func(context.Context) error { return boom })
	v.Advance(time.Second)
	//soclint:ignore errdiscard the error outcomes are asserted through the transition hook below
	_ = b.Do(ctx, func(context.Context) error { return boom })
	want := []string{"closed>open", "open>half-open", "half-open>open"}
	if fmt.Sprint(edges) != fmt.Sprint(want) {
		t.Fatalf("transitions %v, want %v", edges, want)
	}
}

func TestStateReportsHalfOpenThroughHook(t *testing.T) {
	v := vtime.NewVirtual(time.Unix(0, 0))
	ctx := vtime.WithClock(context.Background(), v)
	b, err := NewBreaker(1, time.Second)
	if err != nil {
		t.Fatalf("breaker: %v", err)
	}
	var edges []string
	b.OnTransition = func(from, to BreakerState) {
		edges = append(edges, fmt.Sprintf("%s>%s", from, to))
	}
	//soclint:ignore errdiscard only the state transition matters here
	_ = b.Do(ctx, func(context.Context) error { return errors.New("boom") })
	v.Advance(2 * time.Second)
	// Merely observing the state after cooldown performs the open→half-open
	// transition, and the hook must see it.
	if st := b.State(ctx); st != HalfOpen {
		t.Fatalf("state after cooldown = %v, want half-open", st)
	}
	want := []string{"closed>open", "open>half-open"}
	if fmt.Sprint(edges) != fmt.Sprint(want) {
		t.Fatalf("transitions %v, want %v", edges, want)
	}
}
