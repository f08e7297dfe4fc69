// Package reliability implements the dependability-reliability mechanisms
// of CSE445 unit 6 for service consumers: retry with exponential backoff,
// circuit breaking, call timeouts, bulkhead isolation, replica failover,
// active health checking (HealthChecker probes replica health endpoints
// and demotes/promotes replicas for failover), and the series/parallel
// availability arithmetic used to reason about composed services.
package reliability

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"soc/internal/vtime"
)

// ErrOpen reports a call rejected by an open circuit breaker.
var ErrOpen = errors.New("reliability: circuit open")

// ErrBulkheadFull reports a call rejected because the bulkhead is at
// capacity.
var ErrBulkheadFull = errors.New("reliability: bulkhead full")

// ErrAllReplicasFailed reports a failover group with no surviving replica.
var ErrAllReplicasFailed = errors.New("reliability: all replicas failed")

// RetryPolicy controls Retry.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries (≥ 1).
	MaxAttempts int
	// BaseDelay is the first backoff; doubles each retry. A zero
	// BaseDelay retries the second attempt immediately but still backs
	// off from minBackoff afterwards — it never hot-loops.
	BaseDelay time.Duration
	// MaxDelay caps the backoff (0 = uncapped).
	MaxDelay time.Duration
	// Retryable decides whether an error is worth retrying; nil retries
	// everything.
	Retryable func(error) bool
}

// minBackoff floors the doubled retry delay so BaseDelay == 0 cannot
// produce a zero-backoff hot loop.
const minBackoff = time.Millisecond

// Retry runs fn until success, a non-retryable error, attempt exhaustion,
// or context cancellation. It returns the last error annotated with the
// attempt count. Backoffs sleep on the context's clock (vtime.ClockFrom),
// so they advance virtual time under simulation and wall time otherwise.
func Retry(ctx context.Context, p RetryPolicy, fn func(ctx context.Context) error) error {
	if p.MaxAttempts < 1 {
		return fmt.Errorf("reliability: MaxAttempts must be >= 1, got %d", p.MaxAttempts)
	}
	delay := p.BaseDelay
	var last error
	for attempt := 1; attempt <= p.MaxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		last = fn(ctx)
		if last == nil {
			return nil
		}
		if p.Retryable != nil && !p.Retryable(last) {
			return last
		}
		if attempt == p.MaxAttempts {
			break
		}
		if err := vtime.Sleep(ctx, delay); err != nil {
			return err
		}
		delay *= 2
		// 0×2 = 0 would never back off; floor the doubling so a zero
		// BaseDelay can't degenerate into a hot retry loop.
		if delay < minBackoff {
			delay = minBackoff
		}
		if p.MaxDelay > 0 && delay > p.MaxDelay {
			delay = p.MaxDelay
		}
	}
	return fmt.Errorf("reliability: %d attempts failed: %w", p.MaxAttempts, last)
}

// BreakerState is a circuit breaker state.
type BreakerState int

// Circuit breaker states.
const (
	Closed BreakerState = iota
	Open
	HalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	}
	return fmt.Sprintf("BreakerState(%d)", int(s))
}

// Breaker is a circuit breaker: after FailureThreshold consecutive
// failures it opens and rejects calls for Cooldown; the first probe after
// the cooldown half-opens the circuit, and its outcome closes or re-opens
// it. The cooldown runs on the clock of the context each call carries
// (vtime.ClockFrom).
type Breaker struct {
	FailureThreshold int
	Cooldown         time.Duration
	// OnTransition, when non-nil, observes every state change as a
	// (from, to) pair. It fires outside the breaker's lock, in transition
	// order, after the state change took effect; the legal edges are
	// Closed→Open, Open→HalfOpen, HalfOpen→Closed and HalfOpen→Open, and
	// the simulation harness's invariant checker holds it to exactly
	// those. Set it before the breaker is shared; it must not call back
	// into the breaker.
	OnTransition func(from, to BreakerState)

	mu        sync.Mutex
	state     BreakerState
	failures  int
	openedAt  time.Time
	probing   bool
	rejected  uint64
	succeeded uint64
	failed    uint64
}

// transition is one recorded state change, fired to OnTransition after
// the lock is released.
type transition struct{ from, to BreakerState }

// setStateLocked moves the breaker to next, recording the edge when the
// state actually changes. Callers must hold b.mu and fire the returned
// slice via fire after unlocking.
func (b *Breaker) setStateLocked(next BreakerState, edges []transition) []transition {
	if b.state == next {
		return edges
	}
	edges = append(edges, transition{b.state, next})
	b.state = next
	return edges
}

// fire delivers recorded transitions to OnTransition, if set.
func (b *Breaker) fire(edges []transition) {
	if b.OnTransition == nil {
		return
	}
	for _, e := range edges {
		b.OnTransition(e.from, e.to)
	}
}

// NewBreaker returns a closed breaker.
func NewBreaker(threshold int, cooldown time.Duration) (*Breaker, error) {
	if threshold < 1 || cooldown <= 0 {
		return nil, fmt.Errorf("reliability: bad breaker config threshold=%d cooldown=%v", threshold, cooldown)
	}
	return &Breaker{FailureThreshold: threshold, Cooldown: cooldown, state: Closed}, nil
}

// State returns the current state, advancing Open → HalfOpen when the
// cooldown has elapsed on ctx's clock.
func (b *Breaker) State(ctx context.Context) BreakerState {
	now := vtime.ClockFrom(ctx).Now()
	b.mu.Lock()
	edges := b.advanceLocked(now, nil)
	state := b.state
	b.mu.Unlock()
	b.fire(edges)
	return state
}

func (b *Breaker) advanceLocked(now time.Time, edges []transition) []transition {
	if b.state == Open && now.Sub(b.openedAt) >= b.Cooldown {
		edges = b.setStateLocked(HalfOpen, edges)
	}
	return edges
}

// Do runs fn under the breaker. In the half-open state exactly one probe
// call is admitted; concurrent callers are rejected until it reports.
// A call that fails after ctx ended says nothing about the guarded
// dependency — the caller gave up — so it is counted neither way, and a
// half-open probe that ends so frees the probe slot without a verdict.
// A deadline applied below the breaker (a per-attempt timeout) leaves ctx
// live and counts as a failure.
func (b *Breaker) Do(ctx context.Context, fn func(ctx context.Context) error) error {
	clk := vtime.ClockFrom(ctx)
	now := clk.Now()
	b.mu.Lock()
	edges := b.advanceLocked(now, nil)
	probe := false
	switch b.state {
	case Open:
		b.rejected++
		b.mu.Unlock()
		b.fire(edges)
		return ErrOpen
	case HalfOpen:
		if b.probing {
			b.rejected++
			b.mu.Unlock()
			b.fire(edges)
			return ErrOpen
		}
		b.probing = true
		probe = true
	}
	b.mu.Unlock()
	b.fire(edges)
	edges = nil

	err := fn(ctx)
	gaveUp := vtime.GaveUp(ctx, err)

	b.mu.Lock()
	if probe {
		b.probing = false
	}
	if gaveUp {
		b.mu.Unlock()
		return err
	}
	if err != nil {
		b.failed++
		b.failures++
		if probe || b.failures >= b.FailureThreshold {
			edges = b.setStateLocked(Open, edges)
			b.openedAt = clk.Now()
		}
		b.mu.Unlock()
		b.fire(edges)
		return err
	}
	b.succeeded++
	b.failures = 0
	edges = b.setStateLocked(Closed, edges)
	b.mu.Unlock()
	b.fire(edges)
	return nil
}

// Counters reports successes, failures and rejections.
func (b *Breaker) Counters() (succeeded, failed, rejected uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.succeeded, b.failed, b.rejected
}

// WithTimeout runs fn with a deadline on the context's clock; when fn
// ignores the context, the caller is still released after d (fn keeps
// running until it returns). A virtual deadline (vtime.Virtual) never
// closes Done, so under the virtual clock the caller waits for fn, and
// "fn ran past the budget" is read off the clock once fn returns.
func WithTimeout(ctx context.Context, d time.Duration, fn func(ctx context.Context) error) error {
	if d <= 0 {
		return errors.New("reliability: non-positive timeout")
	}
	clk := vtime.ClockFrom(ctx)
	ctx, cancel := clk.WithTimeout(ctx, d)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- fn(ctx) }()
	select {
	case err := <-done:
		if exp := vtime.Expired(ctx, clk); exp != nil {
			return exp
		}
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Bulkhead caps concurrent calls to protect a dependency from overload.
type Bulkhead struct {
	slots chan struct{}
}

// NewBulkhead returns a bulkhead admitting n concurrent calls.
func NewBulkhead(n int) (*Bulkhead, error) {
	if n < 1 {
		return nil, fmt.Errorf("reliability: bulkhead capacity %d", n)
	}
	return &Bulkhead{slots: make(chan struct{}, n)}, nil
}

// Do runs fn if a slot is free, else fails fast with ErrBulkheadFull.
func (b *Bulkhead) Do(ctx context.Context, fn func(ctx context.Context) error) error {
	select {
	case b.slots <- struct{}{}:
		defer func() { <-b.slots }()
		return fn(ctx)
	default:
		return ErrBulkheadFull
	}
}

// Failover tries replicas in order until one succeeds, remembering the
// last healthy replica to try first next time (sticky failover).
type Failover[T any] struct {
	mu       sync.Mutex
	replicas []T
	prefer   int
}

// NewFailover returns a group over the replicas.
func NewFailover[T any](replicas ...T) (*Failover[T], error) {
	if len(replicas) == 0 {
		return nil, errors.New("reliability: failover needs replicas")
	}
	return &Failover[T]{replicas: replicas}, nil
}

// Do invokes fn per replica starting from the sticky preference; the first
// success wins. All failures yield ErrAllReplicasFailed wrapping the last.
func (f *Failover[T]) Do(ctx context.Context, fn func(ctx context.Context, replica T) error) error {
	f.mu.Lock()
	start := f.prefer
	n := len(f.replicas)
	f.mu.Unlock()
	var last error
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		idx := (start + i) % n
		f.mu.Lock()
		replica := f.replicas[idx]
		f.mu.Unlock()
		if err := fn(ctx, replica); err != nil {
			last = err
			continue
		}
		f.mu.Lock()
		f.prefer = idx
		f.mu.Unlock()
		return nil
	}
	return fmt.Errorf("%w: last error: %v", ErrAllReplicasFailed, last)
}

// SeriesAvailability is the availability of components that must all work:
// the product of the individual availabilities.
func SeriesAvailability(availabilities ...float64) (float64, error) {
	if len(availabilities) == 0 {
		return 0, errors.New("reliability: no components")
	}
	p := 1.0
	for _, a := range availabilities {
		if a < 0 || a > 1 {
			return 0, fmt.Errorf("reliability: availability %v out of [0,1]", a)
		}
		p *= a
	}
	return p, nil
}

// ParallelAvailability is the availability of redundant components where
// any one suffices: 1 − ∏(1−ai).
func ParallelAvailability(availabilities ...float64) (float64, error) {
	if len(availabilities) == 0 {
		return 0, errors.New("reliability: no components")
	}
	q := 1.0
	for _, a := range availabilities {
		if a < 0 || a > 1 {
			return 0, fmt.Errorf("reliability: availability %v out of [0,1]", a)
		}
		q *= 1 - a
	}
	return 1 - q, nil
}
