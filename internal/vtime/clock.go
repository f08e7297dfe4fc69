package vtime

import (
	"context"
	"sync"
	"time"
)

// Clock is the time source the dependability stack consults for every
// timestamp, sleep and deadline: reliability backoffs and breaker
// cooldowns, respcache TTLs, and injected fault latencies all go through
// one of these instead of the time package directly. The default is the
// wall clock (Real); the deterministic simulation harness (soc/internal/
// simtest) substitutes a Virtual clock so whole multi-host scenarios run
// with no real waiting and replay byte-for-byte from a seed.
type Clock interface {
	// Now returns the current instant on this clock.
	Now() time.Time
	// Sleep blocks until d has elapsed on this clock or ctx is done,
	// returning the context's error when interrupted. d <= 0 returns
	// ctx.Err() immediately.
	Sleep(ctx context.Context, d time.Duration) error
	// WithTimeout derives a context that expires after d on this clock.
	// Callers must call the cancel function, exactly as with
	// context.WithTimeout.
	WithTimeout(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc)
}

// Real is the wall clock: Now is time.Now, Sleep waits on a timer, and
// WithTimeout is context.WithTimeout. The zero value is ready to use.
type Real struct{}

// Now implements Clock.
//
//soclint:ignore clockdiscipline Real is the wall-clock Clock implementation; this is the one sanctioned time.Now site
func (Real) Now() time.Time { return time.Now() }

// Sleep implements Clock.
func (Real) Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	//soclint:ignore clockdiscipline Real is the wall-clock Clock implementation; this is the one sanctioned timer site
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// WithTimeout implements Clock.
func (Real) WithTimeout(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	//soclint:ignore clockdiscipline Real is the wall-clock Clock implementation; this is the one sanctioned wall-clock deadline site
	return context.WithTimeout(ctx, d)
}

// Virtual is a discrete virtual clock: Now returns a logical instant
// that only moves when Advance or Sleep is called. Sleeping advances the
// clock immediately and returns — no goroutine ever blocks — so a
// simulation using it is both instant and deterministic. Virtual
// deadlines (WithTimeout) are carried as context values; Sleep clamps to
// them and returns context.DeadlineExceeded, which is how timeouts fire
// in simulated time. Safe for concurrent use, though deterministic
// replay additionally requires single-threaded stepping.
type Virtual struct {
	mu  sync.Mutex
	now time.Time
}

// NewVirtual returns a virtual clock reading start.
func NewVirtual(start time.Time) *Virtual {
	return &Virtual{now: start}
}

// Now implements Clock.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// Advance moves the clock forward by d (negative d is ignored).
func (v *Virtual) Advance(d time.Duration) {
	if d <= 0 {
		return
	}
	v.mu.Lock()
	v.now = v.now.Add(d)
	v.mu.Unlock()
}

// advanceTo moves the clock forward to t; it never moves backwards.
func (v *Virtual) advanceTo(t time.Time) {
	v.mu.Lock()
	if t.After(v.now) {
		v.now = t
	}
	v.mu.Unlock()
}

// Sleep implements Clock: it advances the virtual clock by d and returns
// immediately. When the context carries a virtual deadline that would be
// crossed, the clock stops at the deadline and Sleep reports
// context.DeadlineExceeded.
func (v *Virtual) Sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if d <= 0 {
		return nil
	}
	if dl, ok := DeadlineOf(ctx); ok {
		if target := v.Now().Add(d); target.After(dl) {
			v.advanceTo(dl)
			return context.DeadlineExceeded
		}
	}
	v.Advance(d)
	return nil
}

// WithTimeout implements Clock by stamping a virtual deadline into the
// context (keeping any earlier one). The returned cancel is a no-op: a
// virtual deadline holds no resources.
func (v *Virtual) WithTimeout(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	dl := v.Now().Add(d)
	if cur, ok := DeadlineOf(ctx); ok && cur.Before(dl) {
		dl = cur
	}
	return context.WithValue(ctx, deadlineKey{}, dl), func() {}
}

type (
	clockKey    struct{}
	deadlineKey struct{}
)

// WithClock returns a context carrying c; everything downstream that
// consults ClockFrom — retry backoffs, fault latencies, cache TTLs —
// runs on it.
func WithClock(ctx context.Context, c Clock) context.Context {
	if _, wall := c.(Real); wall {
		if _, carried := ctx.Value(clockKey{}).(Clock); !carried {
			return ctx // a context without a clock already reads as the wall clock
		}
	}
	return context.WithValue(ctx, clockKey{}, c)
}

// ClockFrom returns the context's clock, defaulting to the wall clock.
func ClockFrom(ctx context.Context) Clock {
	if c, ok := ctx.Value(clockKey{}).(Clock); ok && c != nil {
		return c
	}
	return Real{}
}

// Now is shorthand for ClockFrom(ctx).Now().
func Now(ctx context.Context) time.Time { return ClockFrom(ctx).Now() }

// Sleep is shorthand for ClockFrom(ctx).Sleep(ctx, d).
func Sleep(ctx context.Context, d time.Duration) error {
	return ClockFrom(ctx).Sleep(ctx, d)
}

// DeadlineOf returns the context's effective deadline: the virtual one
// stamped by Virtual.WithTimeout if present, else the context's own.
func DeadlineOf(ctx context.Context) (time.Time, bool) {
	if dl, ok := ctx.Value(deadlineKey{}).(time.Time); ok {
		return dl, true
	}
	return ctx.Deadline()
}

// Expired reports context.DeadlineExceeded when the context carries a
// virtual deadline that clock c has already passed, nil otherwise.
// reliability.WithTimeout uses it to convert "the work ran past the
// budget in virtual time" into the same error a wall-clock deadline
// would have produced.
func Expired(ctx context.Context, c Clock) error {
	if dl, ok := ctx.Value(deadlineKey{}).(time.Time); ok && !c.Now().Before(dl) {
		return context.DeadlineExceeded
	}
	return nil
}
