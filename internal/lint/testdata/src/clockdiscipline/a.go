// Package clockdiscipline is the golden fixture for the clockdiscipline
// analyzer: wall-clock reads and waits are findings, pure time
// arithmetic is not, and an explained ignore directive suppresses.
package clockdiscipline

import (
	"context"
	"time"
)

func reads() time.Time {
	return time.Now() // want `wall-clock time.Now in a clock-disciplined package`
}

func waits(ctx context.Context) {
	time.Sleep(time.Millisecond)    // want `wall-clock time.Sleep in a clock-disciplined package`
	t := time.NewTimer(time.Second) // want `wall-clock time.NewTimer in a clock-disciplined package`
	defer t.Stop()
	select {
	case <-t.C:
	case <-time.After(time.Second): // want `wall-clock time.After in a clock-disciplined package`
	case <-ctx.Done():
	}
}

// deadlines armed on the wall clock never fire in virtual time.
func deadlines(ctx context.Context) {
	tctx, cancel := context.WithTimeout(ctx, time.Second) // want `wall-clock context.WithTimeout in a clock-disciplined package`
	defer cancel()
	dctx, dcancel := context.WithDeadline(tctx, time.Unix(0, 0)) // want `wall-clock context.WithDeadline in a clock-disciplined package`
	defer dcancel()
	cctx, ccancel := context.WithCancel(dctx) // cancellation alone arms no timer
	defer ccancel()
	<-cctx.Done()
}

func measures(start time.Time) time.Duration {
	return time.Since(start) // want `wall-clock time.Since in a clock-disciplined package`
}

// storedValue leaks the wall clock behind a function value — still a
// finding, even though no call happens here.
var storedValue = time.Now // want `wall-clock time.Now in a clock-disciplined package`

type injectable struct {
	now func() time.Time
}

func defaulted() *injectable {
	//soclint:ignore clockdiscipline real-clock default behind an injectable hook, fixture for the sanctioned pattern
	return &injectable{now: time.Now}
}

// arithmetic-only uses of the time package are fine.
func pure() time.Duration {
	d := 3 * time.Second
	epoch := time.Unix(0, 0)
	_ = epoch.Add(d)
	return d.Round(time.Millisecond)
}
