package vtime

import (
	"context"
	"errors"
	"testing"
	"time"
)

var epoch = time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC)

func TestVirtualNowAndAdvance(t *testing.T) {
	v := NewVirtual(epoch)
	if !v.Now().Equal(epoch) {
		t.Fatalf("fresh clock reads %v, want %v", v.Now(), epoch)
	}
	v.Advance(3 * time.Second)
	if got := v.Now().Sub(epoch); got != 3*time.Second {
		t.Fatalf("advanced %v, want 3s", got)
	}
	v.Advance(-time.Second) // time never goes backwards
	if got := v.Now().Sub(epoch); got != 3*time.Second {
		t.Fatalf("negative advance moved the clock to +%v", got)
	}
}

func TestVirtualSleepAdvancesInstantly(t *testing.T) {
	v := NewVirtual(epoch)
	wall := time.Now()
	if err := v.Sleep(context.Background(), time.Hour); err != nil {
		t.Fatalf("sleep: %v", err)
	}
	if elapsed := time.Since(wall); elapsed > time.Second {
		t.Fatalf("virtual sleep took %v of wall time", elapsed)
	}
	if got := v.Now().Sub(epoch); got != time.Hour {
		t.Fatalf("clock advanced %v, want 1h", got)
	}
}

func TestVirtualSleepClampsToDeadline(t *testing.T) {
	v := NewVirtual(epoch)
	ctx, cancel := v.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := v.Sleep(ctx, time.Minute)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("sleep past the deadline returned %v, want DeadlineExceeded", err)
	}
	// The clock stops exactly at the deadline, not at the full duration.
	if got := v.Now().Sub(epoch); got != 10*time.Second {
		t.Fatalf("clock advanced %v, want exactly 10s", got)
	}
}

func TestVirtualWithTimeoutKeepsEarlierDeadline(t *testing.T) {
	v := NewVirtual(epoch)
	outer, cancelOuter := v.WithTimeout(context.Background(), 5*time.Second)
	defer cancelOuter()
	inner, cancelInner := v.WithTimeout(outer, time.Minute)
	defer cancelInner()
	dl, ok := DeadlineOf(inner)
	if !ok || !dl.Equal(epoch.Add(5*time.Second)) {
		t.Fatalf("nested deadline %v (ok=%v), want the earlier 5s one", dl, ok)
	}
}

func TestVirtualSleepCancelledContext(t *testing.T) {
	v := NewVirtual(epoch)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := v.Sleep(ctx, time.Second); !errors.Is(err, context.Canceled) {
		t.Fatalf("sleep on a cancelled context returned %v", err)
	}
	if !v.Now().Equal(epoch) {
		t.Fatal("cancelled sleep still advanced the clock")
	}
}

func TestExpired(t *testing.T) {
	v := NewVirtual(epoch)
	ctx, cancel := v.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := Expired(ctx, v); err != nil {
		t.Fatalf("fresh deadline already expired: %v", err)
	}
	v.Advance(time.Second)
	if err := Expired(ctx, v); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline reported %v", err)
	}
}

func TestClockFromDefaultsToReal(t *testing.T) {
	c := ClockFrom(context.Background())
	if _, ok := c.(Real); !ok {
		t.Fatalf("default clock is %T, want Real", c)
	}
}

func TestWithClockThreadsThroughContext(t *testing.T) {
	v := NewVirtual(epoch)
	ctx := WithClock(context.Background(), v)
	if !Now(ctx).Equal(epoch) {
		t.Fatalf("Now(ctx) = %v, want the virtual epoch", Now(ctx))
	}
	if got := ClockFrom(ctx); got != Clock(v) {
		t.Fatalf("ClockFrom(ctx) = %v, want the same *Virtual", got)
	}
	if err := Sleep(ctx, 42*time.Millisecond); err != nil {
		t.Fatalf("sleep: %v", err)
	}
	if got := v.Now().Sub(epoch); got != 42*time.Millisecond {
		t.Fatalf("context sleep advanced %v, want 42ms", got)
	}
}

func TestRealSleepHonoursCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := (Real{}).Sleep(ctx, time.Minute); !errors.Is(err, context.Canceled) {
		t.Fatalf("real sleep on cancelled context returned %v", err)
	}
}

func TestRealSleepShortDuration(t *testing.T) {
	if err := (Real{}).Sleep(context.Background(), time.Millisecond); err != nil {
		t.Fatalf("real sleep: %v", err)
	}
}

func TestDeadlineOfRealContext(t *testing.T) {
	dl := time.Now().Add(time.Hour)
	ctx, cancel := context.WithDeadline(context.Background(), dl)
	defer cancel()
	got, ok := DeadlineOf(ctx)
	if !ok || !got.Equal(dl) {
		t.Fatalf("DeadlineOf = %v (ok=%v), want the context deadline", got, ok)
	}
}

func TestGaveUp(t *testing.T) {
	live := context.Background()
	cancelled, cancel := context.WithCancel(live)
	cancel()
	expired, cancel2 := context.WithTimeout(live, -time.Second)
	defer cancel2()
	fail := errors.New("replica down")
	cases := []struct {
		name string
		ctx  context.Context
		err  error
		want bool
	}{
		{"live caller, success", live, nil, false},
		{"live caller, failure", live, fail, false},
		{"live caller, its callee's deadline", live, context.DeadlineExceeded, false},
		{"cancelled caller, success", cancelled, nil, false},
		{"cancelled caller, failure", cancelled, fail, true},
		{"expired caller, failure", expired, context.DeadlineExceeded, true},
	}
	for _, tc := range cases {
		if got := GaveUp(tc.ctx, tc.err); got != tc.want {
			t.Errorf("%s: GaveUp = %v, want %v", tc.name, got, tc.want)
		}
	}
}
