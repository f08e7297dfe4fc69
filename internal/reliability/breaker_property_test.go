package reliability

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"soc/internal/vtime"
)

// breakerModel is an independent reference implementation of the breaker
// specification, advanced in lockstep with the real Breaker.
type breakerModel struct {
	threshold int
	cooldown  time.Duration
	state     BreakerState
	failures  int
	openedAt  time.Time
}

func (m *breakerModel) advance(now time.Time) {
	if m.state == Open && now.Sub(m.openedAt) >= m.cooldown {
		m.state = HalfOpen
	}
}

// call feeds one attempt (succeeds=true/false) at time now and returns
// whether the model admits the call.
func (m *breakerModel) call(now time.Time, succeeds bool) (admitted bool) {
	m.advance(now)
	if m.state == Open {
		return false
	}
	probe := m.state == HalfOpen
	if !succeeds {
		m.failures++
		if probe || m.failures >= m.threshold {
			m.state = Open
			m.openedAt = now
		}
		return true
	}
	m.failures = 0
	m.state = Closed
	return true
}

// TestBreakerPropertyAgainstModel drives the breaker through randomized
// success/failure/time-advance sequences under many seeds and checks
// every observable (admission, state, counters) against the model.
func TestBreakerPropertyAgainstModel(t *testing.T) {
	errFail := errors.New("fail")
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		threshold := 1 + rng.Intn(4)
		cooldown := time.Duration(1+rng.Intn(10)) * time.Second

		clock := vtime.NewVirtual(time.Unix(0, 0))
		ctx := vtime.WithClock(context.Background(), clock)
		b, err := NewBreaker(threshold, cooldown)
		if err != nil {
			t.Fatal(err)
		}
		model := &breakerModel{threshold: threshold, cooldown: cooldown}
		var wantOK, wantFail, wantReject uint64

		for step := 0; step < 400; step++ {
			if rng.Intn(3) == 0 {
				clock.Advance(time.Duration(rng.Intn(int(2 * cooldown))))
			}
			succeeds := rng.Intn(2) == 0
			admitted := model.call(clock.Now(), succeeds)
			var ran bool
			err := b.Do(ctx, func(context.Context) error {
				ran = true
				if succeeds {
					return nil
				}
				return errFail
			})
			if ran != admitted {
				t.Fatalf("seed %d step %d: breaker admitted=%v, model admitted=%v (threshold=%d cooldown=%v)",
					seed, step, ran, admitted, threshold, cooldown)
			}
			switch {
			case !admitted:
				wantReject++
				if !errors.Is(err, ErrOpen) {
					t.Fatalf("seed %d step %d: rejected call returned %v, want ErrOpen", seed, step, err)
				}
			case succeeds:
				wantOK++
				if err != nil {
					t.Fatalf("seed %d step %d: admitted success returned %v", seed, step, err)
				}
			default:
				wantFail++
				if !errors.Is(err, errFail) {
					t.Fatalf("seed %d step %d: admitted failure returned %v", seed, step, err)
				}
			}
			if got, want := b.State(ctx), model.state; got != want {
				// State() itself advances Open→HalfOpen; mirror it.
				model.advance(clock.Now())
				if got != model.state {
					t.Fatalf("seed %d step %d: state=%v model=%v", seed, step, got, want)
				}
			}
		}
		ok, fail, rejected := b.Counters()
		if ok != wantOK || fail != wantFail || rejected != wantReject {
			t.Fatalf("seed %d: counters = (%d, %d, %d), model = (%d, %d, %d)",
				seed, ok, fail, rejected, wantOK, wantFail, wantReject)
		}
	}
}

// TestRetryZeroBaseDelayBacksOff pins the fix for the zero-backoff trap:
// BaseDelay == 0 must not produce an all-zero (hot) retry schedule.
func TestRetryZeroBaseDelayBacksOff(t *testing.T) {
	delays := attemptGaps(t, RetryPolicy{MaxAttempts: 5, BaseDelay: 0})
	if len(delays) != 4 {
		t.Fatalf("slept %d times, want 4", len(delays))
	}
	if delays[0] != 0 {
		t.Errorf("first retry delay = %v, want 0 (immediate first retry is fine)", delays[0])
	}
	for i, d := range delays[1:] {
		if d < minBackoff {
			t.Errorf("delay %d = %v, below the %v floor (hot loop)", i+1, d, minBackoff)
		}
	}
	if delays[2] <= delays[1] || delays[3] <= delays[2] {
		t.Errorf("delays not increasing: %v", delays)
	}
}
