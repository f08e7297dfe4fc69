package loadgen

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"soc/internal/vtime"
)

func TestRunValidation(t *testing.T) {
	if _, err := Run(context.Background(), Config{Rate: 0, Duration: time.Second}, func(context.Context) error { return nil }); !errors.Is(err, ErrConfig) {
		t.Fatalf("rate 0: err = %v, want ErrConfig", err)
	}
	if _, err := Run(context.Background(), Config{Rate: 10, Duration: time.Second}, nil); !errors.Is(err, ErrConfig) {
		t.Fatalf("nil op: err = %v, want ErrConfig", err)
	}
}

// TestRunOpenLoopStall is the coordinated-omission test: a server that
// stalls 100ms partway through the schedule must not reduce the number
// of requests issued — the full schedule is offered either way — and
// the stall must surface in the tail quantiles because latency is
// measured from scheduled arrival, not from the delayed issue instant.
// The run uses the virtual clock, so it is instant and deterministic.
func TestRunOpenLoopStall(t *testing.T) {
	clock := vtime.NewVirtual(time.Unix(0, 0))
	const rate, horizon = 1000.0, 2 * time.Second // 2000 scheduled arrivals
	calls := 0
	op := func(ctx context.Context) error {
		calls++
		if calls == 1000 {
			// One mid-schedule stall, two hundred arrivals' worth.
			return clock.Sleep(ctx, 200*time.Millisecond)
		}
		return nil
	}
	res, err := Run(vtime.WithClock(context.Background(), clock), Config{Rate: rate, Duration: horizon}, op)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheduled != 2000 || res.Issued != 2000 {
		t.Fatalf("scheduled/issued = %d/%d, want 2000/2000 (open loop must offer the full schedule)", res.Scheduled, res.Issued)
	}
	if res.Errors != 0 {
		t.Fatalf("errors = %d", res.Errors)
	}
	// The stalled request and the ~200 arrivals scheduled during the
	// stall all measure from their due time: max ≈ 200ms and p99 well
	// above the un-stalled baseline (which is ~0 on a virtual clock).
	if max := res.Latency.Max(); max < 190*time.Millisecond {
		t.Fatalf("max latency = %v, want ~200ms stall visible", max)
	}
	if p99 := res.Latency.Quantile(0.99); p99 < 50*time.Millisecond {
		t.Fatalf("p99 = %v, want the stall's queueing delay in the tail", p99)
	}
	// A closed-loop harness would have lost ~200 requests during the
	// stall; open-loop keeps the offered count and pays in latency.
	if res.Issued != 2000 {
		t.Fatalf("issued = %d, want 2000", res.Issued)
	}
}

// TestRunDeterministicReplay runs the same virtual-clock scenario twice
// and requires identical results — the property that makes load-smoke
// usable as a CI gate.
func TestRunDeterministicReplay(t *testing.T) {
	runOnce := func() *Result {
		clock := vtime.NewVirtual(time.Unix(0, 0))
		calls := 0
		res, err := Run(vtime.WithClock(context.Background(), clock), Config{Rate: 500, Duration: time.Second}, func(ctx context.Context) error {
			calls++
			if calls%100 == 0 {
				return clock.Sleep(ctx, 5*time.Millisecond)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := runOnce(), runOnce()
	if a.Issued != b.Issued || a.Elapsed != b.Elapsed ||
		a.Latency.Quantile(0.999) != b.Latency.Quantile(0.999) ||
		a.Latency.Max() != b.Latency.Max() {
		t.Fatalf("virtual runs diverged: %+v vs %+v", a, b)
	}
}

func TestRunWallClockSmoke(t *testing.T) {
	// A tiny real-time run: 50 req over 100ms with a trivial op. Checks
	// the multi-worker path end to end without meaningful wall cost.
	res, err := Run(context.Background(), Config{Rate: 500, Duration: 100 * time.Millisecond, Workers: 4}, func(context.Context) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if res.Issued != res.Scheduled {
		t.Fatalf("issued %d of %d", res.Issued, res.Scheduled)
	}
}

func TestRunCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Run(ctx, Config{Rate: 100, Duration: time.Second, Workers: 2}, func(context.Context) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || res.Issued >= res.Scheduled {
		t.Fatalf("canceled run should report partial issue count, got %+v", res)
	}
}

// TestRunShedOutcomeClass: ops failing with (wrapped) ErrShed land in the
// Shed counter, not Errors — backpressure is its own outcome class.
func TestRunShedOutcomeClass(t *testing.T) {
	clock := vtime.NewVirtual(time.Unix(0, 0))
	calls := 0
	res, err := Run(vtime.WithClock(context.Background(), clock), Config{Rate: 100, Duration: time.Second},
		func(context.Context) error {
			calls++
			switch calls % 4 {
			case 0:
				return ErrShed
			case 1:
				return fmt.Errorf("server said no: %w", ErrShed)
			case 2:
				return errors.New("hard failure")
			default:
				return nil
			}
		})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Issued != 100 || res.Shed != 50 || res.Errors != 25 || res.OK() != 25 {
		t.Fatalf("issued %d shed %d errors %d ok %d, want 100/50/25/25",
			res.Issued, res.Shed, res.Errors, res.OK())
	}
	var buf strings.Builder
	res.Format(&buf)
	if !strings.Contains(buf.String(), "shed 50") {
		t.Fatalf("report does not surface the shed count:\n%s", buf.String())
	}
}
