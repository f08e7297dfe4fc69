package cloud

import (
	"errors"
	"math/rand"
	"testing"
)

// TestPolicyValidateRejects: every inconsistent bound, capacity or target
// is ErrConfig — the check NewAutoscaler relies on.
func TestPolicyValidateRejects(t *testing.T) {
	bad := []Policy{
		{MinReplicas: 0, MaxReplicas: 1, ReplicaCapacity: 1, TargetUtilization: 0.5},
		{MinReplicas: 2, MaxReplicas: 1, ReplicaCapacity: 1, TargetUtilization: 0.5},
		{MinReplicas: 1, MaxReplicas: 2, ReplicaCapacity: 0, TargetUtilization: 0.5},
		{MinReplicas: 1, MaxReplicas: 2, ReplicaCapacity: 1, TargetUtilization: 0},
		{MinReplicas: 1, MaxReplicas: 2, ReplicaCapacity: 1, TargetUtilization: 1.5},
	}
	for i, p := range bad {
		if err := p.Validate(); !errors.Is(err, ErrConfig) {
			t.Errorf("policy %d (%+v): err = %v, want ErrConfig", i, p, err)
		}
	}
}

// TestPolicyDesiredBounds: for any demand, the desired count stays inside
// [MinReplicas, MaxReplicas].
func TestPolicyDesiredBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		p := Policy{
			MinReplicas:       1 + rng.Intn(5),
			MaxReplicas:       1 + rng.Intn(20),
			ReplicaCapacity:   1 + rng.Intn(500),
			TargetUtilization: 0.05 + 0.95*rng.Float64(),
		}
		if p.MaxReplicas < p.MinReplicas {
			p.MaxReplicas = p.MinReplicas
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("generated invalid policy: %v", err)
		}
		d := rng.Intn(100000)
		got := p.Desired(d)
		if got < p.MinReplicas || got > p.MaxReplicas {
			t.Fatalf("Desired(%d) = %d outside [%d,%d] for %+v", d, got, p.MinReplicas, p.MaxReplicas, p)
		}
	}
}

// TestPolicyDesiredMonotone: more demand never wants fewer replicas.
func TestPolicyDesiredMonotone(t *testing.T) {
	p := Policy{MinReplicas: 1, MaxReplicas: 12, ReplicaCapacity: 40, TargetUtilization: 0.7}
	prev := 0
	for d := 0; d <= 2000; d++ {
		got := p.Desired(d)
		if got < prev {
			t.Fatalf("Desired(%d) = %d < Desired(%d) = %d", d, got, d-1, prev)
		}
		prev = got
	}
}

// TestPolicyDesiredHeadroom: the pool the policy asks for can absorb the
// demand at or below the target utilization whenever the max bound allows
// it at all — the defining property of target-utilization sizing.
func TestPolicyDesiredHeadroom(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		p := Policy{
			MinReplicas:       1,
			MaxReplicas:       1 + rng.Intn(30),
			ReplicaCapacity:   1 + rng.Intn(200),
			TargetUtilization: 0.05 + 0.95*rng.Float64(),
		}
		d := rng.Intn(5000)
		n := p.Desired(d)
		per := int(float64(p.ReplicaCapacity) * p.TargetUtilization)
		if per < 1 {
			per = 1
		}
		// If the clamp didn't bite, n replicas at target utilization cover d.
		if n < p.MaxReplicas && n*per < d {
			t.Fatalf("Desired(%d) = %d covers only %d at target for %+v", d, n, n*per, p)
		}
	}
}

// TestPolicyEvaluateDirection: Evaluate's direction always agrees with the
// sign of target-current, and target is exactly Desired.
func TestPolicyEvaluateDirection(t *testing.T) {
	p := Policy{MinReplicas: 2, MaxReplicas: 10, ReplicaCapacity: 50, TargetUtilization: 0.8}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		d, cur := rng.Intn(2000), 1+rng.Intn(12)
		target, dir := p.Evaluate(d, cur)
		if target != p.Desired(d) {
			t.Fatalf("Evaluate target %d != Desired %d", target, p.Desired(d))
		}
		want := Hold
		if target > cur {
			want = ScaleUp
		} else if target < cur {
			want = ScaleDown
		}
		if dir != want {
			t.Fatalf("Evaluate(%d,%d) dir %v, want %v", d, cur, dir, want)
		}
	}
}

// TestCooldownSpacing: over a random action stream, Cooldown never admits
// two fired actions closer than the window, and the first is never gated.
func TestCooldownSpacing(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 200; trial++ {
		var c Cooldown
		window := int64(1 + rng.Intn(20))
		now := int64(0)
		lastFired := int64(-1)
		firedAny := false
		for step := 0; step < 200; step++ {
			now += int64(rng.Intn(5))
			if !c.Ready(now, window) {
				continue
			}
			if rng.Intn(2) == 0 {
				continue // policy said Hold; Ready without Fire must not consume the window
			}
			if firedAny && now-lastFired < window {
				t.Fatalf("trial %d: actions at %d and %d violate window %d", trial, lastFired, now, window)
			}
			c.Fire(now)
			lastFired, firedAny = now, true
		}
		if !firedAny && window > 0 {
			// The zero value must admit the first action immediately.
			if !c.Ready(0, window) {
				t.Fatalf("zero-value cooldown gated the first action")
			}
		}
	}
}
