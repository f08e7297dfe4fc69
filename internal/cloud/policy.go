package cloud

import (
	"errors"
	"fmt"
)

// ErrConfig reports an invalid policy, autoscaler or replica
// configuration.
var ErrConfig = errors.New("cloud: invalid configuration")

// Policy is the pure scaling decision: given observed demand for one
// evaluation window, how many replicas should exist. The Autoscaler
// calls it once per Tick; it holds no clock and no state, so it is
// property-tested on its own (policy_test.go).
//
// ReplicaCapacity is "requests one replica absorbs per evaluation
// window", where a window is the autoscaler's evaluation interval.
// Cooldown — the only stateful part of a scaling decision — lives in
// its own type.
type Policy struct {
	// MinReplicas and MaxReplicas bound the pool.
	MinReplicas, MaxReplicas int
	// ReplicaCapacity is the requests one replica absorbs per window.
	ReplicaCapacity int
	// TargetUtilization is the desired demand/capacity ratio in (0,1]:
	// the pool is sized so each replica runs at this fraction of its
	// capacity, leaving headroom for bursts.
	TargetUtilization float64
}

// Validate reports whether the policy is self-consistent.
func (p Policy) Validate() error {
	switch {
	case p.MinReplicas < 1 || p.MaxReplicas < p.MinReplicas:
		return fmt.Errorf("%w: replicas [%d,%d]", ErrConfig, p.MinReplicas, p.MaxReplicas)
	case p.ReplicaCapacity < 1:
		return fmt.Errorf("%w: capacity %d", ErrConfig, p.ReplicaCapacity)
	case p.TargetUtilization <= 0 || p.TargetUtilization > 1:
		return fmt.Errorf("%w: target %v", ErrConfig, p.TargetUtilization)
	}
	return nil
}

// Desired returns the replica count the policy wants for the observed
// demand: enough replicas that each runs at TargetUtilization, clamped
// to [MinReplicas, MaxReplicas]. Pure — same inputs, same answer.
func (p Policy) Desired(demand int) int {
	per := int(float64(p.ReplicaCapacity) * p.TargetUtilization)
	ideal := ceilDiv(demand, per)
	if ideal < p.MinReplicas {
		ideal = p.MinReplicas
	}
	if ideal > p.MaxReplicas {
		ideal = p.MaxReplicas
	}
	return ideal
}

func ceilDiv(a, b int) int {
	if b <= 0 {
		return a
	}
	return (a + b - 1) / b
}

// Direction classifies one evaluation's outcome.
type Direction int

// Evaluation outcomes.
const (
	Hold Direction = iota
	ScaleUp
	ScaleDown
)

func (d Direction) String() string {
	switch d {
	case ScaleUp:
		return "up"
	case ScaleDown:
		return "down"
	default:
		return "hold"
	}
}

// Evaluate compares the desired count against the current pool size and
// names the direction. Current should count replicas that are coming or
// staying (online + starting), not ones already draining away.
func (p Policy) Evaluate(demand, current int) (target int, dir Direction) {
	target = p.Desired(demand)
	switch {
	case target > current:
		return target, ScaleUp
	case target < current:
		return target, ScaleDown
	default:
		return target, Hold
	}
}

// Cooldown gates scaling actions to at most one per window. Instants
// and the window are in one unit of the caller's choosing (the
// autoscaler feeds it clock nanoseconds). The zero value is ready: the
// first action is never gated.
type Cooldown struct {
	last  int64
	fired bool
}

// Ready reports whether an action at instant now respects the window
// since the last fired action.
func (c *Cooldown) Ready(now, window int64) bool {
	return !c.fired || now-c.last >= window
}

// Fire records that a scaling action happened at instant now.
func (c *Cooldown) Fire(now int64) {
	c.last, c.fired = now, true
}
