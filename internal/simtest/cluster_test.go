package simtest

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"soc/internal/cloud"
	"soc/internal/faultinject"
)

// rampProfile is the smoke's load shape: 5 warm windows at 20 req/s, a
// 10-window ramp to 200, 10 at peak, a 10-window ramp back down, 10 cool
// windows at 10 — enough swing to force scale-up to the maximum and
// scale-down drains on the way back.
func rampProfile() []int {
	var p []int
	for i := 0; i < 5; i++ {
		p = append(p, 20)
	}
	for i := 1; i <= 10; i++ {
		p = append(p, 20+18*i)
	}
	for i := 0; i < 10; i++ {
		p = append(p, 200)
	}
	for i := 1; i <= 10; i++ {
		p = append(p, 200-18*i)
	}
	for i := 0; i < 10; i++ {
		p = append(p, 10)
	}
	return p
}

// doorConfig is a world with a front door sized by policy, perfect disks,
// and 3 % injected 503s on every replica link as its only fault.
func doorConfig(policy cloud.Policy) Config {
	return Config{
		Door:       policy,
		Faults:     &faultinject.Rule{ErrorRate: 0.03},
		DiskFaults: &faultinject.DiskRule{},
	}
}

var smokePolicy = cloud.Policy{MinReplicas: 2, MaxReplicas: 6, ReplicaCapacity: 50, TargetUtilization: 0.7}

// smokeSchedule is the canned cluster schedule: the ramp with one
// replica killed in the middle of each slope.
func smokeSchedule() Schedule { return ClusterSchedule(1, rampProfile(), 9, 28) }

func runClean(t *testing.T, cfg Config, sched Schedule) *RunRecord {
	t.Helper()
	rec, err := Run(cfg, sched)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, v := range rec.Violations {
		t.Errorf("violation: %s", v)
	}
	if t.Failed() {
		for _, line := range rec.Log {
			t.Log(line)
		}
		t.FailNow()
	}
	again, err := Run(cfg, sched)
	if err != nil {
		t.Fatalf("Run (replay): %v", err)
	}
	if again.Hash != rec.Hash {
		t.Fatalf("replay diverged: %s != %s", again.Hash, rec.Hash)
	}
	return rec
}

// TestClusterSmoke is the `make cluster-smoke` gate: the canned
// elastic-cluster schedule — load ramping up and down through the front
// door with replica kills mid-ramp — must finish with zero invariant
// violations (the ledger closes, the pool stays bounded, scale-down
// drains, expired replicas never get picked) and must replay to the
// identical hash.
func TestClusterSmoke(t *testing.T) {
	rec := runClean(t, doorConfig(smokePolicy), smokeSchedule())

	// The scenario must actually exercise the machinery it gates. Both
	// kills must happen; at least the up-ramp one leaves via lease
	// expiry (the down-ramp kill may exit through the drain path instead,
	// if scale-down picked the dead replica as its victim — either way
	// the expiry invariant holds it out of rotation).
	kills := 0
	for _, sr := range rec.Steps {
		if sr.Step.Kind == StepKillReplica && sr.Out != "-" {
			kills++
		}
	}
	if kills != 2 {
		t.Errorf("kills = %d, want 2", kills)
	}
	final := rec.Pool[len(rec.Pool)-1]
	if final.Lost < 1 {
		t.Errorf("lease-reaped = %d, want at least 1", final.Lost)
	}
	if final.Stopped == 0 {
		t.Error("no replica was ever drained and stopped: the ramp-down never exercised scale-down")
	}
	if final.Launched <= 2 {
		t.Errorf("launched = %d: the ramp-up never exercised scale-up", final.Launched)
	}
	if rec.Door.Gateway > rec.Door.OK/50 {
		t.Errorf("gateway errors %d exceed 2%% of %d successes: retry is not covering kills", rec.Door.Gateway, rec.Door.OK)
	}
	if rec.Door.OK == 0 || rec.Door.Faulted == 0 {
		t.Errorf("outcome classes missing: ok=%d faulted=%d", rec.Door.OK, rec.Door.Faulted)
	}
}

// TestClusterSmokeCustomPolicy pins the scenario's scaling arithmetic on
// a second configuration, so the gate is not tuned to one profile.
func TestClusterSmokeCustomPolicy(t *testing.T) {
	policy := cloud.Policy{MinReplicas: 1, MaxReplicas: 4, ReplicaCapacity: 80, TargetUtilization: 0.9}
	runClean(t, doorConfig(policy), ClusterSchedule(42, rampProfile(), 9, 28))
}

// TestClusterWindowsAreOneSecond: a window is one virtual second whatever
// its rate — for rates that do not divide 10⁹ ns the request instants
// are fractional, and a window that ends short makes a one-window
// cooldown "not ready" at the tick it should act on.
func TestClusterWindowsAreOneSecond(t *testing.T) {
	policy := cloud.Policy{MinReplicas: 1, MaxReplicas: 8, ReplicaCapacity: 10, TargetUtilization: 0.75}
	profile := []int{7, 60, 13, 3, 120, 9}
	cfg := doorConfig(policy)
	cfg.Cooldown = time.Second
	rec := runClean(t, cfg, ClusterSchedule(1, profile))
	for i, line := range rec.Log {
		_, rest, _ := strings.Cut(line, " t=")
		ms, _, _ := strings.Cut(rest, "ms ")
		if got, err := strconv.Atoi(ms); err != nil || got != (i+1)*1000 {
			t.Errorf("window %d ended at t=%sms, want %d: %s", i, ms, (i+1)*1000, line)
		}
	}
	// With exact windows the cooldown never costs a window: each tick
	// acts on the demand it just measured, so each window is served by
	// the pool the policy wanted for the window before it (the three
	// quiesce windows demand nothing).
	demand := append(profile, 0, 0, 0)
	for w := 1; w < len(rec.Pool); w++ {
		if got, want := rec.Pool[w].Running, policy.Desired(demand[w-1]); got != want {
			t.Errorf("window %d served with %d replicas, want Desired(demand of window %d) = %d", w, got, w-1, want)
		}
	}
}

// TestClusterKillPicksNewestLaunch: kill-replica takes the newest replica
// by launch id as a number. Compared as strings, door-9 would outrank
// door-10 through door-16.
func TestClusterKillPicksNewestLaunch(t *testing.T) {
	cfg := doorConfig(cloud.Policy{MinReplicas: 1, MaxReplicas: 16, ReplicaCapacity: 10, TargetUtilization: 0.75})
	cfg.Cooldown = time.Second
	profile := []int{10, 10, 20, 60, 120, 120, 120, 120, 80, 30, 10, 10, 10, 10}
	rec := runClean(t, cfg, ClusterSchedule(1, profile, 7))
	at := rec.Pool[7]
	if at.Launched < 10 || at.Draining != 0 {
		t.Fatalf("window 7 began with %d launched, %d draining; want >= 10 and none draining", at.Launched, at.Draining)
	}
	for _, sr := range rec.Steps {
		if sr.Step.Kind == StepKillReplica {
			if want := fmt.Sprintf("door-%d", at.Launched); sr.Out != want {
				t.Fatalf("kill-replica took %s, want the newest launch %s", sr.Out, want)
			}
			return
		}
	}
	t.Fatal("no kill-replica step ran")
}

// TestClusterMutationsTrip proves each cluster invariant can fail: the
// canned schedule that runs clean in TestClusterSmoke must violate the
// targeted invariant under each cluster mutation hook.
func TestClusterMutationsTrip(t *testing.T) {
	cases := []struct {
		mutation, invariant, substr string
	}{
		{MutationLostReply, InvClusterAccounting, "clients saw"},
		{MutationUnderscale, InvClusterBounds, "outside [2,6]"},
		{MutationStopUndrained, InvClusterDrain, "without draining"},
		{MutationZombieHeartbeat, InvClusterExpiry, "still in rotation"},
	}
	for _, tc := range cases {
		t.Run(tc.mutation, func(t *testing.T) {
			cfg := doorConfig(smokePolicy)
			cfg.Mutation = tc.mutation
			rec, err := Run(cfg, smokeSchedule())
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			wantViolation(t, rec.Violations, tc.invariant, tc.substr)
		})
	}
}

// TestClusterShrink: the canned cluster schedule, failing under a
// mutation, shrinks, and the shrunk schedule replays to the same
// invariant with an identical hash, twice.
func TestClusterShrink(t *testing.T) {
	cfg := doorConfig(smokePolicy)
	cfg.Mutation = MutationZombieHeartbeat
	sched := smokeSchedule()
	if !Failing(cfg, sched) {
		t.Fatal("the canned schedule does not fail under the mutation")
	}
	shrunk := Shrink(cfg, sched, 200)
	if len(shrunk.Steps) >= len(sched.Steps) {
		t.Fatalf("shrink kept all %d steps", len(sched.Steps))
	}
	a, err := Run(cfg, shrunk)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	b, err := Run(cfg, shrunk)
	if err != nil {
		t.Fatalf("second replay: %v", err)
	}
	if a.Hash != b.Hash {
		t.Fatalf("shrunk schedule replays diverge: %s vs %s", a.Hash, b.Hash)
	}
	wantViolation(t, a.Violations, InvClusterExpiry, "still in rotation")
	t.Logf("shrunk %d steps to %d:\n%s", len(sched.Steps), len(shrunk.Steps), shrunk.MarshalIndent())
}
