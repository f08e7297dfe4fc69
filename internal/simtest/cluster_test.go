package simtest

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"soc/internal/cloud"
)

// TestClusterSmoke is the `make cluster-smoke` gate: the deterministic
// elastic-cluster scenario — load ramping up and down with replica
// kills mid-ramp — must finish with zero invariant violations (the
// ledger closes, the pool stays bounded, no drain ever races, expired
// replicas never get picked) and must replay to the identical hash.
func TestClusterSmoke(t *testing.T) {
	rec, err := RunCluster(ClusterConfig{})
	if err != nil {
		t.Fatalf("RunCluster: %v", err)
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

	// The scenario must actually exercise the machinery it gates: the
	// ramp reaches the maximum pool, the descent drains replicas, and
	// both kills are reaped via lease expiry.
	// Both kills must happen; at least the up-ramp one leaves via lease
	// expiry (the down-ramp kill may exit through the drain path instead,
	// if scale-down picked the dead replica as its victim — either way
	// the expiry invariant holds it out of rotation).
	if rec.Killed != 2 {
		t.Errorf("kills = %d, want 2", rec.Killed)
	}
	if rec.Scaler.Lost < 1 {
		t.Errorf("lease-reaped = %d, want at least 1", rec.Scaler.Lost)
	}
	if rec.Scaler.Stopped == 0 {
		t.Error("no replica was ever drained and stopped: the ramp-down never exercised scale-down")
	}
	if rec.Scaler.Launched <= 2 {
		t.Errorf("launched = %d: the ramp-up never exercised scale-up", rec.Scaler.Launched)
	}
	if rec.Gateway > rec.OK/50 {
		t.Errorf("gateway errors %d exceed 2%% of %d successes: retry is not covering kills", rec.Gateway, rec.OK)
	}
	if rec.OK == 0 || rec.Faulted == 0 {
		t.Errorf("outcome classes missing: ok=%d faulted=%d", rec.OK, rec.Faulted)
	}

	// Determinism: the same config replays to the identical event log.
	again, err := RunCluster(ClusterConfig{})
	if err != nil {
		t.Fatalf("RunCluster (replay): %v", err)
	}
	if again.Hash != rec.Hash {
		t.Fatalf("replay diverged: %s != %s", again.Hash, rec.Hash)
	}
}

// TestClusterSmokeCustomPolicy pins the scenario's scaling arithmetic on
// a second configuration, so the gate is not tuned to one profile.
func TestClusterSmokeCustomPolicy(t *testing.T) {
	cfg := ClusterConfig{
		Policy: cloud.Policy{MinReplicas: 1, MaxReplicas: 4, ReplicaCapacity: 80, TargetUtilization: 0.9},
		Seed:   42,
	}
	rec, err := RunCluster(cfg)
	if err != nil {
		t.Fatalf("RunCluster: %v", err)
	}
	for _, v := range rec.Violations {
		t.Errorf("violation: %s", v)
	}
	again, err := RunCluster(cfg)
	if err != nil {
		t.Fatalf("RunCluster (replay): %v", err)
	}
	if again.Hash != rec.Hash {
		t.Fatalf("replay diverged: %s != %s", again.Hash, rec.Hash)
	}
}

// TestClusterWindowsAreOneSecond: a window is one virtual second whatever
// its rate — for rates that do not divide 10⁹ ns the per-request pace
// truncates, and a window that ends short makes a one-window cooldown
// "not ready" at the tick it should act on.
func TestClusterWindowsAreOneSecond(t *testing.T) {
	policy := cloud.Policy{MinReplicas: 1, MaxReplicas: 8, ReplicaCapacity: 10, TargetUtilization: 0.75}
	profile := []int{7, 60, 13, 3, 120, 9}
	rec, err := RunCluster(ClusterConfig{Policy: policy, Cooldown: time.Second, Profile: profile, KillAt: map[int]bool{}})
	if err != nil {
		t.Fatalf("RunCluster: %v", err)
	}
	for _, v := range rec.Violations {
		t.Errorf("violation: %s", v)
	}
	for i, line := range rec.Log {
		_, rest, _ := strings.Cut(line, " t=")
		ms, _, _ := strings.Cut(rest, "ms ")
		if got, err := strconv.Atoi(ms); err != nil || got != (i+1)*1000 {
			t.Errorf("window %d ended at t=%sms, want %d: %s", i, ms, (i+1)*1000, line)
		}
	}
	// With exact windows the cooldown never costs a window: each tick
	// acts on the demand it just measured, so each window is served by
	// the pool the policy wanted for the window before it.
	for w := 1; w < len(rec.Pool); w++ {
		if got, want := rec.Pool[w].Running, policy.Desired(profile[w-1]); got != want {
			t.Errorf("window %d served with %d replicas, want Desired(demand of window %d) = %d", w, got, w-1, want)
		}
	}
}
