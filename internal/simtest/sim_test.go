package simtest

import (
	"reflect"
	"strings"
	"testing"

	"soc/internal/faultinject"
)

// TestRunDeterministic is the core contract: the same schedule run twice
// in two fresh worlds produces byte-identical event logs, fault
// injection, breaker churn, kills and all.
func TestRunDeterministic(t *testing.T) {
	sched := GenSchedule(42, 120, 3, 3)
	a, err := Run(Config{}, sched)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	b, err := Run(Config{}, sched)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if a.Hash != b.Hash {
		t.Fatalf("same schedule, different hashes: %s vs %s", a.Hash, b.Hash)
	}
	if !reflect.DeepEqual(a.Log, b.Log) {
		for i := range a.Log {
			if i < len(b.Log) && a.Log[i] != b.Log[i] {
				t.Fatalf("logs diverge at step %d:\n  %s\n  %s", i, a.Log[i], b.Log[i])
			}
		}
		t.Fatalf("logs differ in length: %d vs %d", len(a.Log), len(b.Log))
	}
}

// TestSeedsDiffer sanity-checks that the seed actually drives the world:
// different seeds must not collapse onto one trajectory.
func TestSeedsDiffer(t *testing.T) {
	a, err := Run(Config{}, GenSchedule(1, 60, 3, 3))
	if err != nil {
		t.Fatalf("seed 1: %v", err)
	}
	b, err := Run(Config{}, GenSchedule(2, 60, 3, 3))
	if err != nil {
		t.Fatalf("seed 2: %v", err)
	}
	if a.Hash == b.Hash {
		t.Fatalf("seeds 1 and 2 produced the same hash %s", a.Hash)
	}
}

// TestCorpusInvariantsHold runs a small seed corpus under the default
// chaos mix and expects every invariant to hold — the stack's promises
// survive faults, kills and clock skew.
func TestCorpusInvariantsHold(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rec, err := Run(Config{}, GenSchedule(seed, 80, 3, 3))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, v := range rec.Violations {
			t.Errorf("seed %d: %s", seed, v)
		}
	}
}

// TestScheduleRoundTrip: a generated schedule survives the JSON round
// trip that replaying a shrunk schedule depends on, and replaying the
// parsed copy reproduces the original run's hash.
func TestScheduleRoundTrip(t *testing.T) {
	sched := GenSchedule(7, 50, 3, 3)
	parsed, err := ParseSchedule([]byte(sched.MarshalIndent()))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if !reflect.DeepEqual(sched, parsed) {
		t.Fatalf("schedule did not survive the JSON round trip")
	}
	a, err := Run(Config{}, sched)
	if err != nil {
		t.Fatalf("original: %v", err)
	}
	b, err := Run(Config{}, parsed)
	if err != nil {
		t.Fatalf("parsed: %v", err)
	}
	if a.Hash != b.Hash {
		t.Fatalf("replay of parsed schedule diverged: %s vs %s", a.Hash, b.Hash)
	}
}

func TestGenScheduleDeterministic(t *testing.T) {
	if !reflect.DeepEqual(GenSchedule(9, 40, 2, 2), GenSchedule(9, 40, 2, 2)) {
		t.Fatal("GenSchedule is not a pure function of its arguments")
	}
}

// TestCacheHitPath drives the cache-once machinery directly: in a
// fault-free world the second identical idempotent call is answered by
// the response cache (a cache span, no second server span) and the
// handler-run ledger shows exactly one execution per distinct input.
func TestCacheHitPath(t *testing.T) {
	cfg := Config{Faults: &faultinject.Rule{}}
	call := Step{Kind: StepCall, Client: 0, Service: "CreditScore", Op: "Score",
		Args: map[string]string{"ssn": "123-45-6789"}}
	rec, err := Run(cfg, Schedule{Seed: 3, Steps: []Step{call, call, call}})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(rec.Violations) > 0 {
		t.Fatalf("violations: %v", rec.Violations)
	}
	if rec.Steps[0].CacheSpans != 0 || rec.Steps[0].ServerSpans != 1 {
		t.Fatalf("first call: server=%d cache=%d, want 1/0", rec.Steps[0].ServerSpans, rec.Steps[0].CacheSpans)
	}
	for i := 1; i < 3; i++ {
		if rec.Steps[i].CacheSpans != 1 || rec.Steps[i].ServerSpans != 0 {
			t.Fatalf("call %d: server=%d cache=%d, want 0/1 (cache hit)", i, rec.Steps[i].ServerSpans, rec.Steps[i].CacheSpans)
		}
	}
	for key, n := range rec.HandlerRuns {
		if n != 1 {
			t.Errorf("handler ran %d times for %s", n, key)
		}
	}
}

// TestKillAndRestart: with every replica dead calls fail; after a
// restart and a cooldown's worth of virtual time they succeed again.
func TestKillAndRestart(t *testing.T) {
	cfg := Config{Faults: &faultinject.Rule{}}
	call := Step{Kind: StepCall, Client: 1, Service: "RandomString", Op: "CheckStrength",
		Args: map[string]string{"password": "hunter2"}}
	rec, err := Run(cfg, Schedule{Seed: 5, Steps: []Step{
		{Kind: StepKill, Replica: 0}, {Kind: StepKill, Replica: 1}, {Kind: StepKill, Replica: 2},
		call,
		{Kind: StepRestart, Replica: 0},
		{Kind: StepAdvance, AdvanceMs: 5000},
		call,
	}})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(rec.Violations) > 0 {
		t.Fatalf("violations: %v", rec.Violations)
	}
	if rec.Steps[3].Err == "" {
		t.Fatal("call with all replicas dead unexpectedly succeeded")
	}
	if !strings.Contains(rec.Steps[3].Err, "connection refused") {
		t.Fatalf("dead-replica call failed with %q, want a refused connection", rec.Steps[3].Err)
	}
	if rec.Steps[6].Err != "" {
		t.Fatalf("call after restart failed: %s", rec.Steps[6].Err)
	}
}

// TestShrinkWithMinimises checks the minimiser on a synthetic predicate:
// a schedule fails iff it still contains both the kill of replica 1 and
// the CreditScore call. The shrunk schedule must be exactly those two
// steps, in order.
func TestShrinkWithMinimises(t *testing.T) {
	kill := Step{Kind: StepKill, Replica: 1}
	call := Step{Kind: StepCall, Service: "CreditScore", Op: "Score"}
	var steps []Step
	for i := 0; i < 9; i++ {
		steps = append(steps, Step{Kind: StepAdvance, AdvanceMs: int64(i + 1)})
		if i == 2 {
			steps = append(steps, kill)
		}
		if i == 6 {
			steps = append(steps, call)
		}
	}
	failing := func(s Schedule) bool {
		var hasKill, hasCall bool
		for _, st := range s.Steps {
			hasKill = hasKill || reflect.DeepEqual(st, kill)
			hasCall = hasCall || reflect.DeepEqual(st, call)
		}
		return hasKill && hasCall
	}
	shrunk := ShrinkWith(failing, Schedule{Seed: 1, Steps: steps}, 1000)
	want := []Step{kill, call}
	if !reflect.DeepEqual(shrunk.Steps, want) {
		t.Fatalf("shrunk to %v, want %v", shrunk.Steps, want)
	}
	if shrunk.Seed != 1 {
		t.Fatalf("shrinking changed the seed to %d", shrunk.Seed)
	}
}

// TestShrinkWithPassingSchedule: a schedule that does not fail comes
// back untouched.
func TestShrinkWithPassingSchedule(t *testing.T) {
	s := Schedule{Seed: 2, Steps: []Step{{Kind: StepAdvance, AdvanceMs: 10}}}
	got := ShrinkWith(func(Schedule) bool { return false }, s, 100)
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("passing schedule was modified: %v", got)
	}
}

// TestShrinkWithBudgetExhaustion: with a budget too small to finish, the
// minimiser still returns a failing schedule (the best found so far).
func TestShrinkWithBudgetExhaustion(t *testing.T) {
	var steps []Step
	for i := 0; i < 32; i++ {
		steps = append(steps, Step{Kind: StepAdvance, AdvanceMs: int64(i + 1)})
	}
	marker := Step{Kind: StepKill, Replica: 2}
	steps = append(steps, marker)
	failing := func(s Schedule) bool {
		for _, st := range s.Steps {
			if reflect.DeepEqual(st, marker) {
				return true
			}
		}
		return false
	}
	shrunk := ShrinkWith(failing, Schedule{Steps: steps}, 5)
	if !failing(shrunk) {
		t.Fatal("budget-limited shrink returned a passing schedule")
	}
}

// TestDurableDirectoryRecovery drives the acked ⇒ durable contract
// end-to-end through the world: publishes acked on a replica must be
// discoverable after a power-cut kill and a recovering restart, and the
// restart's canonical log line must carry the recovery report so
// recovery itself is pinned by the determinism hash.
func TestDurableDirectoryRecovery(t *testing.T) {
	cfg := Config{Faults: &faultinject.Rule{}, DiskFaults: &faultinject.DiskRule{}}
	rec, err := Run(cfg, Schedule{Seed: 11, Steps: []Step{
		{Kind: StepPublish, Replica: 0, Service: "MazeSolver",
			Args: map[string]string{"endpoint": "sim://alpha", "category": "games/maze"}},
		{Kind: StepPublish, Replica: 0, Service: "WeatherMap",
			Args: map[string]string{"endpoint": "sim://beta", "category": "data/weather"}},
		{Kind: StepAdvance, AdvanceMs: 60000},
		{Kind: StepRenew, Replica: 0, Service: "MazeSolver"},
		{Kind: StepUnpublish, Replica: 0, Service: "WeatherMap"},
		{Kind: StepKill, Replica: 0},
		{Kind: StepRestart, Replica: 0},
		{Kind: StepRenew, Replica: 0, Service: "MazeSolver"},
	}})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, v := range rec.Violations {
		t.Errorf("violation: %s", v)
	}
	for i := 0; i < 5; i++ {
		if rec.Steps[i].Err != "" {
			t.Fatalf("step %d failed on a perfect disk: %s", i, rec.Steps[i].Err)
		}
	}
	// The restart step reports its recovery in the canonical log.
	restart := rec.Steps[6]
	if !strings.Contains(restart.Out, "replayed=") || !strings.Contains(restart.Out, "snap=") {
		t.Fatalf("restart did not log a recovery report: %q", restart.Out)
	}
	// A renew after recovery only acks if the recovered directory still
	// holds the entry — the strongest signal the publish survived.
	if rec.Steps[7].Err != "" {
		t.Fatalf("renew after recovery failed: %s", rec.Steps[7].Err)
	}
}

// TestDirectoryStepsAgainstDeadReplica: mutations against a dead replica
// are refused (never acked) and must not end up durable.
func TestDirectoryStepsAgainstDeadReplica(t *testing.T) {
	cfg := Config{Faults: &faultinject.Rule{}, DiskFaults: &faultinject.DiskRule{}}
	rec, err := Run(cfg, Schedule{Seed: 12, Steps: []Step{
		{Kind: StepKill, Replica: 1},
		{Kind: StepPublish, Replica: 1, Service: "MazeSolver",
			Args: map[string]string{"endpoint": "sim://alpha", "category": "games/maze"}},
		{Kind: StepRestart, Replica: 1},
	}})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, v := range rec.Violations {
		t.Errorf("violation: %s", v)
	}
	if !strings.Contains(rec.Steps[1].Err, "is down") {
		t.Fatalf("publish to a dead replica was not refused: %q", rec.Steps[1].Err)
	}
}

// TestDurableRecoveryDeterministicUnderFaults runs a chaos-heavy
// generated corpus with the default hostile disks twice: recovery
// reports, salvage decisions and directory acks are all part of the
// canonical log, so the hashes must match — and no seed may violate
// acked ⇒ durable.
func TestDurableRecoveryDeterministicUnderFaults(t *testing.T) {
	for seed := int64(20); seed < 24; seed++ {
		sched := GenSchedule(seed, 100, 3, 3)
		a, err := Run(Config{}, sched)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		b, err := Run(Config{}, sched)
		if err != nil {
			t.Fatalf("seed %d rerun: %v", seed, err)
		}
		if a.Hash != b.Hash {
			t.Fatalf("seed %d: recovery is not deterministic: %s vs %s", seed, a.Hash, b.Hash)
		}
		for _, v := range a.Violations {
			t.Errorf("seed %d: %s", seed, v)
		}
	}
}

// TestProbeStepsDriveFailover runs the production health checker inside
// the world: two failed probes of a dead replica demote it in every
// client's failover (calls skip it), two good probes after its restart
// promote it, and with every replica demoted a call tries them all. The
// probe feed keeps qos-bounds and health-edges clean throughout.
func TestProbeStepsDriveFailover(t *testing.T) {
	cfg := Config{Faults: &faultinject.Rule{}, DiskFaults: &faultinject.DiskRule{}}
	probe := func(r int) Step { return Step{Kind: StepProbe, Replica: r} }
	call := Step{Kind: StepCall, Client: 0, Service: "RandomString", Op: "CheckStrength",
		Args: map[string]string{"password": "hunter2"}}
	rec, err := Run(cfg, Schedule{Seed: 13, Steps: []Step{
		{Kind: StepKill, Replica: 0},
		probe(0), probe(0), // 1, 2: demoted on the second failure
		call, // 3: skips replica-0
		{Kind: StepRestart, Replica: 0},
		probe(0), probe(0), // 5, 6: promoted on the second success
		{Kind: StepKill, Replica: 0}, {Kind: StepKill, Replica: 1}, {Kind: StepKill, Replica: 2},
		probe(0), probe(0), probe(1), probe(1), probe(2), probe(2), // 10-15: all demoted
		call, // 16: nothing healthy, so every replica is tried
	}})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, v := range rec.Violations {
		t.Errorf("violation: %s", v)
	}
	for i, want := range map[int]string{1: "healthy=true", 2: "healthy=false", 5: "healthy=false", 6: "healthy=true", 15: "healthy=false"} {
		if got := rec.Steps[i].Out; got != want {
			t.Errorf("probe step %d out = %q, want %q", i, got, want)
		}
	}
	skips := func(i int) int {
		n := 0
		for _, sp := range rec.Steps[i].Spans {
			if sp.Name == "skip" {
				n++
			}
		}
		return n
	}
	if rec.Steps[3].Err != "" || skips(3) != 1 {
		t.Errorf("call past a demoted replica: err=%q skips=%d, want success with 1 skip", rec.Steps[3].Err, skips(3))
	}
	if skips(16) != 0 || !strings.Contains(rec.Steps[16].Err, "connection refused") {
		t.Errorf("call with every replica demoted: err=%q skips=%d, want every replica tried and refused", rec.Steps[16].Err, skips(16))
	}
}

// TestHealthMutationsTrip proves the probe feed's invariants can fail:
// the corpus schedule that TestCorpusInvariantsHold runs clean (seed 1)
// must trip each world-side health mutation's invariant.
func TestHealthMutationsTrip(t *testing.T) {
	cases := []struct {
		mutation, invariant, substr string
	}{
		{MutationEarlyDemote, InvHealthEdges, "demoted after 1 consecutive failures"},
		{MutationDoubleFeed, InvQoSBounds, "registry reports 2 samples, observed 1"},
	}
	for _, tc := range cases {
		t.Run(tc.mutation, func(t *testing.T) {
			rec, err := Run(Config{Mutation: tc.mutation}, GenSchedule(1, 80, 3, 3))
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			wantViolation(t, rec.Violations, tc.invariant, tc.substr)
		})
	}
}
