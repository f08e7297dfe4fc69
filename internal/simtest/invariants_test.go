package simtest

import (
	"strings"
	"testing"
	"time"

	"soc/internal/cloud"
	"soc/internal/registry"
	"soc/internal/telemetry"
)

// These are mutation-style tests: each checker is fed an intentionally
// broken fixture and must produce a violation, then the corrected twin
// and must stay silent. A checker that cannot fail checks nothing.

func wantViolation(t *testing.T, vs []Violation, invariant, substr string) {
	t.Helper()
	for _, v := range vs {
		if v.Invariant == invariant && strings.Contains(v.Detail, substr) {
			return
		}
	}
	t.Fatalf("no %s violation containing %q in %v", invariant, substr, vs)
}

func wantClean(t *testing.T, vs []Violation) {
	t.Helper()
	if len(vs) != 0 {
		t.Fatalf("unexpected violations: %v", vs)
	}
}

func TestCheckCacheOnce(t *testing.T) {
	broken := map[string]int{"replica-0|inc-1|CreditScore.Score|ssn=1": 2}
	wantViolation(t, CheckCacheOnce(4, broken), InvCacheOnce, "ran 2 times")
	clean := map[string]int{
		"replica-0|inc-1|CreditScore.Score|ssn=1": 1,
		"replica-0|inc-2|CreditScore.Score|ssn=1": 1, // new incarnation may legally re-run
	}
	wantClean(t, CheckCacheOnce(4, clean))
}

func TestCheckBreakerEdges(t *testing.T) {
	legal := []Transition{
		{Step: 1, From: "closed", To: "open"},
		{Step: 2, From: "open", To: "half-open"},
		{Step: 3, From: "half-open", To: "closed"},
		{Step: 4, From: "half-open", To: "open"},
	}
	wantClean(t, CheckBreakerEdges(legal))

	illegal := []Transition{{Step: 7, Client: 1, Replica: "http://r0", From: "closed", To: "half-open"}}
	wantViolation(t, CheckBreakerEdges(illegal), InvBreakerFSM, "closed→half-open")
	skip := []Transition{{Step: 8, From: "open", To: "closed"}}
	wantViolation(t, CheckBreakerEdges(skip), InvBreakerFSM, "open→closed")
}

// span builds a test span; parent zero means root.
func span(trace byte, id byte, parent byte, name string, kind telemetry.Kind) telemetry.Span {
	sp := telemetry.Span{Name: name, Kind: kind}
	sp.TraceID = telemetry.TraceID{trace}
	sp.SpanID = telemetry.SpanID{id}
	if parent != 0 {
		sp.Parent = telemetry.SpanID{parent}
	}
	return sp
}

func TestCheckTraceStepWellFormed(t *testing.T) {
	root := span(1, 1, 0, "call CreditScore.Score", telemetry.KindClient)
	attempt := span(1, 2, 1, "attempt", telemetry.KindClient)
	attempt.Attempt = 1
	server := span(1, 3, 2, "CreditScore.Score", telemetry.KindServer)
	wantClean(t, CheckTraceStep(0, StepCall, []telemetry.Span{root, attempt, server}))
}

func TestCheckTraceStepNonCallStepsExempt(t *testing.T) {
	wantClean(t, CheckTraceStep(0, StepKill, nil))
	wantClean(t, CheckTraceStep(0, StepAdvance, nil))
}

func TestCheckTraceStepNoSpans(t *testing.T) {
	wantViolation(t, CheckTraceStep(2, StepCall, nil), InvTraceTree, "no spans")
}

func TestCheckTraceStepSplitTrace(t *testing.T) {
	a := span(1, 1, 0, "call", telemetry.KindClient)
	b := span(2, 2, 0, "stray", telemetry.KindServer)
	wantViolation(t, CheckTraceStep(3, StepCall, []telemetry.Span{a, b}), InvTraceTree, "2 traces")
}

func TestCheckTraceStepMultipleRoots(t *testing.T) {
	a := span(1, 1, 0, "call", telemetry.KindClient)
	b := span(1, 2, 0, "second root", telemetry.KindServer)
	wantViolation(t, CheckTraceStep(4, StepCall, []telemetry.Span{a, b}), InvTraceTree, "2 roots")
}

func TestCheckTraceStepOrphanAttempt(t *testing.T) {
	orphan := span(1, 2, 9, "attempt", telemetry.KindClient) // parent 9 never recorded
	orphan.Attempt = 2
	vs := CheckTraceStep(5, StepCall, []telemetry.Span{orphan})
	wantViolation(t, vs, InvTraceTree, "surfaced as a root")
	wantViolation(t, vs, InvTraceTree, "not in the trace")
}

func TestCheckTraceStepCachedDuration(t *testing.T) {
	root := span(1, 1, 0, "call", telemetry.KindClient)
	hit := span(1, 2, 1, "cache hit", telemetry.KindCache)
	hit.Cached = true
	hit.Duration = 3 * time.Millisecond
	wantViolation(t, CheckTraceStep(6, StepWorkflow, []telemetry.Span{root, hit}), InvTraceTree, "cached span")
	hit.Duration = 0
	wantClean(t, CheckTraceStep(6, StepWorkflow, []telemetry.Span{root, hit}))
}

func TestCheckDelivery(t *testing.T) {
	wantClean(t, CheckDelivery(1, 3, 2, 1))
	wantClean(t, CheckDelivery(1, 0, 0, 0))
	wantViolation(t, CheckDelivery(2, 2, 1, 0), InvDelivery, "2 requests delivered but 1 terminal")
	wantViolation(t, CheckDelivery(3, 1, 1, 1), InvDelivery, "1 requests delivered but 2 terminal")
}

func TestCheckQoSBounds(t *testing.T) {
	agg := QoSAgg{Samples: 4, Succ: 3, MinRTT: 10 * time.Millisecond, MaxRTT: 30 * time.Millisecond}
	good := registry.QoS{Uptime: 0.75, MeanRTT: 20 * time.Millisecond, Samples: 4}
	wantClean(t, CheckQoSBounds(1, "Svc", agg, good, true))

	bad := good
	bad.Samples = 5
	wantViolation(t, CheckQoSBounds(2, "Svc", agg, bad, true), InvQoSBounds, "5 samples")

	bad = good
	bad.Uptime = 0.5
	wantViolation(t, CheckQoSBounds(3, "Svc", agg, bad, true), InvQoSBounds, "uptime")

	bad = good
	bad.MeanRTT = 50 * time.Millisecond
	wantViolation(t, CheckQoSBounds(4, "Svc", agg, bad, true), InvQoSBounds, "outside observed")

	wantViolation(t, CheckQoSBounds(5, "Svc", agg, registry.QoS{}, false), InvQoSBounds, "no QoS record")

	wantViolation(t, CheckQoSBounds(6, "Svc", QoSAgg{}, registry.QoS{Samples: 2}, true), InvQoSBounds, "no observations were fed")
	wantClean(t, CheckQoSBounds(6, "Svc", QoSAgg{}, registry.QoS{}, false))

	allDown := QoSAgg{Samples: 2}
	wantViolation(t, CheckQoSBounds(7, "Svc", allDown, registry.QoS{Uptime: 0, MeanRTT: time.Millisecond, Samples: 2}, true),
		InvQoSBounds, "zero successful")
	wantClean(t, CheckQoSBounds(7, "Svc", allDown, registry.QoS{Uptime: 0, MeanRTT: 0, Samples: 2}, true))
}

// fakeDirectory is a minimal DirectoryReader for mutating the durable
// invariant's inputs without a real WAL behind them.
type fakeDirectory map[string]registry.Entry

func (f fakeDirectory) Get(name string) (registry.Entry, error) {
	e, ok := f[name]
	if !ok {
		return registry.Entry{}, registry.ErrNotFound
	}
	return e, nil
}

func (f fakeDirectory) List(bool) []registry.Entry {
	out := make([]registry.Entry, 0, len(f))
	for _, e := range f {
		out = append(out, e)
	}
	return out
}

func TestCheckDurable(t *testing.T) {
	entry := registry.Entry{
		Name: "MazeSolver", Endpoint: "sim://alpha", Category: "games/maze",
		Provider:     "replica-0",
		Published:    time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC),
		LeaseExpires: time.Date(2030, 1, 1, 1, 0, 0, 0, time.UTC),
	}
	acked := map[string]registry.Entry{entry.Name: entry}

	// Faithful recovery: ledger and directory agree exactly.
	wantClean(t, CheckDurable(1, "replica-0", acked, fakeDirectory{entry.Name: entry}))

	// Lost write: an acked entry is gone after recovery.
	wantViolation(t, CheckDurable(2, "replica-0", acked, fakeDirectory{}),
		InvDurable, "not discoverable")

	// Mangled recovery: present but the lease does not match the ack.
	stale := entry
	stale.LeaseExpires = stale.LeaseExpires.Add(-time.Minute)
	wantViolation(t, CheckDurable(3, "replica-0", acked, fakeDirectory{entry.Name: stale}),
		InvDurable, "diverged from its acked state")

	// Resurrection: a never-acked (nacked or rolled-back) entry reappears.
	ghost := entry
	ghost.Name = "Ghost"
	wantViolation(t, CheckDurable(4, "replica-0", acked,
		fakeDirectory{entry.Name: entry, ghost.Name: ghost}),
		InvDurable, "never acked")
}

func TestCheckClusterAccounting(t *testing.T) {
	st := cloud.FrontDoorStats{Admitted: 10, Completed: 8, Errored: 1, ShedBusy: 1, ShedQueue: 2}
	seen := DoorOutcomes{OK: 7, Faulted: 1, Gateway: 1, Shed: 3}
	wantClean(t, CheckClusterAccounting(1, st, seen))

	// An admitted request that left no trace: the ledger does not close.
	dropped := st
	dropped.Admitted = 11
	wantViolation(t, CheckClusterAccounting(2, dropped, seen), InvClusterAccounting, "admitted 11 != completed 8")

	// A completion the client never heard back from.
	lost := seen
	lost.OK = 6
	wantViolation(t, CheckClusterAccounting(3, st, lost), InvClusterAccounting, "clients saw ok=6")

	// A shed the client took for an injected fault.
	misread := seen
	misread.Shed, misread.Faulted = 2, 2
	wantViolation(t, CheckClusterAccounting(4, st, misread), InvClusterAccounting, "shed=2")

	other := seen
	other.Other = 1
	wantViolation(t, CheckClusterAccounting(5, st, other), InvClusterAccounting, "no known class")
}

func TestCheckClusterBounds(t *testing.T) {
	p := cloud.Policy{MinReplicas: 2, MaxReplicas: 6, ReplicaCapacity: 50, TargetUtilization: 0.7}
	wantClean(t, CheckClusterBounds(1, cloud.AutoscalerStats{Running: 2}, p))
	wantClean(t, CheckClusterBounds(1, cloud.AutoscalerStats{Running: 6, Draining: 3}, p))
	wantViolation(t, CheckClusterBounds(2, cloud.AutoscalerStats{Running: 1}, p), InvClusterBounds, "running 1 outside [2,6]")
	wantViolation(t, CheckClusterBounds(3, cloud.AutoscalerStats{Running: 7}, p), InvClusterBounds, "running 7 outside [2,6]")
}

func TestCheckClusterDrain(t *testing.T) {
	at := func(s int) time.Time { return simEpoch.Add(time.Duration(s) * time.Second) }
	drained := ReplicaLife{Name: "door-3", Drained: at(4), Stopped: at(5)}
	lost := ReplicaLife{Name: "door-4", Stopped: at(9), Lost: true}
	running := ReplicaLife{Name: "door-5", Drained: at(6)}
	wantClean(t, CheckClusterDrain(1, []ReplicaLife{drained, lost, running}))

	// Stopped without ever draining, and stopped at the very boundary
	// that first saw it draining: both dropped whatever it held.
	undrained := ReplicaLife{Name: "door-6", Stopped: at(5)}
	wantViolation(t, CheckClusterDrain(2, []ReplicaLife{undrained}), InvClusterDrain, "door-6 stopped at t=5000ms without draining")
	sameTick := ReplicaLife{Name: "door-7", Drained: at(5), Stopped: at(5)}
	wantViolation(t, CheckClusterDrain(3, []ReplicaLife{sameTick}), InvClusterDrain, "door-7 stopped")

	// A delivery that reached a stopped replica.
	late := drained
	late.Late = 2
	wantViolation(t, CheckClusterDrain(4, []ReplicaLife{late}), InvClusterDrain, "2 deliveries reached door-3 after its stop")
}

func TestCheckClusterExpiry(t *testing.T) {
	at := func(s int) time.Time { return simEpoch.Add(time.Duration(s) * time.Second) }
	healthy := ReplicaLife{Name: "door-1", InRotation: true, Picks: 40}
	expiring := ReplicaLife{Name: "door-2", Killed: at(10), InRotation: true, Picks: 7}
	gone := ReplicaLife{Name: "door-3", Killed: at(10), Gone: at(16), GonePicks: 9, Picks: 9}
	wantClean(t, CheckClusterExpiry(1, at(17), []ReplicaLife{healthy, expiring, gone}))

	// Still in rotation more than two windows past its lapsed lease.
	wantViolation(t, CheckClusterExpiry(2, at(18), []ReplicaLife{expiring}), InvClusterExpiry, "door-2 killed at t=10000ms still in rotation at t=18000ms")

	back := gone
	back.InRotation = true
	wantViolation(t, CheckClusterExpiry(3, at(20), []ReplicaLife{back}), InvClusterExpiry, "re-entered rotation")

	picked := gone
	picked.Picks = 10
	wantViolation(t, CheckClusterExpiry(4, at(20), []ReplicaLife{picked}), InvClusterExpiry, "picks 9 -> 10")
}

func TestCheckHealthEdges(t *testing.T) {
	probe := func(step int, up, healthy bool) HealthProbe {
		return HealthProbe{Step: step, Replica: "replica-0", Up: up, Healthy: healthy}
	}
	// fall 2, rise 2: demoted on the second straight failure, promoted on
	// the second straight success; a lone success does not reset the
	// demotion, and a lone failure does not cost a healthy replica.
	clean := []HealthProbe{
		probe(1, false, true), probe(2, true, true), probe(3, false, true), probe(4, false, false),
		probe(5, true, false), probe(6, false, false), probe(7, true, false), probe(8, true, true),
	}
	wantClean(t, CheckHealthEdges(clean, 2, 2))
	// Other replicas keep their own streaks.
	wantClean(t, CheckHealthEdges([]HealthProbe{
		probe(1, false, true), {Step: 2, Replica: "replica-1", Up: false, Healthy: true}, probe(3, false, false),
	}, 2, 2))

	early := []HealthProbe{probe(1, false, false)}
	wantViolation(t, CheckHealthEdges(early, 2, 2), InvHealthEdges, "replica-0 demoted after 1 consecutive failures")
	missed := []HealthProbe{probe(1, false, true), probe(2, false, true)}
	wantViolation(t, CheckHealthEdges(missed, 2, 2), InvHealthEdges, "not demoted after 2 consecutive failures")
	earlyUp := []HealthProbe{probe(1, false, true), probe(2, false, false), probe(3, true, true)}
	wantViolation(t, CheckHealthEdges(earlyUp, 2, 2), InvHealthEdges, "promoted after 0 consecutive failures and 1 successes")
	missedUp := []HealthProbe{probe(1, false, true), probe(2, false, false), probe(3, true, false), probe(4, true, false)}
	wantViolation(t, CheckHealthEdges(missedUp, 2, 2), InvHealthEdges, "not promoted")

	// One divergence is one report: the audit follows the checker after it.
	if vs := CheckHealthEdges([]HealthProbe{probe(1, false, false), probe(2, false, false)}, 2, 2); len(vs) != 1 || vs[0].Step != 1 {
		t.Fatalf("violations = %v, want exactly one, at step 1", vs)
	}
}
