package simtest

import (
	"fmt"
	"math"
	"sort"
	"time"

	"soc/internal/cloud"
	"soc/internal/registry"
	"soc/internal/reliability"
	"soc/internal/telemetry"
	"soc/internal/workflow"
)

// Violation is one invariant breach, tagged with the step that exposed
// it. A run with any violation is a failing run; the schedule that
// produced it is the bug report.
type Violation struct {
	Step      int    `json:"step"`
	Invariant string `json:"invariant"`
	Detail    string `json:"detail"`
}

func (v Violation) String() string {
	return fmt.Sprintf("step %d: %s: %s", v.Step, v.Invariant, v.Detail)
}

// Invariant names, one per checker.
const (
	InvCacheOnce  = "cache-once"
	InvBreakerFSM = "breaker-fsm"
	InvTraceTree  = "trace-tree"
	InvQoSBounds  = "qos-bounds"
	InvDelivery   = "delivery"
	InvDurable    = "acked-durable"
	// InvWorkflow is the completes-or-compensates-exactly-once invariant:
	// every workflow journal must audit clean, and recovery must preserve
	// every acked record of every instance.
	InvWorkflow = "workflow-once"
	// InvWorkflowSettle is its liveness half: after the settle phase,
	// every started instance has reached a terminal status.
	InvWorkflowSettle = "workflow-settle"
	// The cluster invariants, checked after every window step of a world
	// with a front door: the door's ledger closes, the pool stays inside
	// the policy, scale-down drains, and killed replicas expire.
	InvClusterAccounting = "cluster-accounting"
	InvClusterBounds     = "cluster-bounds"
	InvClusterDrain      = "cluster-drain"
	InvClusterExpiry     = "cluster-expiry"
	// InvHealthEdges holds the health checker to its hysteresis: a
	// replica is demoted exactly when FallThreshold consecutive probes
	// failed, and promoted exactly when RiseThreshold consecutive probes
	// succeeded.
	InvHealthEdges = "health-edges"
)

// DoorOutcomes classifies what the front door's clients saw.
type DoorOutcomes struct {
	OK      int // 200 from a replica
	Faulted int // 503 injected on a replica's link (no Retry-After)
	Gateway int // 502: every replica attempt failed
	Shed    int // 503 with Retry-After: the door's backpressure
	Other   int // anything else
}

// CheckClusterAccounting verifies the front door's ledger closes: every
// admitted request completed, errored or was shed busy (the world is
// single-threaded, so nothing is in flight between steps), and the
// door's counters agree with its clients — one replica answer (ok or
// injected fault) per completion, one 502 per error, one shed 503 per
// shed, and nothing else.
func CheckClusterAccounting(step int, st cloud.FrontDoorStats, seen DoorOutcomes) []Violation {
	var out []Violation
	bad := func(format string, args ...any) {
		out = append(out, Violation{Step: step, Invariant: InvClusterAccounting, Detail: fmt.Sprintf(format, args...)})
	}
	if st.Admitted != st.Completed+st.Errored+st.ShedBusy {
		bad("admitted %d != completed %d + errored %d + shedBusy %d", st.Admitted, st.Completed, st.Errored, st.ShedBusy)
	}
	if uint64(seen.OK+seen.Faulted) != st.Completed || uint64(seen.Gateway) != st.Errored || uint64(seen.Shed) != st.Shed() {
		bad("clients saw ok=%d fault=%d gw=%d shed=%d; door completed=%d errored=%d shed=%d",
			seen.OK, seen.Faulted, seen.Gateway, seen.Shed, st.Completed, st.Errored, st.Shed())
	}
	if seen.Other > 0 {
		bad("clients saw %d answers of no known class", seen.Other)
	}
	return out
}

// CheckClusterBounds verifies the running pool stays inside the policy's
// [MinReplicas, MaxReplicas].
func CheckClusterBounds(step int, as cloud.AutoscalerStats, p cloud.Policy) []Violation {
	if as.Running >= p.MinReplicas && as.Running <= p.MaxReplicas {
		return nil
	}
	return []Violation{{Step: step, Invariant: InvClusterBounds,
		Detail: fmt.Sprintf("running %d outside [%d,%d]", as.Running, p.MinReplicas, p.MaxReplicas)}}
}

// ReplicaLife is the world's record of one autoscaled replica, read by
// the drain and expiry checkers. Instants are virtual; zero means never.
type ReplicaLife struct {
	Name string
	// Drained is the first window boundary that saw it draining, Stopped
	// when its Stop ran, and Lost that its lease had lapsed by then.
	Drained, Stopped time.Time
	Lost             bool
	// Late counts deliveries that reached it after its Stop.
	Late int
	// Killed is its power cut; Gone the first window boundary after it
	// that found it out of rotation, and GonePicks its picks there.
	Killed, Gone time.Time
	GonePicks    uint64
	// InRotation and Picks are as of the last window boundary.
	InRotation bool
	Picks      uint64
}

// CheckClusterDrain verifies scale-down drains and never drops: a
// replica that was not lost is stopped only after a strictly earlier
// window boundary saw it draining, and no delivery reaches a replica
// after its Stop.
func CheckClusterDrain(step int, lives []ReplicaLife) []Violation {
	var out []Violation
	for _, l := range lives {
		if l.Stopped.IsZero() {
			continue
		}
		if !l.Lost && (l.Drained.IsZero() || !l.Drained.Before(l.Stopped)) {
			out = append(out, Violation{Step: step, Invariant: InvClusterDrain,
				Detail: fmt.Sprintf("%s stopped at t=%dms without draining at an earlier window boundary", l.Name, sinceEpochMs(l.Stopped))})
		}
		if l.Late > 0 {
			out = append(out, Violation{Step: step, Invariant: InvClusterDrain,
				Detail: fmt.Sprintf("%d deliveries reached %s after its stop", l.Late, l.Name)})
		}
	}
	return out
}

// CheckClusterExpiry verifies a killed replica leaves the rotation within
// two windows of its lease lapsing, and never re-enters it or gets picked
// once gone.
func CheckClusterExpiry(step int, now time.Time, lives []ReplicaLife) []Violation {
	var out []Violation
	bad := func(format string, args ...any) {
		out = append(out, Violation{Step: step, Invariant: InvClusterExpiry, Detail: fmt.Sprintf(format, args...)})
	}
	for _, l := range lives {
		switch {
		case l.Killed.IsZero():
		case !l.Gone.IsZero():
			if l.InRotation {
				bad("%s re-entered rotation after expiry", l.Name)
			}
			if l.Picks != l.GonePicks {
				bad("%s picked after leaving rotation at t=%dms: picks %d -> %d", l.Name, sinceEpochMs(l.Gone), l.GonePicks, l.Picks)
			}
		case l.InRotation && now.Sub(l.Killed) > doorLease+2*time.Second:
			bad("%s killed at t=%dms still in rotation at t=%dms (lease %v)", l.Name, sinceEpochMs(l.Killed), sinceEpochMs(now), doorLease)
		}
	}
	return out
}

func sinceEpochMs(t time.Time) int64 { return int64(t.Sub(simEpoch) / time.Millisecond) }

// CheckCacheOnce verifies the idempotent-response cache contract: within
// one replica incarnation, a successful idempotent handler executes at
// most once per distinct input — every later identical request must be
// answered from cache. The runs map is keyed
// "replica|incarnation|Svc.Op|canonical-input" and counts successful
// handler executions.
func CheckCacheOnce(step int, runs map[string]int) []Violation {
	var out []Violation
	for key, n := range runs {
		if n > 1 {
			out = append(out, Violation{
				Step:      step,
				Invariant: InvCacheOnce,
				Detail:    fmt.Sprintf("idempotent handler ran %d times for %s", n, key),
			})
		}
	}
	return out
}

// DirectoryReader is the read surface CheckDurable audits — satisfied by
// *registry.DurableRegistry.
type DirectoryReader interface {
	Get(name string) (registry.Entry, error)
	List(liveOnly bool) []registry.Entry
}

// CheckDurable verifies the acked ⇒ durable contract for one replica's
// directory: every entry in the acked ledger is discoverable, field for
// field (leases and publication times included — recovery must be exact,
// not just present), and nothing the ledger does not account for has
// crept in. Because the ledger only moves on acknowledged mutations and
// the directory recovers from its write-ahead log after crashes, any
// divergence means an acked write was lost, resurrected or mangled.
func CheckDurable(step int, replica string, acked map[string]registry.Entry, dir DirectoryReader) []Violation {
	var out []Violation
	bad := func(format string, args ...any) {
		out = append(out, Violation{Step: step, Invariant: InvDurable, Detail: fmt.Sprintf(format, args...)})
	}
	for name, want := range acked {
		got, err := dir.Get(name)
		if err != nil {
			bad("%s: acked publish of %q is not discoverable: %v", replica, name, err)
			continue
		}
		if !durableEntryEqual(want, got) {
			bad("%s: entry %q diverged from its acked state: acked %s, have %s",
				replica, name, durableEntryString(want), durableEntryString(got))
		}
	}
	for _, e := range dir.List(false) {
		if _, ok := acked[e.Name]; !ok {
			bad("%s: entry %q present but never acked (resurrected nacked write?)", replica, e.Name)
		}
	}
	return out
}

func durableEntryEqual(a, b registry.Entry) bool {
	return a.Name == b.Name && a.Endpoint == b.Endpoint && a.Category == b.Category &&
		a.Doc == b.Doc && a.Provider == b.Provider &&
		a.Published.Equal(b.Published) && a.LeaseExpires.Equal(b.LeaseExpires)
}

func durableEntryString(e registry.Entry) string {
	return fmt.Sprintf("{endpoint=%s category=%s provider=%s published=%s lease=%s}",
		e.Endpoint, e.Category, e.Provider,
		e.Published.UTC().Format(time.RFC3339Nano), e.LeaseExpires.UTC().Format(time.RFC3339Nano))
}

// legalEdges is the circuit breaker's legal transition relation:
// closed→open on threshold, open→half-open after cooldown, half-open
// settles closed (probe success) or back open (probe failure).
var legalEdges = map[[2]string]bool{
	{reliability.Closed.String(), reliability.Open.String()}:     true,
	{reliability.Open.String(), reliability.HalfOpen.String()}:   true,
	{reliability.HalfOpen.String(), reliability.Closed.String()}: true,
	{reliability.HalfOpen.String(), reliability.Open.String()}:   true,
}

// CheckBreakerEdges verifies every observed breaker transition is an
// edge of the legal state machine.
func CheckBreakerEdges(transitions []Transition) []Violation {
	var out []Violation
	for _, t := range transitions {
		if !legalEdges[[2]string{t.From, t.To}] {
			out = append(out, Violation{
				Step:      t.Step,
				Invariant: InvBreakerFSM,
				Detail: fmt.Sprintf("illegal breaker transition %s→%s (client %d, %s)",
					t.From, t.To, t.Client, t.Replica),
			})
		}
	}
	return out
}

// CheckTraceStep verifies the trace plane for one call or workflow step:
// the step's spans reassemble into exactly one well-formed trace — a
// single root with no parent, no orphaned attempt spans surfacing as
// roots, and every cached span zero-duration.
func CheckTraceStep(step int, kind string, spans []telemetry.Span) []Violation {
	if kind != StepCall && kind != StepWorkflow {
		return nil
	}
	var out []Violation
	bad := func(format string, args ...any) {
		out = append(out, Violation{Step: step, Invariant: InvTraceTree, Detail: fmt.Sprintf(format, args...)})
	}
	if len(spans) == 0 {
		bad("%s step produced no spans at all", kind)
		return out
	}
	trees := telemetry.BuildTraces(spans)
	if len(trees) != 1 {
		bad("%s step produced %d traces, want exactly 1", kind, len(trees))
	}
	for _, tree := range trees {
		if len(tree.Roots) != 1 {
			names := make([]string, len(tree.Roots))
			for i, r := range tree.Roots {
				names[i] = r.Span.Name
			}
			bad("trace %s has %d roots %v, want exactly 1", tree.TraceID, len(tree.Roots), names)
		}
		for _, r := range tree.Roots {
			if !r.Span.Parent.IsZero() {
				bad("root span %q carries a parent %s that is not in the trace", r.Span.Name, r.Span.Parent)
			}
			if r.Span.Attempt > 0 {
				bad("attempt span %q #%d surfaced as a root (orphaned from its call span)", r.Span.Name, r.Span.Attempt)
			}
		}
	}
	for _, sp := range spans {
		if sp.Cached && sp.Duration != 0 {
			bad("cached span %q has duration %v, want 0 (cache hits must not fake service time)", sp.Name, sp.Duration)
		}
	}
	return out
}

// CheckDelivery verifies request accounting: every request delivered to
// a live replica produced exactly one terminal span — a server span when
// the handler ran, a cache span when the response cache answered.
func CheckDelivery(step, delivered, serverSpans, cacheSpans int) []Violation {
	if delivered == serverSpans+cacheSpans {
		return nil
	}
	return []Violation{{
		Step:      step,
		Invariant: InvDelivery,
		Detail: fmt.Sprintf("%d requests delivered but %d terminal spans recorded (%d server + %d cache)",
			delivered, serverSpans+cacheSpans, serverSpans, cacheSpans),
	}}
}

// CheckWorkflows audits one replica's workflow orchestrator against the
// world's acked ledger. Two obligations:
//
//  1. Internal soundness: every instance's journal must satisfy the
//     completes-or-compensates-exactly-once rules (InstanceAudit.Problems),
//     across any number of crash/resume incarnations.
//  2. Acked ⇒ durable: every instance the world saw acknowledged must
//     still exist with at least the acked history — step completions,
//     invoke starts, executed compensations and terminal decisions never
//     regress — and a terminal status, once acked, never changes. And
//     nothing the ledger does not account for may appear (a resurrected
//     nacked append).
func CheckWorkflows(step int, replica string, acked, audits map[string]workflow.InstanceAudit) []Violation {
	var out []Violation
	bad := func(format string, args ...any) {
		out = append(out, Violation{Step: step, Invariant: InvWorkflow, Detail: fmt.Sprintf(format, args...)})
	}
	for _, id := range sortedAuditKeys(audits) {
		for _, p := range audits[id].Problems() {
			bad("%s: %s", replica, p)
		}
		if _, ok := acked[id]; !ok {
			bad("%s: instance %s present but never acked (resurrected nacked append?)", replica, id)
		}
	}
	for _, id := range sortedAuditKeys(acked) {
		want := acked[id]
		got, ok := audits[id]
		if !ok {
			bad("%s: acked instance %s lost", replica, id)
			continue
		}
		for k, n := range want.Dones {
			if got.Dones[k] < n {
				bad("%s: instance %s lost acked completion of step %s (%d acked, %d recovered)",
					replica, id, k, n, got.Dones[k])
			}
		}
		for k, s := range want.Starts {
			if got.Starts[k].Count < s.Count {
				bad("%s: instance %s lost acked start of invoke %s (%d acked, %d recovered)",
					replica, id, k, s.Count, got.Starts[k].Count)
			}
		}
		for c, n := range want.CompDones {
			if got.CompDones[c] < n {
				bad("%s: instance %s lost acked compensation %s (%d acked, %d recovered)",
					replica, id, c, n, got.CompDones[c])
			}
		}
		if got.Terminals < want.Terminals {
			bad("%s: instance %s lost its acked terminal record", replica, id)
		}
		if want.Terminals > 0 && got.Terminals > 0 && got.Status != want.Status {
			bad("%s: instance %s changed terminal status %s → %s after recovery",
				replica, id, want.Status, got.Status)
		}
	}
	return out
}

func sortedAuditKeys(m map[string]workflow.InstanceAudit) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// QoSAgg is the world's independent book-keeping of what the QoS
// registry was told: counts and RTT bounds over the probe outcomes fed
// to it. CheckQoSBounds compares the registry's derived record against
// it.
type QoSAgg struct {
	Samples int
	Succ    int
	MinRTT  time.Duration
	MaxRTT  time.Duration
}

// Add folds one probe outcome into the aggregate.
func (a *QoSAgg) Add(up bool, rtt time.Duration) {
	a.Samples++
	if !up {
		return
	}
	if a.Succ == 0 || rtt < a.MinRTT {
		a.MinRTT = rtt
	}
	if rtt > a.MaxRTT {
		a.MaxRTT = rtt
	}
	a.Succ++
}

// CheckQoSBounds verifies the registry's QoS record against the
// independently aggregated observations: sample count exact, uptime the
// exact success ratio, and mean RTT inside the [min, max] envelope of
// successful round trips (a mean cannot leave the range of its inputs).
func CheckQoSBounds(step int, service string, agg QoSAgg, q registry.QoS, ok bool) []Violation {
	var out []Violation
	bad := func(format string, args ...any) {
		out = append(out, Violation{Step: step, Invariant: InvQoSBounds, Detail: fmt.Sprintf(format, args...)})
	}
	if agg.Samples == 0 {
		if ok && q.Samples != 0 {
			bad("%s: registry reports %d samples but no observations were fed", service, q.Samples)
		}
		return out
	}
	if !ok {
		bad("%s: observations were fed but the registry has no QoS record", service)
		return out
	}
	if q.Samples != agg.Samples {
		bad("%s: registry reports %d samples, observed %d", service, q.Samples, agg.Samples)
	}
	wantUptime := float64(agg.Succ) / float64(agg.Samples)
	if math.Abs(q.Uptime-wantUptime) > 1e-9 {
		bad("%s: uptime %.9f, want %.9f (%d/%d)", service, q.Uptime, wantUptime, agg.Succ, agg.Samples)
	}
	if agg.Succ == 0 {
		if q.MeanRTT != 0 {
			bad("%s: mean RTT %v with zero successful observations, want 0", service, q.MeanRTT)
		}
		return out
	}
	// The incremental mean is computed in float64 and truncated to a
	// Duration, so allow 1ns of slack at each bound.
	if q.MeanRTT < agg.MinRTT-time.Nanosecond || q.MeanRTT > agg.MaxRTT+time.Nanosecond {
		bad("%s: mean RTT %v outside observed successful range [%v, %v]", service, q.MeanRTT, agg.MinRTT, agg.MaxRTT)
	}
	return out
}

// HealthProbe is one probe the health checker ran: the replica, whether
// the probe succeeded, and the classification it left behind.
type HealthProbe struct {
	Step    int
	Replica string
	Up      bool
	Healthy bool
}

// CheckHealthEdges replays the probes, in order, through its own model
// of fall/rise hysteresis — every replica starts healthy; fall
// consecutive failures demote a healthy one, rise consecutive successes
// promote an unhealthy one — and reports each probe whose recorded
// classification differs: a demotion or promotion the model does not
// make, or one it makes that did not happen.
func CheckHealthEdges(probes []HealthProbe, fall, rise int) []Violation {
	type model struct {
		down             bool
		failseq, succseq int
	}
	state := map[string]*model{}
	var out []Violation
	for _, p := range probes {
		m := state[p.Replica]
		if m == nil {
			m = &model{}
			state[p.Replica] = m
		}
		if p.Up {
			m.succseq, m.failseq = m.succseq+1, 0
		} else {
			m.failseq, m.succseq = m.failseq+1, 0
		}
		wasDown := m.down
		switch {
		case !m.down && m.failseq >= fall:
			m.down = true
		case m.down && m.succseq >= rise:
			m.down = false
		}
		if p.Healthy == !m.down {
			continue
		}
		edge := edgeName(p.Healthy) // the checker moved and the model did not
		if p.Healthy != wasDown {
			edge = "not " + edgeName(!m.down) // the model moved and the checker did not
		}
		out = append(out, Violation{Step: p.Step, Invariant: InvHealthEdges,
			Detail: fmt.Sprintf("%s %s after %d consecutive failures and %d successes (fall %d, rise %d)",
				p.Replica, edge, m.failseq, m.succseq, fall, rise)})
		// Follow the checker from here, so one divergence is one report.
		m.down = !p.Healthy
	}
	return out
}

func edgeName(healthy bool) string {
	if healthy {
		return "promoted"
	}
	return "demoted"
}
