package workflow

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"

	"soc/internal/wal"
)

// ErrJournal reports a failed journal append: the effect it was about to
// acknowledge never became durable, so the instance stays pending and
// must be resumed (possibly on a new incarnation) rather than continue.
var ErrJournal = errors.New("workflow: journal append failed")

// ErrNonIdempotentResume reports an instance that crashed with a
// non-idempotent Invoke in flight: the journal holds a start record but
// no completion, so the engine cannot know whether the side effect
// happened and refuses to re-issue the call. The instance faults and
// takes the compensation path instead.
var ErrNonIdempotentResume = errors.New("workflow: non-idempotent invoke was in flight at crash")

// Journal record kinds. One record is one durably acknowledged event of
// an instance's history; the full per-instance sequence is the
// event-sourced truth the orchestrator replays after a crash.
const (
	// recBegin opens an instance: definition name and fully-resolved
	// initial variables.
	recBegin = "begin"
	// recResume marks a new incarnation taking over a pending instance.
	recResume = "resume"
	// recStart marks an Invoke in flight: appended before the call is
	// issued, carrying the op's idempotence and the pessimistically
	// registered compensation (so a call that crashed mid-flight can
	// still be undone).
	recStart = "start"
	// recDone completes a step: the step's variable effects,
	// fully resolved, plus any compensations it registered. Appended
	// BEFORE the effects land in the instance scope: acked ⇒ durable.
	recDone = "done"
	// recPick records a Pick decision: the winning branch (or expiry)
	// and the event payload, so replay never re-races the events.
	recPick = "pick"
	// recStepFault resolves an in-flight start without a completion:
	// the call itself failed cleanly, so the side effect did not happen
	// and a later incarnation may legally re-issue the invoke even when
	// it is not idempotent.
	recStepFault = "step-fault"
	// recFault commits the instance to the compensation path. Appended
	// before the first undo runs, so a crash mid-compensation resumes
	// compensating instead of re-running forward activities.
	recFault = "fault"
	// recCompDone acknowledges one executed compensation. Appended
	// AFTER the undo ran: compensators execute at least once and are
	// journaled exactly once, which is why they must be idempotent.
	recCompDone = "comp-done"
	// recEnd closes the instance: completed or compensated.
	recEnd = "end"
)

// Terminal instance statuses, plus the in-between.
const (
	// StatusPending marks an instance with work left: running now, or
	// waiting to be resumed after a crash or journal fault.
	StatusPending = "pending"
	// StatusCompleted marks a successful terminal instance.
	StatusCompleted = "completed"
	// StatusCompensated marks an instance that faulted and ran all its
	// registered compensations.
	StatusCompensated = "compensated"
)

// Compensation is one durable undo registration: a named compensator
// (re-registered as code on every incarnation) plus fully-resolved
// arguments captured when the forward step was journaled.
type Compensation struct {
	ID   string         `json:"id"`
	Name string         `json:"name"`
	Args map[string]any `json:"args,omitempty"`
}

// Record is one journal entry. Fields are fully resolved at append time
// (no closures, no pointers into live state) so any later incarnation
// can replay from JSON alone.
type Record struct {
	Inst string `json:"inst"`
	Kind string `json:"kind"`
	Key  string `json:"key,omitempty"`

	// begin
	Def  string         `json:"def,omitempty"`
	Init map[string]any `json:"init,omitempty"`

	// resume
	Incarnation int `json:"incarnation,omitempty"`

	// start / done (Service+Op identify invoke steps in audits)
	Service    string         `json:"service,omitempty"`
	Op         string         `json:"op,omitempty"`
	Idempotent bool           `json:"idempotent,omitempty"`
	Comps      []Compensation `json:"comps,omitempty"`
	Effects    map[string]any `json:"effects,omitempty"`

	// pick
	Branch  int  `json:"branch,omitempty"`
	Expired bool `json:"expired,omitempty"`
	Payload any  `json:"payload,omitempty"`

	// comp-done
	Comp string `json:"comp,omitempty"`

	// fault / end
	Status string `json:"status,omitempty"`
	Err    string `json:"err,omitempty"`
}

// journal serializes appends to the orchestrator's durable machine and
// carries the crash hook the simulation harness arms to power-cut a
// replica at an exact append ordinal. Its lock is held across the
// machine's append, so no append can slip onto the disk after the cut.
type journal struct {
	mu sync.Mutex
	m  *wal.Machine[Record, snapshotState]
	// apply installs a record in memory; the drop-append mutation calls
	// it without the machine.
	apply func(Record) error
	// appends counts attempted appends; crashAt fires the armed power
	// cut when the counter reaches it (0 = disarmed).
	appends int64
	crashAt int64
	crashFn func()
	// failed latches after a power cut: the disk under the log is gone,
	// so every later append must fail rather than write to a ghost.
	failed bool
	// dropDone is the MutationDropAppend hook: the Nth done-record
	// append is acknowledged without being written (1-based, 0 = off).
	// It exists to prove the journal-audit invariant can fail.
	dropDone int
	doneSeen int
}

// append journals r and, only on ack, applies it to its instance: the
// in-memory state is exactly the acked journal.
func (j *journal) append(r Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.failed {
		return fmt.Errorf("%w: journal is down (crashed)", ErrJournal)
	}
	j.appends++
	if j.crashAt > 0 && j.appends >= j.crashAt {
		j.failed = true
		if j.crashFn != nil {
			j.crashFn()
		}
		return fmt.Errorf("%w: power cut at append %d", ErrJournal, j.appends)
	}
	if j.dropDone > 0 && r.Kind == recDone {
		j.doneSeen++
		if j.doneSeen == j.dropDone {
			// Mutation: ack without durability. The in-memory state moves
			// on; recovery after the next crash must expose the lie.
			return j.apply(r)
		}
	}
	if err := j.m.Append(r); err != nil {
		return fmt.Errorf("%w: %v", ErrJournal, err)
	}
	return nil
}

// armCrash schedules a power cut after n more appends; fn runs once
// when it fires (typically crashing the MemFS under the log).
func (j *journal) armCrash(n int64, fn func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.crashAt = j.appends + n
	j.crashFn = fn
}

// maybeSnapshot offers the machine a snapshot; a journal that is down
// writes nothing more.
func (j *journal) maybeSnapshot() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.failed {
		j.m.MaybeSnapshot()
	}
}

func (j *journal) close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.failed {
		return nil
	}
	j.failed = true
	return j.m.Close()
}

// StartAudit summarizes the start records of one invoke key.
type StartAudit struct {
	Count      int
	Idempotent bool
}

// InstanceAudit is the order-insensitive summary of one instance's
// journal: exactly the evidence the completes-or-compensates-once
// invariant is checked against, across any number of incarnations.
type InstanceAudit struct {
	ID        string
	Def       string
	Status    string
	Err       string
	Begins    int
	Resumes   int
	Terminals int
	Faults    int
	// Dones counts done records per step key; Starts counts invoke
	// start records per key; StepFaults counts cleanly-failed invoke
	// attempts per key; Picks counts pick decisions per key; CompDones
	// counts executed-compensation acks per compensation ID.
	Dones      map[string]int
	Starts     map[string]StartAudit
	StepFaults map[string]int
	Picks      map[string]int
	CompDones  map[string]int
	// Comps lists registered compensations in journal order (the LIFO
	// stack is this slice reversed).
	Comps []Compensation
	// invokeDone marks keys whose done record carries a Service — i.e.
	// invoke completions, which require a matching start record.
	invokeDone map[string]bool
}

// AuditRecords folds a journal record sequence into its audit. It is a
// pure function of the records, so the same audit can be computed from
// in-memory acked state and from a recovered journal and compared.
func AuditRecords(id string, recs []Record) InstanceAudit {
	a := InstanceAudit{
		ID:         id,
		Status:     StatusPending,
		Dones:      map[string]int{},
		Starts:     map[string]StartAudit{},
		StepFaults: map[string]int{},
		Picks:      map[string]int{},
		CompDones:  map[string]int{},
		invokeDone: map[string]bool{},
	}
	// A re-issued invoke (idempotent retry, or retry after a clean
	// step-fault) re-registers the same compensation ID on its new start
	// record; registration is idempotent by ID.
	registered := map[string]bool{}
	addComps := func(comps []Compensation) {
		for _, c := range comps {
			if registered[c.ID] {
				continue
			}
			registered[c.ID] = true
			a.Comps = append(a.Comps, c)
		}
	}
	for _, r := range recs {
		switch r.Kind {
		case recBegin:
			a.Begins++
			a.Def = r.Def
		case recResume:
			a.Resumes++
		case recStart:
			s := a.Starts[r.Key]
			s.Count++
			s.Idempotent = r.Idempotent
			a.Starts[r.Key] = s
			addComps(r.Comps)
		case recDone:
			a.Dones[r.Key]++
			addComps(r.Comps)
			if r.Service != "" {
				a.invokeDone[r.Key] = true
			}
		case recPick:
			a.Picks[r.Key]++
		case recStepFault:
			a.StepFaults[r.Key]++
		case recFault:
			a.Faults++
			if a.Err == "" {
				a.Err = r.Err
			}
		case recCompDone:
			a.CompDones[r.Comp]++
		case recEnd:
			a.Terminals++
			a.Status = r.Status
			if r.Err != "" {
				a.Err = r.Err
			}
		}
	}
	return a
}

// Problems returns the internal-consistency violations of this audit —
// the completes-or-compensates-exactly-once rules that must hold for
// every instance across any crash/resume history. Empty means sound.
func (a InstanceAudit) Problems() []string {
	var out []string
	bad := func(format string, args ...any) {
		out = append(out, fmt.Sprintf(format, args...))
	}
	if a.Begins != 1 {
		bad("instance %s has %d begin records, want exactly 1", a.ID, a.Begins)
	}
	if a.Terminals > 1 {
		bad("instance %s terminated %d times", a.ID, a.Terminals)
	}
	for _, k := range slices.Sorted(maps.Keys(a.Dones)) {
		if a.Dones[k] > 1 {
			bad("instance %s: step %s completed %d times", a.ID, k, a.Dones[k])
		}
	}
	for _, k := range slices.Sorted(maps.Keys(a.Starts)) {
		s := a.Starts[k]
		// A non-idempotent invoke may be re-issued only after each prior
		// attempt resolved as a clean failure (step-fault): at most one
		// start may ever be unresolved-or-successful.
		if !s.Idempotent && s.Count > a.StepFaults[k]+1 {
			bad("instance %s: non-idempotent invoke %s issued %d times (%d resolved as clean failures)",
				a.ID, k, s.Count, a.StepFaults[k])
		}
	}
	for _, k := range slices.Sorted(maps.Keys(a.Dones)) {
		// An invoke completion requires an in-flight record: a done
		// without any start means a start append was lost.
		if a.invokeDone[k] && a.Starts[k].Count == 0 {
			bad("instance %s: invoke %s completed without a start record", a.ID, k)
		}
	}
	registered := map[string]bool{}
	for _, c := range a.Comps {
		registered[c.ID] = true
	}
	for _, c := range slices.Sorted(maps.Keys(a.CompDones)) {
		if a.CompDones[c] > 1 {
			bad("instance %s: compensation %s applied %d times", a.ID, c, a.CompDones[c])
		}
		if !registered[c] {
			bad("instance %s: compensation %s executed but never registered", a.ID, c)
		}
	}
	switch a.Status {
	case StatusCompleted:
		if a.Faults > 0 {
			bad("instance %s completed despite %d fault records", a.ID, a.Faults)
		}
		if len(a.CompDones) > 0 {
			bad("instance %s completed but ran %d compensations", a.ID, len(a.CompDones))
		}
		for _, k := range slices.Sorted(maps.Keys(a.Starts)) {
			// Every started invoke of a completed instance must have
			// resolved: a done record, or clean step-faults absorbed by a
			// fault handler. (An idempotent retry may leave extra starts
			// next to one done — that is resolution, not loss.) A start
			// with neither means a done append was lost.
			if a.Dones[k] == 0 && a.StepFaults[k] < a.Starts[k].Count {
				bad("instance %s completed with invoke %s unresolved (%d starts, %d dones, %d clean failures)",
					a.ID, k, a.Starts[k].Count, a.Dones[k], a.StepFaults[k])
			}
		}
	case StatusCompensated:
		if a.Faults == 0 {
			bad("instance %s compensated without a fault record", a.ID)
		}
		for _, c := range a.Comps {
			if a.CompDones[c.ID] != 1 {
				bad("instance %s: compensation %s applied %d times, want exactly 1 for a compensated instance",
					a.ID, c.ID, a.CompDones[c.ID])
			}
		}
	}
	return out
}
