package workflow

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"soc/internal/vtime"
	"soc/internal/wal"
)

// Mutation hooks prove the journal-audit invariant can fail: each one
// deliberately breaks a durability or exactly-once rule so the checker
// built on InstanceAudit must trip. They mirror the analyzer
// mutation-testing discipline: a checker that cannot fail checks
// nothing. Never set outside tests.
const (
	// MutationDropAppend acknowledges one done append without writing
	// it: the acked ⇒ durable lie, exposed after the next crash.
	MutationDropAppend = "drop-append"
	// MutationDoubleCompensate runs and journals every compensation
	// twice, breaking compensated-exactly-once.
	MutationDoubleCompensate = "double-comp"
	// MutationResumeNonIdempotent re-issues in-flight non-idempotent
	// invokes on resume instead of faulting, breaking at-most-once
	// side effects.
	MutationResumeNonIdempotent = "resume-nonidem"
)

// Options configures an Orchestrator.
type Options struct {
	// WAL configures the underlying log (segment size etc).
	WAL wal.Options
	// SnapshotEvery folds the journal into a snapshot after this many
	// appends (default 64; <0 disables).
	SnapshotEvery int
	// Deterministic is ignored: every journaled run takes Parallel
	// branches and parallel ForEach iterations in definition order and
	// polls Pick events, so its journal append order is a pure function
	// of the event sources. The field stays only because the benchmark
	// harness still sets it.
	Deterministic bool
	// Mutation enables one of the Mutation* fault hooks (tests only).
	Mutation string
}

// Result is the outcome of driving an instance as far as it would go.
type Result struct {
	ID     string
	Status string
	// Err is the committed fault for compensated instances, or the
	// transient error that left the instance pending.
	Err string
	// Vars is the final variable scope — only populated by the
	// incarnation that actually completed the instance (it is not
	// journaled; replay reconstructs it from effects).
	Vars map[string]any
}

// Instance is one workflow instance's in-memory state: exactly the
// acked journal records plus derived status. All durable truth lives in
// the records; everything else is a cache.
type Instance struct {
	mu      sync.Mutex
	id      string
	def     string
	status  string
	err     string
	resumes int
	running bool
	init    map[string]any
	recs    []Record
}

func (in *Instance) addRecord(r Record) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.recs = append(in.recs, r)
	switch r.Kind {
	case recBegin:
		in.def = r.Def
		in.init = r.Init
	case recResume:
		in.resumes++
	case recFault:
		if in.err == "" {
			in.err = r.Err
		}
	case recEnd:
		in.status = r.Status
		if r.Err != "" {
			in.err = r.Err
		}
	}
}

func (in *Instance) snapshotRecords() []Record {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]Record(nil), in.recs...)
}

func (in *Instance) audit() InstanceAudit {
	return AuditRecords(in.id, in.snapshotRecords())
}

func (in *Instance) currentStatus() (status, errStr string) {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.status, in.err
}

func (in *Instance) faultCommitted() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, r := range in.recs {
		if r.Kind == recFault {
			return true
		}
	}
	return false
}

// claim makes the caller the instance's only driver until release. The
// terminal check sits under the same lock as the flag: a Resume that
// read "pending" while another driver was finishing would otherwise run
// the instance again and journal a second terminal record.
func (in *Instance) claim() (res Result, claimed bool, err error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	switch {
	case terminalStatus(in.status):
		return Result{ID: in.id, Status: in.status, Err: in.err}, false, nil
	case in.running:
		return Result{ID: in.id, Status: StatusPending}, false, fmt.Errorf("workflow: instance %q is already running", in.id)
	}
	in.running = true
	return Result{}, true, nil
}

func (in *Instance) release() {
	in.mu.Lock()
	in.running = false
	in.mu.Unlock()
}

func (in *Instance) terminal() bool {
	s, _ := in.currentStatus()
	return terminalStatus(s)
}

func terminalStatus(s string) bool {
	return s == StatusCompleted || s == StatusCompensated
}

// Orchestrator runs many workflow instances over one journaled WAL and
// resumes every pending instance at its exact step after a crash.
// Definitions and compensators are code, re-registered on every
// incarnation; everything else is reconstructed from the journal.
type Orchestrator struct {
	opts    Options
	journal *journal

	mu   sync.Mutex
	defs map[string]*Workflow
	// insts holds a nil entry while Start journals an id's begin record:
	// the id is taken, the instance not yet visible.
	insts map[string]*Instance
	order []string

	compensators
}

// snapshotState is the WAL snapshot payload. A wal snapshot covers
// every record up to its index, so the full record history of every
// instance — pending and terminal alike — must ride in the payload or
// compaction would amputate journals mid-instance.
type snapshotState struct {
	Instances []snapshotInstance `json:"instances"`
}

type snapshotInstance struct {
	ID      string   `json:"id"`
	Records []Record `json:"records"`
}

// OpenOrchestrator opens (or creates) an orchestrator over fs,
// recovering every instance's journal: terminal instances keep their
// audit, pending instances await Resume. Definitions and compensators
// must be re-registered before resuming.
func OpenOrchestrator(fs wal.FS, opts Options) (*Orchestrator, error) {
	o := &Orchestrator{
		opts:  opts,
		defs:  map[string]*Workflow{},
		insts: map[string]*Instance{},
	}
	o.journal = &journal{apply: o.apply}
	if opts.Mutation == MutationDropAppend {
		// Drop the second done append of this incarnation: late enough
		// that real work is in flight, early enough that every
		// non-trivial run exercises it.
		o.journal.dropDone = 2
	}
	m, err := wal.OpenMachine(fs, opts.WAL, opts.SnapshotEvery, wal.Handler[Record, snapshotState]{
		Apply:   o.apply,
		Restore: o.restore,
		State:   o.state,
	})
	if err != nil {
		return nil, fmt.Errorf("workflow: opening journal: %w", err)
	}
	o.journal.m = m
	return o, nil
}

// apply adds one acked record to its instance, creating the instance on
// its begin record.
func (o *Orchestrator) apply(r Record) error {
	o.instanceFor(r.Inst).addRecord(r)
	return nil
}

func (o *Orchestrator) restore(snap snapshotState) error {
	for _, si := range snap.Instances {
		inst := o.instanceFor(si.ID)
		for _, r := range si.Records {
			inst.addRecord(r)
		}
	}
	return nil
}

// state collects the snapshot payload: every instance's full record
// history, pending and terminal alike.
func (o *Orchestrator) state() snapshotState {
	snap := snapshotState{}
	for _, id := range o.Instances() {
		if in := o.lookup(id); in != nil {
			snap.Instances = append(snap.Instances, snapshotInstance{ID: id, Records: in.snapshotRecords()})
		}
	}
	return snap
}

// instanceFor finds or creates the in-memory instance (creation without
// a begin record is only reachable through corruption or mutation hooks
// and is exactly what the audit's Begins rule exists to flag).
func (o *Orchestrator) instanceFor(id string) *Instance {
	o.mu.Lock()
	defer o.mu.Unlock()
	if in := o.insts[id]; in != nil {
		return in
	}
	in := &Instance{id: id, status: StatusPending}
	o.insts[id] = in
	o.order = append(o.order, id)
	return in
}

// Define registers (or replaces) a workflow definition.
func (o *Orchestrator) Define(wf *Workflow) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.defs[wf.Name] = wf
}

func (o *Orchestrator) definition(name string) *Workflow {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.defs[name]
}

// Recovery reports what journal recovery found at open.
func (o *Orchestrator) Recovery() wal.RecoveryInfo { return o.journal.m.Recovery() }

// Close closes the journal. Running instances' next append fails and
// leaves them pending, the same contract as a crash.
func (o *Orchestrator) Close() error { return o.journal.close() }

// ArmCrash schedules a simulated power cut after n more journal
// appends; fn runs once when it fires (the harness crashes the MemFS
// there). The append that pulls the trigger fails and nothing later
// reaches the disk.
func (o *Orchestrator) ArmCrash(n int64, fn func()) { o.journal.armCrash(n, fn) }

// Instances returns all known instance IDs in start order.
func (o *Orchestrator) Instances() []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]string(nil), o.order...)
}

// Pending returns the IDs of non-terminal instances, sorted.
func (o *Orchestrator) Pending() []string {
	o.mu.Lock()
	ids := append([]string(nil), o.order...)
	o.mu.Unlock()
	var out []string
	for _, id := range ids {
		if in := o.lookup(id); in != nil && !in.terminal() {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

func (o *Orchestrator) lookup(id string) *Instance {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.insts[id]
}

// Audit returns the journal audit of one instance.
func (o *Orchestrator) Audit(id string) (InstanceAudit, bool) {
	in := o.lookup(id)
	if in == nil {
		return InstanceAudit{}, false
	}
	return in.audit(), true
}

// Audits returns every instance's audit keyed by ID.
func (o *Orchestrator) Audits() map[string]InstanceAudit {
	out := map[string]InstanceAudit{}
	for _, id := range o.Instances() {
		if in := o.lookup(id); in != nil {
			out[id] = in.audit()
		}
	}
	return out
}

// Start begins a new instance: the begin record is journaled first
// (acked ⇒ durable), then the instance runs as far as it can. A journal
// failure mid-run leaves it pending for a later Resume.
func (o *Orchestrator) Start(ctx context.Context, id, def string, init map[string]any) (Result, error) {
	if id == "" {
		return Result{}, fmt.Errorf("workflow: empty instance id")
	}
	wf := o.definition(def)
	if wf == nil {
		return Result{}, fmt.Errorf("workflow: unknown definition %q", def)
	}
	o.mu.Lock()
	if _, exists := o.insts[id]; exists {
		o.mu.Unlock()
		return Result{}, fmt.Errorf("workflow: instance %q already exists", id)
	}
	// Reserve the id under the lock that checked it, or two concurrent
	// Starts both pass the check and journal two begin records.
	o.insts[id] = nil
	o.mu.Unlock()
	if err := o.journal.append(Record{Inst: id, Kind: recBegin, Def: def, Init: init}); err != nil {
		o.mu.Lock()
		delete(o.insts, id)
		o.mu.Unlock()
		return Result{ID: id, Status: StatusPending, Err: err.Error()}, err
	}
	inst := o.lookup(id)
	if res, claimed, err := inst.claim(); !claimed {
		return res, err
	}
	return o.drive(ctx, inst, wf)
}

// Resume drives a pending instance on this incarnation: replaying its
// journal skips completed steps, re-issues only idempotent in-flight
// invokes, and picks compensation back up exactly where it stopped.
// Resuming a terminal instance is a no-op returning its result.
func (o *Orchestrator) Resume(ctx context.Context, id string) (Result, error) {
	inst := o.lookup(id)
	if inst == nil {
		return Result{}, fmt.Errorf("workflow: unknown instance %q", id)
	}
	if res, claimed, err := inst.claim(); !claimed {
		return res, err
	}
	inst.mu.Lock()
	def, resumes := inst.def, inst.resumes
	inst.mu.Unlock()
	wf := o.definition(def)
	if wf == nil {
		inst.release()
		return Result{ID: id, Status: StatusPending},
			fmt.Errorf("workflow: instance %q needs unregistered definition %q", id, def)
	}
	rec := Record{Inst: id, Kind: recResume, Incarnation: resumes + 1}
	if err := o.journal.append(rec); err != nil {
		inst.release()
		return Result{ID: id, Status: StatusPending, Err: err.Error()}, err
	}
	return o.drive(ctx, inst, wf)
}

// ResumeAll resumes every pending instance in sorted order and returns
// their results. Errors are carried in the results; the loop never
// stops early (one stuck instance must not strand the rest).
func (o *Orchestrator) ResumeAll(ctx context.Context) []Result {
	var out []Result
	for _, id := range o.Pending() {
		res, err := o.Resume(ctx, id)
		if err != nil && res.Err == "" {
			res.Err = err.Error()
		}
		out = append(out, res)
	}
	return out
}

// drive runs one claimed instance as far as it can go on this
// incarnation: forward execution (with replay) unless a fault is already
// committed, then compensation, then the terminal record.
func (o *Orchestrator) drive(ctx context.Context, inst *Instance, wf *Workflow) (Result, error) {
	defer inst.release()

	jr := newJournalRun(o, inst)
	if !inst.faultCommitted() {
		inst.mu.Lock()
		init := inst.init
		inst.mu.Unlock()
		st := &State{Vars: NewVars(init), trace: &Trace{}, jr: jr}
		err := exec(ctx, wf.Root, st)
		switch {
		case err == nil:
			if aerr := o.journal.append(Record{Inst: inst.id, Kind: recEnd, Status: StatusCompleted}); aerr != nil {
				return o.pendingResult(inst, aerr), aerr
			}
			o.journal.maybeSnapshot()
			return Result{ID: inst.id, Status: StatusCompleted, Vars: st.Vars.Snapshot()}, nil
		case errors.Is(err, ErrJournal) || vtime.GaveUp(ctx, err):
			// The journal is down or the caller gave up: nothing was
			// committed past the last ack, so stay pending.
			return o.pendingResult(inst, err), err
		default:
			// Activity fault — a deadline that fired inside an invoker
			// (a slow provider) included: commit the instance to
			// compensation. Once this record is acked, no incarnation
			// runs forward again.
			fault := Record{Inst: inst.id, Kind: recFault, Err: err.Error()}
			if aerr := o.journal.append(fault); aerr != nil {
				return o.pendingResult(inst, aerr), aerr
			}
		}
	}
	if err := o.compensate(ctx, inst); err != nil {
		return o.pendingResult(inst, err), err
	}
	_, faultErr := inst.currentStatus()
	end := Record{Inst: inst.id, Kind: recEnd, Status: StatusCompensated, Err: faultErr}
	if aerr := o.journal.append(end); aerr != nil {
		return o.pendingResult(inst, aerr), aerr
	}
	o.journal.maybeSnapshot()
	return Result{ID: inst.id, Status: StatusCompensated, Err: faultErr}, nil
}

func (o *Orchestrator) pendingResult(inst *Instance, err error) Result {
	return Result{ID: inst.id, Status: StatusPending, Err: err.Error()}
}

// compensate undoes the instance's journaled registrations, skipping
// those any incarnation already journaled as done and acking each with
// a comp-done record.
func (o *Orchestrator) compensate(ctx context.Context, inst *Instance) error {
	audit := inst.audit()
	comps := audit.Comps
	if o.opts.Mutation == MutationDoubleCompensate {
		comps = nil
		for _, c := range audit.Comps {
			comps = append(comps, c, c)
		}
	}
	return o.undo(ctx, comps, audit.CompDones, func(c Compensation) error {
		return o.journal.append(Record{Inst: inst.id, Kind: recCompDone, Comp: c.ID})
	})
}
