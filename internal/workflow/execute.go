package workflow

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"

	"soc/internal/vtime"
)

// journalRun is the per-(instance, incarnation) execution context of a
// journaled run: deterministic step keys, the replay snapshot of prior
// incarnations' records, and the append path back to the orchestrator.
type journalRun struct {
	o    *Orchestrator
	inst *Instance

	mu       sync.Mutex
	counters map[string]int

	prior priorState
}

// priorState is the read-only replay index built from the records acked
// before this incarnation's run began. Records appended during the run
// are not in it — within one run every step key is visited at most
// once, so the run never needs to replay its own appends.
type priorState struct {
	dones      map[string]Record
	starts     map[string]int
	stepFaults map[string]int
	picks      map[string]Record
}

func newJournalRun(o *Orchestrator, inst *Instance) *journalRun {
	jr := &journalRun{
		o:        o,
		inst:     inst,
		counters: map[string]int{},
		prior: priorState{
			dones:      map[string]Record{},
			starts:     map[string]int{},
			stepFaults: map[string]int{},
			picks:      map[string]Record{},
		},
	}
	for _, r := range inst.snapshotRecords() {
		switch r.Kind {
		case recDone:
			jr.prior.dones[r.Key] = r
		case recStart:
			jr.prior.starts[r.Key]++
		case recStepFault:
			jr.prior.stepFaults[r.Key]++
		case recPick:
			jr.prior.picks[r.Key] = r
		}
	}
	return jr
}

// nextKey allocates the deterministic step key for the n-th occurrence
// of name under path. Composites scope their children's paths (branch,
// iteration), so re-executing the same control flow over the same
// journaled effects allocates the same keys — the property replay
// matching rests on.
func (jr *journalRun) nextKey(path, name string) string {
	jr.mu.Lock()
	defer jr.mu.Unlock()
	ck := path + "/" + name
	n := jr.counters[ck]
	jr.counters[ck] = n + 1
	return fmt.Sprintf("%s#%d", ck, n)
}

func (jr *journalRun) append(r Record) error {
	r.Inst = jr.inst.id
	return jr.o.journal.append(r)
}

// exec routes one activity through the journal: composites re-execute
// (they are pure control flow over journaled effects), leaves replay
// from their done record or execute-then-journal.
func (jr *journalRun) exec(ctx context.Context, a Activity, st *State) error {
	switch act := a.(type) {
	case *Pick:
		return jr.execPick(ctx, act, st)
	case *Invoke:
		return jr.execInvoke(ctx, act, st)
	}
	if isComposite(a) {
		key := jr.nextKey(st.path, a.Name())
		return plainExec(ctx, a, st.scoped(key))
	}
	return jr.execLeaf(ctx, a, st)
}

// isComposite reports whether a is pure control flow that should be
// re-executed on replay rather than journaled as a step. Unknown
// user-defined activities without children are treated as leaves.
func isComposite(a Activity) bool {
	switch a.(type) {
	case *Sequence, *Parallel, *If, *While, *ForEach, *Scope:
		return true
	}
	_, ok := a.(children)
	return ok
}

// execLeaf runs a leaf step with append-before-effect: the step
// executes against a buffered overlay of the scope, its resolved writes
// are journaled, and only an acked done record flushes them into the
// instance scope. Replayed leaves skip execution and apply the
// journaled effects.
func (jr *journalRun) execLeaf(ctx context.Context, a Activity, st *State) error {
	key := jr.nextKey(st.path, a.Name())
	if rec, ok := jr.prior.dones[key]; ok {
		applyEffects(st.Vars, rec.Effects)
		st.trace.add(TraceEntry{Activity: a.Name(), Replayed: true})
		return nil
	}
	overlay := newOverlay(st.Vars)
	cc := &compCollector{key: key}
	if err := plainExec(withCompCollector(ctx, cc), a, st.withVars(overlay)); err != nil {
		return err
	}
	rec := Record{Kind: recDone, Key: key, Effects: overlay.effects(), Comps: cc.comps}
	if err := jr.append(rec); err != nil {
		return err
	}
	overlay.flush()
	return nil
}

// execInvoke adds the in-flight protocol around a service invocation:
// a start record (carrying idempotence and the pessimistic
// compensation) is acked before the call goes out, so a crash mid-call
// leaves evidence. On resume, a start without a done re-issues only
// when the operation is idempotent; otherwise the instance faults —
// the side effect may or may not have happened and must be compensated,
// never duplicated.
func (jr *journalRun) execInvoke(ctx context.Context, inv *Invoke, st *State) error {
	key := jr.nextKey(st.path, inv.Label)
	if rec, ok := jr.prior.dones[key]; ok {
		applyEffects(st.Vars, rec.Effects)
		st.trace.add(TraceEntry{Activity: inv.Label, Replayed: true})
		return nil
	}
	// A prior start is in flight only if it never resolved: no done (we
	// would have replayed above) and no clean-failure record. In-flight
	// means the side effect may or may not have happened — re-issuing is
	// safe only for idempotent operations.
	if jr.prior.starts[key] > jr.prior.stepFaults[key] && !inv.Idempotent &&
		jr.o.opts.Mutation != MutationResumeNonIdempotent {
		return fmt.Errorf("%w: %s (%s.%s)", ErrNonIdempotentResume, key, inv.Service, inv.Operation)
	}
	start := Record{
		Kind: recStart, Key: key,
		Service: inv.Service, Op: inv.Operation, Idempotent: inv.Idempotent,
		Comps: inv.resolveCompensation(key, st.Vars),
	}
	if err := jr.append(start); err != nil {
		return err
	}
	overlay := newOverlay(st.Vars)
	if err := plainExec(ctx, inv, st.withVars(overlay)); err != nil {
		// A clean call failure resolves the start: the side effect did not
		// happen, so journal that fact (best-effort — if the journal is
		// down the start simply stays in flight, which is safe) and let
		// the fault propagate. A deadline or cancellation — the caller's
		// or one that fired inside the invoker — is not clean: the call
		// may have reached the provider, so the start stays in flight and
		// its pessimistic compensation runs.
		clean := !vtime.GaveUp(ctx, err) && !errors.Is(err, ErrJournal) &&
			!errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
		if clean {
			if aerr := jr.append(Record{Kind: recStepFault, Key: key, Err: err.Error()}); aerr != nil {
				return err
			}
		}
		return err
	}
	done := Record{Kind: recDone, Key: key, Service: inv.Service, Op: inv.Operation, Effects: overlay.effects()}
	if err := jr.append(done); err != nil {
		return err
	}
	overlay.flush()
	return nil
}

// execPick journals the branch decision: the winning branch (or
// expiry) and its payload are acked before the continuation runs, so
// replay re-runs the same continuation without re-racing the events.
// A journaled pick polls its events instead of racing them.
func (jr *journalRun) execPick(ctx context.Context, p *Pick, st *State) error {
	key := jr.nextKey(st.path, p.Label)
	rec, decided := jr.prior.picks[key]
	if !decided {
		idx, payload, expired, err := p.poll(ctx)
		if err != nil {
			return err
		}
		rec = Record{Kind: recPick, Key: key, Branch: idx, Expired: expired, Payload: payload}
		if err := jr.append(rec); err != nil {
			return err
		}
	}
	return p.proceed(ctx, st.scoped(key), rec.Branch, rec.Payload, rec.Expired)
}

// applyEffects writes a done record's journaled effects into the scope.
// Values went through a JSON round trip on recovery (ints come back as
// float64); GetInt and friends normalize on read.
func applyEffects(vars *Vars, effects map[string]any) {
	for _, k := range slices.Sorted(maps.Keys(effects)) {
		vars.Set(k, effects[k])
	}
}

// newOverlay returns a buffered view of parent: reads fall through,
// writes stay local until flush. The local writes are the step's
// journaled effects.
func newOverlay(parent *Vars) *Vars {
	return &Vars{m: map[string]any{}, parent: parent}
}

// effects returns the overlay's JSON-serializable writes. Values that
// cannot be marshaled (a live channel, a func) are skipped: they are
// incarnation-local by nature, and one in scope must not wedge the
// journal append.
func (v *Vars) effects() map[string]any {
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make(map[string]any, len(v.m))
	for k, val := range v.m {
		if _, err := json.Marshal(val); err != nil {
			continue
		}
		out[k] = val
	}
	return out
}

// flush applies the overlay's writes to its parent scope — called only
// after the journal acked the step's done record.
func (v *Vars) flush() {
	// Snapshot before writing through: the parent is a distinct Vars,
	// but taking its lock while holding the overlay's would order the
	// two instances — release first, then apply.
	v.mu.RLock()
	snap := make(map[string]any, len(v.m))
	for k, val := range v.m {
		snap[k] = val
	}
	v.mu.RUnlock()
	for k, val := range snap {
		v.parent.Set(k, val)
	}
}

// compCollector gathers the compensations registered while it rides the
// context: one journaled leaf's (they ride on the step's done record),
// or a whole plain run's.
type compCollector struct {
	mu    sync.Mutex
	key   string
	comps []Compensation
}

type compCollectorKey struct{}

func withCompCollector(ctx context.Context, cc *compCollector) context.Context {
	return context.WithValue(ctx, compCollectorKey{}, cc)
}

func (cc *compCollector) add(comps ...Compensation) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	cc.comps = append(cc.comps, comps...)
}

// Compensate registers a named compensation from inside a Task: the
// name must be bound to a Compensator (DefineCompensator) on the engine
// running the instance — on every incarnation, for the orchestrator —
// and args must be JSON-serializable. The registration lands when the
// step's variable writes do: with the step's done record in a journaled
// run, at once under Workflow.Run. Outside any run it reports an error
// so misuse is loud.
func Compensate(ctx context.Context, name string, args map[string]any) error {
	cc, ok := ctx.Value(compCollectorKey{}).(*compCollector)
	if !ok {
		return fmt.Errorf("workflow: Compensate called outside a run")
	}
	cc.mu.Lock()
	defer cc.mu.Unlock()
	id := fmt.Sprintf("%s|%s#%d", cc.key, name, len(cc.comps))
	cc.comps = append(cc.comps, Compensation{ID: id, Name: name, Args: args})
	return nil
}
