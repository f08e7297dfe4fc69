// Package workflow is the service-composition engine corresponding to the
// courses' VPL and BPEL units: applications are built by wiring existing
// services into control-flow graphs (sequence, parallel split/join,
// choice, loops, event picks) over a shared variable scope, with
// fault and compensation handlers — "generating executables directly from
// the flowchart", as the paper's keynote puts it.
package workflow

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"soc/internal/telemetry"
	"soc/internal/vtime"
)

// ErrDefinition reports an invalid workflow definition.
var ErrDefinition = errors.New("workflow: invalid definition")

// ErrFaulted reports a workflow that ended in an unhandled fault.
var ErrFaulted = errors.New("workflow: faulted")

// Vars is the shared variable scope of a workflow instance. Access is
// synchronized, so goroutines a step starts may share it.
//
// A Vars may be an overlay (parent non-nil): reads fall through to the
// parent on a local miss, writes stay local. The journaled executor
// runs each leaf step against an overlay so its effects can be
// journaled before they land in the instance scope.
type Vars struct {
	mu     sync.RWMutex
	m      map[string]any
	parent *Vars
}

// NewVars returns a scope seeded with init (may be nil).
func NewVars(init map[string]any) *Vars {
	v := &Vars{m: make(map[string]any)}
	for k, val := range init {
		v.m[k] = val
	}
	return v
}

// Get reads a variable.
func (v *Vars) Get(key string) (any, bool) {
	v.mu.RLock()
	val, ok := v.m[key]
	parent := v.parent
	v.mu.RUnlock()
	if !ok && parent != nil {
		return parent.Get(key)
	}
	return val, ok
}

// GetString reads a variable as a string (zero value when absent).
func (v *Vars) GetString(key string) string {
	val, _ := v.Get(key)
	s, _ := val.(string)
	return s
}

// GetInt reads a variable as an int64, converting float64 and int.
func (v *Vars) GetInt(key string) int64 {
	val, _ := v.Get(key)
	switch x := val.(type) {
	case int64:
		return x
	case int:
		return int64(x)
	case float64:
		return int64(x)
	}
	return 0
}

// Set writes a variable.
func (v *Vars) Set(key string, val any) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.m[key] = val
}

// Snapshot copies the scope (parent layers included for overlays, with
// local writes winning).
func (v *Vars) Snapshot() map[string]any {
	v.mu.RLock()
	parent := v.parent
	local := make(map[string]any, len(v.m))
	for k, val := range v.m {
		local[k] = val
	}
	v.mu.RUnlock()
	if parent == nil {
		return local
	}
	out := parent.Snapshot()
	for k, val := range local {
		out[k] = val
	}
	return out
}

// Activity is a node of the workflow graph.
type Activity interface {
	// Name identifies the activity in traces.
	Name() string
	// Execute runs the activity against the instance state.
	Execute(ctx context.Context, st *State) error
}

// State is the execution state of one workflow instance. In a
// journaled run it additionally carries the journal context and the
// activity path that step keys are derived from.
type State struct {
	Vars  *Vars
	trace *Trace
	jr    *journalRun
	path  string
}

// scoped returns a copy of the state with the given activity path —
// how composites give branches and iterations distinct key namespaces.
func (st *State) scoped(path string) *State {
	return &State{Vars: st.Vars, trace: st.trace, jr: st.jr, path: path}
}

// withVars returns a copy of the state bound to a different scope
// (the journaled executor's effect overlay).
func (st *State) withVars(v *Vars) *State {
	return &State{Vars: v, trace: st.trace, jr: st.jr, path: st.path}
}

// branchScope extends the path for branch/iteration i of a fan-out
// composite. Outside a journaled run paths are irrelevant and the
// state is returned unchanged.
func (st *State) branchScope(prefix string, i int) *State {
	if st.jr == nil {
		return st
	}
	return st.scoped(fmt.Sprintf("%s/%s%d", st.path, prefix, i))
}

// child builds the state for an isolated-scope child (parallel ForEach
// iterations), preserving the journal context and extending the path.
func (st *State) child(prefix string, i int, vars *Vars) *State {
	c := st.branchScope(prefix, i)
	return &State{Vars: vars, trace: c.trace, jr: c.jr, path: c.path}
}

// Trace records executed activities in order.
type Trace struct {
	mu      sync.Mutex
	Entries []TraceEntry
}

// TraceEntry is one trace record.
type TraceEntry struct {
	Activity string
	Start    time.Time
	Elapsed  time.Duration
	Err      string
	// Replayed marks a step skipped by journal replay: its effects were
	// applied from the done record, the activity did not run again.
	Replayed bool
}

func (t *Trace) add(e TraceEntry) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.Entries = append(t.Entries, e)
}

// Names returns the executed activity names in order.
func (t *Trace) Names() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, len(t.Entries))
	for i, e := range t.Entries {
		out[i] = e.Activity
	}
	return out
}

// Workflow is a named, validated activity graph. The compensators
// defined on it are the ones Run uses; an Orchestrator keeps its own.
type Workflow struct {
	Name string
	Root Activity
	compensators
}

// New builds a workflow after validating the graph.
func New(name string, root Activity) (*Workflow, error) {
	if name == "" {
		return nil, fmt.Errorf("%w: empty name", ErrDefinition)
	}
	if root == nil {
		return nil, fmt.Errorf("%w: nil root", ErrDefinition)
	}
	if err := validate(root, map[Activity]bool{}); err != nil {
		return nil, err
	}
	return &Workflow{Name: name, Root: root}, nil
}

type children interface{ Children() []Activity }

func validate(a Activity, onPath map[Activity]bool) error {
	if a == nil {
		return fmt.Errorf("%w: nil activity", ErrDefinition)
	}
	if onPath[a] {
		return fmt.Errorf("%w: cycle through %q", ErrDefinition, a.Name())
	}
	if v, ok := a.(interface{ Validate() error }); ok {
		if err := v.Validate(); err != nil {
			return err
		}
	}
	if c, ok := a.(children); ok {
		onPath[a] = true
		for _, child := range c.Children() {
			if err := validate(child, onPath); err != nil {
				return err
			}
		}
		delete(onPath, a)
	}
	return nil
}

// Run executes the workflow with the given initial variables, returning
// the final scope and the execution trace. A fault that escapes the
// root runs the compensations the run registered (Invoke.Compensation,
// Compensate) before Run returns it, wrapped in ErrFaulted with its
// cause, so errors.Is sees both.
func (w *Workflow) Run(ctx context.Context, init map[string]any) (map[string]any, *Trace, error) {
	st := &State{Vars: NewVars(init), trace: &Trace{}}
	undos := &compCollector{}
	err := exec(withCompCollector(ctx, undos), w.Root, st)
	if err != nil {
		err = fmt.Errorf("%w: %w", ErrFaulted, err)
		if cerr := w.undo(ctx, undos.comps, nil, nil); cerr != nil {
			err = fmt.Errorf("%w; %v", err, cerr)
		}
	}
	return st.Vars.Snapshot(), st.trace, err
}

// Compensator is a named undo action. It is registered as code — on
// every incarnation, for an orchestrator — and receives the
// fully-resolved arguments captured when the forward step registered
// it. It must be idempotent: a crash between executing the undo and
// journaling its comp-done record re-runs it on the next incarnation.
type Compensator func(ctx context.Context, args map[string]any) error

// compensators is the name → Compensator registry Workflow and
// Orchestrator each hold, and the one place undos are executed.
type compensators struct {
	mu sync.Mutex
	m  map[string]Compensator
}

// DefineCompensator registers (or replaces) a named undo action.
func (c *compensators) DefineCompensator(name string, fn Compensator) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil {
		c.m = map[string]Compensator{}
	}
	c.m[name] = fn
}

// undo runs comps in LIFO order on a context detached from
// cancellation: undoing must be able to finish after the forward path
// was canceled (request-scoped values, the virtual clock included,
// continue to flow). A journaled caller passes acked — IDs some
// incarnation already journaled as done, which are skipped — and ack,
// which appends the comp-done record after each undo: at-least-once
// execution, exactly-once journal. Workflow.Run passes neither.
func (c *compensators) undo(ctx context.Context, comps []Compensation, acked map[string]int, ack func(Compensation) error) error {
	ctx = context.WithoutCancel(ctx)
	for i := len(comps) - 1; i >= 0; i-- {
		comp := comps[i]
		if acked[comp.ID] > 0 {
			continue
		}
		c.mu.Lock()
		fn := c.m[comp.Name]
		c.mu.Unlock()
		if fn == nil {
			return fmt.Errorf("workflow: no compensator %q registered", comp.Name)
		}
		if err := fn(ctx, comp.Args); err != nil {
			return fmt.Errorf("workflow: compensation %s: %w", comp.ID, err)
		}
		if ack != nil {
			if err := ack(comp); err != nil {
				return err
			}
		}
	}
	return nil
}

// exec runs one activity: through the journal in an orchestrated run,
// directly otherwise.
func exec(ctx context.Context, a Activity, st *State) error {
	if st.jr != nil {
		return st.jr.exec(ctx, a, st)
	}
	return plainExec(ctx, a, st)
}

// plainExec runs one activity with tracing: the workflow's own TraceEntry
// log, plus — when a tracer rides the context — a child span per activity,
// so composed sub-invocations nest under their activity in the trace tree.
func plainExec(ctx context.Context, a Activity, st *State) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	sp, ctx := telemetry.StartSpanFromContext(ctx, telemetry.KindWorkflow, a.Name())
	clk := vtime.ClockFrom(ctx)
	start := clk.Now()
	err := a.Execute(ctx, st)
	sp.EndErr(err)
	entry := TraceEntry{Activity: a.Name(), Start: start, Elapsed: clk.Now().Sub(start)}
	if err != nil {
		entry.Err = err.Error()
	}
	st.trace.add(entry)
	return err
}
