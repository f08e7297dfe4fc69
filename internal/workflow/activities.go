package workflow

import (
	"context"
	"fmt"
	"time"
)

// Task is a leaf activity running an arbitrary function — the "code
// activity" of VPL.
type Task struct {
	Label string
	Fn    func(ctx context.Context, vars *Vars) error
}

// Name implements Activity.
func (t *Task) Name() string { return t.Label }

// Validate checks the definition.
func (t *Task) Validate() error {
	if t.Label == "" || t.Fn == nil {
		return fmt.Errorf("%w: task needs label and fn", ErrDefinition)
	}
	return nil
}

// Execute implements Activity.
func (t *Task) Execute(ctx context.Context, st *State) error { return t.Fn(ctx, st.Vars) }

// Assign sets a variable from an expression over the scope.
type Assign struct {
	Label string
	Var   string
	Expr  func(vars *Vars) any
}

func (a *Assign) Name() string { return a.Label }

func (a *Assign) Validate() error {
	if a.Label == "" || a.Var == "" || a.Expr == nil {
		return fmt.Errorf("%w: assign needs label, var and expr", ErrDefinition)
	}
	return nil
}

func (a *Assign) Execute(_ context.Context, st *State) error {
	st.Vars.Set(a.Var, a.Expr(st.Vars))
	return nil
}

// Invoker abstracts a service invocation target so the engine does not
// depend on a specific client. soc/internal/host.Client satisfies it via
// the InvokeAdapter below, and tests can stub it.
type Invoker interface {
	Invoke(ctx context.Context, service, operation string, args map[string]any) (map[string]any, error)
}

// InvokerFunc adapts a function to Invoker.
type InvokerFunc func(ctx context.Context, service, operation string, args map[string]any) (map[string]any, error)

// Invoke implements Invoker.
func (f InvokerFunc) Invoke(ctx context.Context, service, operation string, args map[string]any) (map[string]any, error) {
	return f(ctx, service, operation, args)
}

// Undo declares an Invoke's compensation: a compensator registered by
// name (DefineCompensator) on the engine that runs the definition, with
// arguments resolved from the scope (argument name → variable name)
// before the call goes out — pessimistically, so a call that failed or
// crashed in flight can still be undone. The orchestrator journals it
// on the invoke's start record; Workflow.Run keeps it on the run's list.
type Undo struct {
	Name     string
	ArgsFrom map[string]string
}

// Invoke calls a service operation: inputs are drawn from the scope by
// the Inputs mapping (parameter name → variable name) and outputs are
// written back by the Outputs mapping (result name → variable name).
//
// Idempotent declares that re-issuing the operation is safe; the
// orchestrator re-issues an in-flight invoke after a crash only when it
// is set, and otherwise faults the instance into compensation.
// Compensation (optional) is the undo to run if the instance faults.
type Invoke struct {
	Label        string
	Service      string
	Operation    string
	Invoker      Invoker
	Inputs       map[string]string
	Outputs      map[string]string
	Idempotent   bool
	Compensation *Undo
}

func (i *Invoke) Name() string { return i.Label }

func (i *Invoke) Validate() error {
	if i.Label == "" || i.Service == "" || i.Operation == "" || i.Invoker == nil {
		return fmt.Errorf("%w: invoke needs label, service, operation and invoker", ErrDefinition)
	}
	if i.Compensation != nil && i.Compensation.Name == "" {
		return fmt.Errorf("%w: invoke %q: compensation needs a compensator name", ErrDefinition, i.Label)
	}
	return nil
}

// resolveCompensation materializes the declared undo with arguments
// resolved from the current scope, ready to be journaled.
func (i *Invoke) resolveCompensation(key string, vars *Vars) []Compensation {
	if i.Compensation == nil {
		return nil
	}
	args := make(map[string]any, len(i.Compensation.ArgsFrom))
	for arg, varName := range i.Compensation.ArgsFrom {
		if v, ok := vars.Get(varName); ok {
			args[arg] = v
		}
	}
	return []Compensation{{ID: key + "|" + i.Compensation.Name, Name: i.Compensation.Name, Args: args}}
}

func (i *Invoke) Execute(ctx context.Context, st *State) error {
	if st.jr == nil {
		// No start record to carry the declared undo: it goes straight
		// onto the plain run's list, before the call like the journal's.
		if cc, ok := ctx.Value(compCollectorKey{}).(*compCollector); ok {
			cc.add(i.resolveCompensation(i.Label, st.Vars)...)
		}
	}
	args := map[string]any{}
	for param, varName := range i.Inputs {
		if v, ok := st.Vars.Get(varName); ok {
			args[param] = v
		}
	}
	out, err := i.Invoker.Invoke(ctx, i.Service, i.Operation, args)
	if err != nil {
		return fmt.Errorf("invoke %s.%s: %w", i.Service, i.Operation, err)
	}
	for result, varName := range i.Outputs {
		if v, ok := out[result]; ok {
			st.Vars.Set(varName, v)
		}
	}
	return nil
}

// Sequence runs activities in order, stopping at the first fault.
type Sequence struct {
	Label string
	Steps []Activity
}

func (s *Sequence) Name() string { return s.Label }

// Children implements the validation walker.
func (s *Sequence) Children() []Activity { return s.Steps }

func (s *Sequence) Validate() error {
	if s.Label == "" || len(s.Steps) == 0 {
		return fmt.Errorf("%w: sequence needs label and steps", ErrDefinition)
	}
	return nil
}

func (s *Sequence) Execute(ctx context.Context, st *State) error {
	for _, step := range s.Steps {
		if err := exec(ctx, step, st); err != nil {
			return err
		}
	}
	return nil
}

// Parallel is the AND-split/AND-join: every branch runs, and the join
// completes when all have. Branches run one by one in definition order
// under both engines, so the first branch fault ends the join and no
// later branch starts; a crash under an Orchestrator still lands
// "mid-Parallel" — some branches journaled done, the rest not.
type Parallel struct {
	Label    string
	Branches []Activity
}

func (p *Parallel) Name() string { return p.Label }

func (p *Parallel) Children() []Activity { return p.Branches }

func (p *Parallel) Validate() error {
	if p.Label == "" || len(p.Branches) == 0 {
		return fmt.Errorf("%w: parallel needs label and branches", ErrDefinition)
	}
	return nil
}

func (p *Parallel) Execute(ctx context.Context, st *State) error {
	for i, b := range p.Branches {
		if err := exec(ctx, b, st.branchScope("b", i)); err != nil {
			return err
		}
	}
	return nil
}

// If runs Then when the condition holds, Else (optional) otherwise.
type If struct {
	Label string
	Cond  func(vars *Vars) bool
	Then  Activity
	Else  Activity
}

func (i *If) Name() string { return i.Label }

func (i *If) Children() []Activity {
	out := []Activity{i.Then}
	if i.Else != nil {
		out = append(out, i.Else)
	}
	return out
}

func (i *If) Validate() error {
	if i.Label == "" || i.Cond == nil || i.Then == nil {
		return fmt.Errorf("%w: if needs label, cond and then", ErrDefinition)
	}
	return nil
}

func (i *If) Execute(ctx context.Context, st *State) error {
	if i.Cond(st.Vars) {
		return exec(ctx, i.Then, st)
	}
	if i.Else != nil {
		return exec(ctx, i.Else, st)
	}
	return nil
}

// While repeats Body while the condition holds, bounded by MaxIterations
// (default 10000) to keep buggy compositions from spinning forever.
type While struct {
	Label         string
	Cond          func(vars *Vars) bool
	Body          Activity
	MaxIterations int
}

func (w *While) Name() string { return w.Label }

func (w *While) Children() []Activity { return []Activity{w.Body} }

func (w *While) Validate() error {
	if w.Label == "" || w.Cond == nil || w.Body == nil {
		return fmt.Errorf("%w: while needs label, cond and body", ErrDefinition)
	}
	return nil
}

func (w *While) Execute(ctx context.Context, st *State) error {
	max := w.MaxIterations
	if max <= 0 {
		max = 10000
	}
	for i := 0; w.Cond(st.Vars); i++ {
		if i >= max {
			return fmt.Errorf("while %q exceeded %d iterations", w.Label, max)
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		// Each iteration gets its own key namespace so replay aligns
		// iteration i's journal records with iteration i's re-execution.
		if err := exec(ctx, w.Body, st.branchScope("t", i)); err != nil {
			return err
		}
	}
	return nil
}

// Pick is the event-driven OR-join: each branch has a guard channel,
// and the first ready event in definition order runs its activity while
// the rest are abandoned. A Pick does not wait: each event channel is
// tried once, and with none ready the pick expires at once — OnExpire
// runs, or the run faults with the timeout fault, which names Timeout.
type Pick struct {
	Label   string
	Events  []PickBranch
	Timeout time.Duration
	// OnExpire optionally runs when the pick expires with no event.
	OnExpire Activity
}

// PickBranch couples an event source with its continuation.
type PickBranch struct {
	// Wait returns a channel that holds the payload once the event has
	// fired. It is called once per execution and read without blocking.
	Wait func(ctx context.Context) <-chan any
	// Var, when non-empty, receives the event payload.
	Var string
	// Then runs when this branch wins.
	Then Activity
}

func (p *Pick) Name() string { return p.Label }

func (p *Pick) Children() []Activity {
	var out []Activity
	for _, e := range p.Events {
		out = append(out, e.Then)
	}
	if p.OnExpire != nil {
		out = append(out, p.OnExpire)
	}
	return out
}

func (p *Pick) Validate() error {
	if p.Label == "" || len(p.Events) == 0 {
		return fmt.Errorf("%w: pick needs label and events", ErrDefinition)
	}
	for _, e := range p.Events {
		if e.Wait == nil || e.Then == nil {
			return fmt.Errorf("%w: pick branch needs wait and then", ErrDefinition)
		}
	}
	return nil
}

// Execute decides the pick and runs the chosen continuation. In a
// journaled run the decision is journaled before the continuation runs,
// under the pick's own step key, so replay re-runs the same continuation
// without polling the events again, whose channels may have moved on
// since.
func (p *Pick) Execute(ctx context.Context, st *State) error {
	if st.jr != nil {
		if rec, decided := st.jr.prior.picks[st.path]; decided {
			return p.proceed(ctx, st, rec.Branch, rec.Payload, rec.Expired)
		}
	}
	idx, payload, expired, err := p.poll(ctx)
	if err != nil {
		return err
	}
	if st.jr != nil {
		rec := Record{Kind: recPick, Key: st.path, Branch: idx, Expired: expired, Payload: payload}
		if err := st.jr.append(rec); err != nil {
			return err
		}
	}
	return p.proceed(ctx, st, idx, payload, expired)
}

// poll decides the pick: each branch's event channel is tried once, in
// definition order, and a pick with no event ready has expired —
// virtual-time-safe and a pure function of the event sources. A caller
// that gave up decides nothing: its error comes back instead of an
// expiry.
func (p *Pick) poll(ctx context.Context) (idx int, payload any, expired bool, err error) {
	for i, e := range p.Events {
		select {
		case v, ok := <-e.Wait(ctx):
			if ok {
				return i, v, false, nil
			}
		default:
		}
	}
	if err := ctx.Err(); err != nil {
		return 0, nil, false, err
	}
	return 0, nil, true, nil
}

// proceed runs the continuation a decided pick selected: OnExpire (or
// the timeout fault) on expiry, otherwise branch idx with its payload
// bound to the branch's Var.
func (p *Pick) proceed(ctx context.Context, st *State, idx int, payload any, expired bool) error {
	if expired {
		if p.OnExpire != nil {
			return exec(ctx, p.OnExpire, st)
		}
		return fmt.Errorf("pick %q timed out after %v", p.Label, p.Timeout)
	}
	if idx < 0 || idx >= len(p.Events) {
		return fmt.Errorf("pick %q: journaled branch %d out of range (definition drift?)", p.Label, idx)
	}
	br := p.Events[idx]
	if br.Var != "" {
		st.Vars.Set(br.Var, payload)
	}
	return exec(ctx, br.Then, st)
}

// Scope is a BPEL-style fault handler around Body: when Body faults and
// OnFault is set, the fault text lands in "fault.<Label>" and OnFault
// runs; if it finishes without error the fault is absorbed. A Scope runs
// no compensation of its own — declared undos (Invoke.Compensation,
// Compensate) belong to the instance and run when a fault escapes the
// root, under Workflow.Run and the Orchestrator alike.
type Scope struct {
	Label string
	Body  Activity
	// OnFault handles a fault from Body; if it executes without error
	// the fault is considered handled.
	OnFault Activity
}

func (s *Scope) Name() string { return s.Label }

func (s *Scope) Children() []Activity {
	out := []Activity{s.Body}
	if s.OnFault != nil {
		out = append(out, s.OnFault)
	}
	return out
}

func (s *Scope) Validate() error {
	if s.Label == "" || s.Body == nil {
		return fmt.Errorf("%w: scope needs label and body", ErrDefinition)
	}
	return nil
}

func (s *Scope) Execute(ctx context.Context, st *State) error {
	err := exec(ctx, s.Body, st)
	if err == nil || s.OnFault == nil {
		return err
	}
	st.Vars.Set("fault."+s.Label, err.Error())
	if herr := exec(ctx, s.OnFault, st); herr != nil {
		return fmt.Errorf("scope %q: fault handler failed: %w", s.Label, herr)
	}
	return nil // fault handled
}
