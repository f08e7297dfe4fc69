package workflow

import (
	"context"
	"fmt"
)

// ForEach runs Body once per element of the variable named Items (which
// must hold a []any), binding the element to ItemVar and the index to
// IndexVar (when set) before each iteration — BPEL's <forEach>.
//
// Sequential mode shares the workflow scope. Parallel mode gives every
// iteration an isolated child scope seeded from a snapshot of the parent
// taken before the first iteration, so no iteration sees another's
// writes; when CollectVar is set, each iteration's value of that
// variable is gathered, in index order, into the parent variable of the
// same name as a []any. Iterations run one by one in index order in
// both modes, under both engines: the first fault ends the loop and no
// later iteration starts.
type ForEach struct {
	Label      string
	Items      string
	ItemVar    string
	IndexVar   string
	Parallel   bool
	CollectVar string
	Body       Activity
}

// Name implements Activity.
func (f *ForEach) Name() string { return f.Label }

// Children implements the validation walker.
func (f *ForEach) Children() []Activity { return []Activity{f.Body} }

// Validate checks the definition.
func (f *ForEach) Validate() error {
	if f.Label == "" || f.Items == "" || f.ItemVar == "" || f.Body == nil {
		return fmt.Errorf("%w: foreach needs label, items, itemVar and body", ErrDefinition)
	}
	if f.CollectVar != "" && !f.Parallel {
		return fmt.Errorf("%w: foreach %q: CollectVar requires Parallel", ErrDefinition, f.Label)
	}
	return nil
}

// Execute implements Activity.
func (f *ForEach) Execute(ctx context.Context, st *State) error {
	raw, ok := st.Vars.Get(f.Items)
	if !ok {
		return fmt.Errorf("foreach %q: variable %q not set", f.Label, f.Items)
	}
	items, ok := raw.([]any)
	if !ok {
		return fmt.Errorf("foreach %q: variable %q is %T, want []any", f.Label, f.Items, raw)
	}
	if !f.Parallel {
		for i, item := range items {
			st.Vars.Set(f.ItemVar, item)
			if f.IndexVar != "" {
				st.Vars.Set(f.IndexVar, int64(i))
			}
			// Per-iteration key namespace: replay aligns by index, so a
			// resumed loop skips exactly the iterations that journaled.
			if err := exec(ctx, f.Body, st.branchScope("i", i)); err != nil {
				return err
			}
		}
		return nil
	}

	// Isolated child scopes, one per iteration, run in index order; a
	// crash under an Orchestrator still lands mid-ForEach.
	snapshot := st.Vars.Snapshot()
	var results []any
	if f.CollectVar != "" {
		results = make([]any, len(items))
	}
	for i, item := range items {
		vars := NewVars(snapshot)
		vars.Set(f.ItemVar, item)
		if f.IndexVar != "" {
			vars.Set(f.IndexVar, int64(i))
		}
		if err := exec(ctx, f.Body, st.child("i", i, vars)); err != nil {
			return err
		}
		if results != nil {
			results[i], _ = vars.Get(f.CollectVar)
		}
	}
	if results != nil {
		st.Vars.Set(f.CollectVar, results)
	}
	return nil
}
