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
// (so branches cannot race); when CollectVar is set, each iteration's
// value of that variable is gathered, in index order, into the parent
// variable of the same name as a []any. Under an Orchestrator the
// isolated iterations run one by one in index order.
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

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	snapshot := st.Vars.Snapshot()
	childVars := make([]*Vars, len(items))
	for i, item := range items {
		vars := NewVars(snapshot)
		vars.Set(f.ItemVar, item)
		if f.IndexVar != "" {
			vars.Set(f.IndexVar, int64(i))
		}
		childVars[i] = vars
	}
	// A journaled run keeps the isolated child scopes but runs
	// iterations in index order; a crash still lands mid-ForEach.
	if st.sequential() {
		for i := range items {
			if err := exec(ctx, f.Body, st.child("i", i, childVars[i])); err != nil {
				return err
			}
		}
	} else {
		errs := make(chan error, len(items))
		for i := range items {
			go func(i int) {
				errs <- exec(ctx, f.Body, st.child("i", i, childVars[i]))
			}(i)
		}
		var first error
		for range items {
			if err := <-errs; err != nil && first == nil {
				first = err
				cancel()
			}
		}
		if first != nil {
			return first
		}
	}
	if f.CollectVar != "" {
		results := make([]any, len(items))
		for i, vars := range childVars {
			v, _ := vars.Get(f.CollectVar)
			results[i] = v
		}
		st.Vars.Set(f.CollectVar, results)
	}
	return nil
}
