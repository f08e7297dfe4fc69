// Package fsm implements the finite-state-machine formalism in which the
// paper presents robot control algorithms (Figure 2 gives the two-distance
// maze algorithm as an FSM to be implemented in VPL): named states,
// guarded transitions with actions, a validating builder, a runner, and
// DOT export for visualization.
package fsm

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
)

// ErrDefinition reports an invalid machine definition.
var ErrDefinition = errors.New("fsm: invalid definition")

// ErrStuck reports a run that reached a state with no enabled transition.
var ErrStuck = errors.New("fsm: no enabled transition")

// ErrStepLimit reports a run exceeding its step budget.
var ErrStepLimit = errors.New("fsm: step limit exceeded")

// Guard decides whether a transition is enabled given the environment E.
type Guard[E any] func(env E) bool

// Action runs when a transition fires.
type Action[E any] func(ctx context.Context, env E) error

// Transition is one edge of the machine.
type Transition[E any] struct {
	From  string
	To    string
	Label string
	// Guard enables the transition; nil means always enabled.
	Guard Guard[E]
	// Action runs as the transition fires; nil means no action.
	Action Action[E]
}

// Machine is a validated finite state machine over environment E.
type Machine[E any] struct {
	name        string
	initial     string
	states      map[string]bool
	accepting   map[string]bool
	transitions map[string][]Transition[E]
}

// Builder accumulates a machine definition.
type Builder[E any] struct {
	name        string
	initial     string
	states      []string
	accepting   []string
	transitions []Transition[E]
}

// NewBuilder starts a machine definition.
func NewBuilder[E any](name string) *Builder[E] { return &Builder[E]{name: name} }

// State declares states.
func (b *Builder[E]) State(names ...string) *Builder[E] {
	b.states = append(b.states, names...)
	return b
}

// Initial sets the start state.
func (b *Builder[E]) Initial(name string) *Builder[E] {
	b.initial = name
	return b
}

// Accepting marks final states: the run stops successfully on entering one.
func (b *Builder[E]) Accepting(names ...string) *Builder[E] {
	b.accepting = append(b.accepting, names...)
	return b
}

// On adds a transition.
func (b *Builder[E]) On(t Transition[E]) *Builder[E] {
	b.transitions = append(b.transitions, t)
	return b
}

// Build validates and returns the machine. Validation requires: a name,
// declared initial state, all transition endpoints declared, every
// non-accepting state reachable from the initial state, and at least one
// accepting state reachable.
func (b *Builder[E]) Build() (*Machine[E], error) {
	if b.name == "" {
		return nil, fmt.Errorf("%w: empty name", ErrDefinition)
	}
	m := &Machine[E]{
		name:        b.name,
		initial:     b.initial,
		states:      map[string]bool{},
		accepting:   map[string]bool{},
		transitions: map[string][]Transition[E]{},
	}
	for _, s := range b.states {
		if s == "" {
			return nil, fmt.Errorf("%w: empty state name", ErrDefinition)
		}
		if m.states[s] {
			return nil, fmt.Errorf("%w: duplicate state %q", ErrDefinition, s)
		}
		m.states[s] = true
	}
	if !m.states[b.initial] {
		return nil, fmt.Errorf("%w: initial state %q not declared", ErrDefinition, b.initial)
	}
	for _, a := range b.accepting {
		if !m.states[a] {
			return nil, fmt.Errorf("%w: accepting state %q not declared", ErrDefinition, a)
		}
		m.accepting[a] = true
	}
	for _, t := range b.transitions {
		if !m.states[t.From] || !m.states[t.To] {
			return nil, fmt.Errorf("%w: transition %q→%q uses undeclared state", ErrDefinition, t.From, t.To)
		}
		m.transitions[t.From] = append(m.transitions[t.From], t)
	}
	// Reachability from the initial state.
	reach := map[string]bool{b.initial: true}
	frontier := []string{b.initial}
	for len(frontier) > 0 {
		s := frontier[0]
		frontier = frontier[1:]
		for _, t := range m.transitions[s] {
			if !reach[t.To] {
				reach[t.To] = true
				frontier = append(frontier, t.To)
			}
		}
	}
	for s := range m.states {
		if !reach[s] {
			return nil, fmt.Errorf("%w: state %q unreachable", ErrDefinition, s)
		}
	}
	return m, nil
}

// States returns the sorted state names.
func (m *Machine[E]) States() []string {
	out := make([]string, 0, len(m.states))
	for s := range m.states {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Runner executes a machine instance against an environment.
type Runner[E any] struct {
	m       *Machine[E]
	current string
	steps   int
	// History records visited states including the initial one.
	History []string
}

// NewRunner returns a runner positioned at the initial state.
func (m *Machine[E]) NewRunner() *Runner[E] {
	return &Runner[E]{m: m, current: m.initial, History: []string{m.initial}}
}

// Step evaluates the current state's transitions in declaration order and
// fires the first enabled one. It reports ErrStuck when none is enabled.
func (r *Runner[E]) Step(ctx context.Context, env E) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, t := range r.m.transitions[r.current] {
		if t.Guard != nil && !t.Guard(env) {
			continue
		}
		if t.Action != nil {
			if err := t.Action(ctx, env); err != nil {
				return fmt.Errorf("fsm %s: action on %q→%q: %w", r.m.name, t.From, t.To, err)
			}
		}
		r.current = t.To
		r.steps++
		r.History = append(r.History, t.To)
		return nil
	}
	return fmt.Errorf("%w: state %q of %s", ErrStuck, r.current, r.m.name)
}

// Run steps the machine until it reaches an accepting state, gets stuck,
// errors, or exceeds maxSteps.
//
//soclint:ignore unreached PAPER.md's VPL + internal/fsm row: running a machine to an accepting state; nav steps its machines one robot move at a time
func (r *Runner[E]) Run(ctx context.Context, env E, maxSteps int) error {
	if maxSteps <= 0 {
		return fmt.Errorf("%w: maxSteps=%d", ErrDefinition, maxSteps)
	}
	for !r.m.accepting[r.current] {
		if r.steps >= maxSteps {
			return fmt.Errorf("%w: %d", ErrStepLimit, maxSteps)
		}
		if err := r.Step(ctx, env); err != nil {
			return err
		}
	}
	return nil
}

// DOT renders the machine in Graphviz DOT format (the notation of the
// paper's Figure 2, mechanically).
func (m *Machine[E]) DOT() string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=LR;\n", m.name)
	fmt.Fprintf(&b, "  __start [shape=point];\n  __start -> %q;\n", m.initial)
	for _, s := range m.States() {
		shape := "circle"
		if m.accepting[s] {
			shape = "doublecircle"
		}
		fmt.Fprintf(&b, "  %q [shape=%s];\n", s, shape)
	}
	froms := make([]string, 0, len(m.transitions))
	for f := range m.transitions {
		froms = append(froms, f)
	}
	sort.Strings(froms)
	for _, f := range froms {
		for _, t := range m.transitions[f] {
			label := t.Label
			fmt.Fprintf(&b, "  %q -> %q [label=%q];\n", t.From, t.To, label)
		}
	}
	b.WriteString("}\n")
	return b.String()
}
