package fsm

import (
	"context"
	"errors"
	"strings"
	"testing"
)

// counterEnv is a tiny environment: a counter the machine increments.
type counterEnv struct{ n int }

func buildCounter(t *testing.T, limit int) *Machine[*counterEnv] {
	t.Helper()
	m, err := NewBuilder[*counterEnv]("counter").
		State("counting", "done").
		Initial("counting").
		Accepting("done").
		On(Transition[*counterEnv]{
			From: "counting", To: "done", Label: "limit",
			Guard: func(e *counterEnv) bool { return e.n >= limit },
		}).
		On(Transition[*counterEnv]{
			From: "counting", To: "counting", Label: "inc",
			Action: func(_ context.Context, e *counterEnv) error { e.n++; return nil },
		}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestRunToAccepting(t *testing.T) {
	m := buildCounter(t, 5)
	env := &counterEnv{}
	r := m.NewRunner()
	if err := r.Run(context.Background(), env, 100); err != nil {
		t.Fatal(err)
	}
	if env.n != 5 || r.current != "done" || !m.accepting[r.current] {
		t.Errorf("n=%d state=%s", env.n, r.current)
	}
	// 5 increments + 1 final transition.
	if r.steps != 6 {
		t.Errorf("steps = %d", r.steps)
	}
	if len(r.History) != 7 || r.History[0] != "counting" || r.History[6] != "done" {
		t.Errorf("history = %v", r.History)
	}
}

func TestGuardPriorityIsDeclarationOrder(t *testing.T) {
	// Both transitions enabled: the first declared must win.
	m, err := NewBuilder[struct{}]("prio").
		State("a", "b", "c").
		Initial("a").
		Accepting("b", "c").
		On(Transition[struct{}]{From: "a", To: "b", Label: "first"}).
		On(Transition[struct{}]{From: "a", To: "c", Label: "second"}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	r := m.NewRunner()
	if err := r.Step(context.Background(), struct{}{}); err != nil {
		t.Fatal(err)
	}
	if r.current != "b" {
		t.Errorf("state = %s, want b", r.current)
	}
}

func TestStuck(t *testing.T) {
	m, err := NewBuilder[struct{}]("stuck").
		State("a", "b").
		Initial("a").
		Accepting("b").
		On(Transition[struct{}]{From: "a", To: "b", Guard: func(struct{}) bool { return false }}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	r := m.NewRunner()
	if err := r.Step(context.Background(), struct{}{}); !errors.Is(err, ErrStuck) {
		t.Errorf("err = %v", err)
	}
}

func TestStepLimit(t *testing.T) {
	m := buildCounter(t, 1000)
	r := m.NewRunner()
	err := r.Run(context.Background(), &counterEnv{}, 10)
	if !errors.Is(err, ErrStepLimit) {
		t.Errorf("err = %v", err)
	}
	if _, e := m.NewRunner(), r; e == nil {
		t.Fatal()
	}
	if err := m.NewRunner().Run(context.Background(), &counterEnv{}, 0); !errors.Is(err, ErrDefinition) {
		t.Errorf("maxSteps=0: %v", err)
	}
}

func TestActionError(t *testing.T) {
	boom := errors.New("actuator jam")
	m, err := NewBuilder[struct{}]("err").
		State("a", "b").
		Initial("a").
		Accepting("b").
		On(Transition[struct{}]{From: "a", To: "b", Action: func(context.Context, struct{}) error { return boom }}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.NewRunner().Step(context.Background(), struct{}{}); !errors.Is(err, boom) {
		t.Errorf("err = %v", err)
	}
}

func TestBuildValidation(t *testing.T) {
	type b = Builder[struct{}]
	cases := []struct {
		name  string
		build func() (*Machine[struct{}], error)
	}{
		{"empty name", func() (*Machine[struct{}], error) {
			return NewBuilder[struct{}]("").State("a").Initial("a").Build()
		}},
		{"empty state", func() (*Machine[struct{}], error) {
			return NewBuilder[struct{}]("m").State("").Initial("").Build()
		}},
		{"dup state", func() (*Machine[struct{}], error) {
			return NewBuilder[struct{}]("m").State("a", "a").Initial("a").Build()
		}},
		{"undeclared initial", func() (*Machine[struct{}], error) {
			return NewBuilder[struct{}]("m").State("a").Initial("x").Build()
		}},
		{"undeclared accepting", func() (*Machine[struct{}], error) {
			return NewBuilder[struct{}]("m").State("a").Initial("a").Accepting("x").Build()
		}},
		{"undeclared transition endpoint", func() (*Machine[struct{}], error) {
			return NewBuilder[struct{}]("m").State("a").Initial("a").
				On(Transition[struct{}]{From: "a", To: "ghost"}).Build()
		}},
		{"unreachable state", func() (*Machine[struct{}], error) {
			return NewBuilder[struct{}]("m").State("a", "island").Initial("a").Build()
		}},
	}
	for _, c := range cases {
		if _, err := c.build(); !errors.Is(err, ErrDefinition) {
			t.Errorf("%s: err = %v", c.name, err)
		}
	}
	var _ = b{} // keep alias used
}

func TestContextCancel(t *testing.T) {
	m := buildCounter(t, 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := m.NewRunner().Run(ctx, &counterEnv{}, 100); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v", err)
	}
}

func TestStatesAndAccessors(t *testing.T) {
	m := buildCounter(t, 1)
	if m.name != "counter" || m.initial != "counting" {
		t.Errorf("identity: %s %s", m.name, m.initial)
	}
	states := m.States()
	if len(states) != 2 || states[0] != "counting" {
		t.Errorf("states = %v", states)
	}
	if !m.accepting["done"] || m.accepting["counting"] {
		t.Error("accepting flags wrong")
	}
}

func TestDOTExport(t *testing.T) {
	m := buildCounter(t, 1)
	dot := m.DOT()
	for _, want := range []string{
		"digraph \"counter\"", "doublecircle", "\"counting\" -> \"done\"",
		"label=\"limit\"", "__start ->",
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
}
