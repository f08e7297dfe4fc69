package fsm_test

import (
	"context"
	"fmt"

	"soc/internal/fsm"
)

// Example builds and runs a tiny machine in the Figure 2 style: a
// counting state with a guarded exit transition.
func Example() {
	type env struct{ n int }
	m, _ := fsm.NewBuilder[*env]("count-to-three").
		State("counting", "done").
		Initial("counting").
		Accepting("done").
		On(fsm.Transition[*env]{
			From: "counting", To: "done", Label: "reached",
			Guard: func(e *env) bool { return e.n >= 3 },
		}).
		On(fsm.Transition[*env]{
			From: "counting", To: "counting", Label: "inc",
			Action: func(_ context.Context, e *env) error { e.n++; return nil },
		}).
		Build()
	e := &env{}
	r := m.NewRunner()
	_ = r.Run(context.Background(), e, 100)
	fmt.Println(r.History[len(r.History)-1], e.n)
	// Output: done 3
}
