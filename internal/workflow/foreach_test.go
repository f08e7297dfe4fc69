package workflow

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
)

func TestForEachSequential(t *testing.T) {
	wf, err := New("sum", &Sequence{Label: "main", Steps: []Activity{
		&Assign{Label: "init", Var: "total", Expr: func(*Vars) any { return int64(0) }},
		&ForEach{
			Label: "loop", Items: "nums", ItemVar: "n", IndexVar: "i",
			Body: &Assign{Label: "acc", Var: "total", Expr: func(v *Vars) any {
				return v.GetInt("total") + v.GetInt("n")
			}},
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := wf.Run(context.Background(), map[string]any{
		"nums": []any{int64(1), int64(2), int64(3), int64(4)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out["total"] != int64(10) {
		t.Errorf("total = %v", out["total"])
	}
	// IndexVar left at the final index.
	if out["i"] != int64(3) {
		t.Errorf("i = %v", out["i"])
	}
}

func TestForEachParallelCollects(t *testing.T) {
	wf, err := New("squares", &ForEach{
		Label: "fan", Items: "nums", ItemVar: "n", Parallel: true, CollectVar: "sq",
		Body: &Assign{Label: "square", Var: "sq", Expr: func(v *Vars) any {
			return v.GetInt("n") * v.GetInt("n")
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := wf.Run(context.Background(), map[string]any{
		"nums": []any{int64(1), int64(2), int64(3), int64(4), int64(5)},
	})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := out["sq"].([]any)
	if !ok || len(got) != 5 {
		t.Fatalf("sq = %v", out["sq"])
	}
	// Index order preserved despite parallel execution.
	for i, v := range got {
		want := int64((i + 1) * (i + 1))
		if v != want {
			t.Errorf("sq[%d] = %v, want %d", i, v, want)
		}
	}
}

func TestForEachParallelIsolation(t *testing.T) {
	// Parallel iterations write the same variable name without racing:
	// each has its own scope.
	wf, _ := New("iso", &ForEach{
		Label: "fan", Items: "items", ItemVar: "x", Parallel: true, CollectVar: "out",
		Body: &Sequence{Label: "body", Steps: []Activity{
			&Assign{Label: "tmp", Var: "scratch", Expr: func(v *Vars) any { return v.GetString("x") + "!" }},
			&Assign{Label: "emit", Var: "out", Expr: func(v *Vars) any { return v.GetString("scratch") }},
		}},
	})
	items := make([]any, 32)
	for i := range items {
		items[i] = fmt.Sprintf("item%d", i)
	}
	out, _, err := wf.Run(context.Background(), map[string]any{"items": items})
	if err != nil {
		t.Fatal(err)
	}
	results := out["out"].([]any)
	for i, r := range results {
		if r != fmt.Sprintf("item%d!", i) {
			t.Errorf("out[%d] = %v", i, r)
		}
	}
	// The parent scope's scratch variable is untouched.
	if _, ok := out["scratch"]; ok {
		t.Error("child scope leaked into parent")
	}
}

// TestForEachParallelFaultCancels: isolated iterations run one by one
// in index order, so a fault in item k ends the loop before any later
// item starts.
func TestForEachParallelFaultCancels(t *testing.T) {
	var started startLog
	wf, _ := New("fault", &ForEach{
		Label: "fan", Items: "items", ItemVar: "x", Parallel: true,
		Body: &Task{Label: "maybe", Fn: func(_ context.Context, v *Vars) error {
			started.add(fmt.Sprint(v.GetInt("x")))
			if v.GetInt("x") == 2 {
				return errors.New("item 2 exploded")
			}
			return nil
		}},
	})
	_, _, err := wf.Run(context.Background(), map[string]any{
		"items": []any{int64(0), int64(1), int64(2), int64(3)},
	})
	if err == nil || !strings.Contains(err.Error(), "item 2 exploded") {
		t.Errorf("err = %v", err)
	}
	if got := started.ids(); !slices.Equal(got, []string{"0", "1", "2"}) {
		t.Errorf("items started %v, want [0 1 2]: no item after the fault may start", got)
	}
}

func TestForEachValidation(t *testing.T) {
	body := &Task{Label: "b", Fn: func(context.Context, *Vars) error { return nil }}
	bad := []*ForEach{
		{Items: "x", ItemVar: "i", Body: body},                              // no label
		{Label: "f", ItemVar: "i", Body: body},                              // no items
		{Label: "f", Items: "x", Body: body},                                // no item var
		{Label: "f", Items: "x", ItemVar: "i"},                              // no body
		{Label: "f", Items: "x", ItemVar: "i", Body: body, CollectVar: "c"}, // collect w/o parallel
	}
	for i, fe := range bad {
		if _, err := New("w", fe); !errors.Is(err, ErrDefinition) {
			t.Errorf("case %d: %v", i, err)
		}
	}
}

func TestForEachRuntimeTypeErrors(t *testing.T) {
	wf, _ := New("w", &ForEach{
		Label: "f", Items: "items", ItemVar: "x",
		Body: &Task{Label: "b", Fn: func(context.Context, *Vars) error { return nil }},
	})
	if _, _, err := wf.Run(context.Background(), nil); err == nil {
		t.Error("missing items variable accepted")
	}
	if _, _, err := wf.Run(context.Background(), map[string]any{"items": "not a slice"}); err == nil {
		t.Error("non-slice items accepted")
	}
	// Empty list is a no-op.
	if _, _, err := wf.Run(context.Background(), map[string]any{"items": []any{}}); err != nil {
		t.Errorf("empty list: %v", err)
	}
}
