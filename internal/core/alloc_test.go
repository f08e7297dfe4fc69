//go:build !race

package core

import (
	"context"
	"reflect"
	"testing"
)

// A handler's result that already conforms to the output signature comes
// back from Invoke as the handler's own map: the output side allocates
// nothing, so Invoke costs only the input's coercion.
func TestInvokeAliasesConformingOutput(t *testing.T) {
	out := Values{"s": "x", "n": int64(300), "f": 1.5, "b": true}
	svc, err := NewService("Alias", "http://soc.example/alias", "")
	if err != nil {
		t.Fatal(err)
	}
	svc.MustAddOperation(Operation{
		Name:  "Get",
		Input: []Param{{Name: "n", Type: Int}},
		Output: []Param{
			{Name: "s", Type: String}, {Name: "n", Type: Int},
			{Name: "f", Type: Float}, {Name: "b", Type: Bool},
		},
		Handler: func(context.Context, Values) (Values, error) { return out, nil },
	})
	ctx := context.Background()
	args := Values{"n": float64(300)}
	got, err := svc.Invoke(ctx, "Get", args)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.ValueOf(got).Pointer() != reflect.ValueOf(out).Pointer() {
		t.Fatal("a conforming result was copied")
	}
	op, _ := svc.Operation("Get")
	input := testing.AllocsPerRun(200, func() {
		if _, err := coerceValues(args, op.Input, op.inputIdx, args, true); err != nil {
			t.Fatal(err)
		}
	})
	invoke := testing.AllocsPerRun(200, func() {
		if _, err := svc.Invoke(ctx, "Get", args); err != nil {
			t.Fatal(err)
		}
	})
	if invoke != input {
		t.Errorf("Invoke allocates %.0f/op, its input's coercion %.0f: the output side allocates %.0f, want 0", invoke, input, invoke-input)
	}
}
