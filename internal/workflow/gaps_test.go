package workflow

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestWhileFaultPath proves a fault inside a While body stops the loop at
// that iteration: no further iterations run, the fault propagates wrapped
// in ErrFaulted, and the effects of the iterations that completed before
// the fault are still visible in the final vars.
func TestWhileFaultPath(t *testing.T) {
	var bodies int32
	wf, err := New("while-fault", &While{
		Label: "loop",
		Cond:  func(v *Vars) bool { return v.GetInt("n") < 5 },
		Body: &Task{Label: "work", Fn: func(_ context.Context, v *Vars) error {
			atomic.AddInt32(&bodies, 1)
			n := v.GetInt("n")
			if n == 2 {
				return errors.New("pump seized")
			}
			v.Set(fmt.Sprintf("round%d", n), true)
			v.Set("n", n+1)
			return nil
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := wf.Run(context.Background(), map[string]any{"n": int64(0)})
	if !errors.Is(err, ErrFaulted) || !strings.Contains(err.Error(), "pump seized") {
		t.Fatalf("err = %v, want ErrFaulted wrapping the body fault", err)
	}
	if got := atomic.LoadInt32(&bodies); got != 3 {
		t.Errorf("body ran %d times, want 3 (two clean iterations plus the faulting one)", got)
	}
	// Earlier iterations' effects survive; the loop never reached round 2+.
	if out["round0"] != true || out["round1"] != true {
		t.Errorf("pre-fault iteration effects lost: %v", out)
	}
	if _, ok := out["round2"]; ok {
		t.Errorf("faulting iteration left an effect: %v", out)
	}
	if out["n"] != int64(2) {
		t.Errorf("n = %v, want 2 (the iteration that faulted)", out["n"])
	}
}

// TestPickEventBeatsGenerousTimeout pins the deterministic side of the
// race: a buffered event always wins over a timeout that has not fired.
func TestPickEventBeatsGenerousTimeout(t *testing.T) {
	wf, err := New("pick-event", &Pick{
		Label: "sure",
		Events: []PickBranch{{
			Wait: func(ctx context.Context) <-chan any {
				ch := make(chan any, 1)
				ch <- int64(7)
				return ch
			},
			Var:  "evt",
			Then: &Assign{Label: "won", Var: "outcome", Expr: func(*Vars) any { return "event" }},
		}},
		Timeout:  time.Hour,
		OnExpire: &Assign{Label: "expired", Var: "outcome", Expr: func(*Vars) any { return "timeout" }},
	})
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := wf.Run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if out["outcome"] != "event" || out["evt"] != int64(7) {
		t.Errorf("buffered event lost to an unfired one-hour timer: %v", out)
	}
}

// TestInvokeFailingInvokerFunc exercises Invoke against an InvokerFunc
// that always errors: the fault must carry the service/operation context
// and the original cause, and outputs must not be bound.
func TestInvokeFailingInvokerFunc(t *testing.T) {
	var calls int32
	inv := InvokerFunc(func(_ context.Context, service, op string, args map[string]any) (map[string]any, error) {
		atomic.AddInt32(&calls, 1)
		return map[string]any{"partial": true}, fmt.Errorf("%s.%s rejected: quota exhausted", service, op)
	})
	wf, err := New("invoke-fail", &Invoke{
		Label: "call", Service: "Billing", Operation: "Charge", Invoker: inv,
		Inputs:  map[string]string{"amount": "amount"},
		Outputs: map[string]string{"receipt": "receipt"},
	})
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := wf.Run(context.Background(), map[string]any{"amount": int64(5)})
	if !errors.Is(err, ErrFaulted) {
		t.Fatalf("err = %v, want ErrFaulted", err)
	}
	for _, want := range []string{"Billing", "Charge", "quota exhausted"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("fault %q does not mention %q", err, want)
		}
	}
	if _, ok := out["receipt"]; ok {
		t.Errorf("failed invoke bound its output mapping: %v", out)
	}
	if got := atomic.LoadInt32(&calls); got != 1 {
		t.Errorf("invoker called %d times, want exactly 1 (no blind retry)", got)
	}
}

// TestInvokeFailureCancelsParallelSiblings puts the failing InvokerFunc
// inside a parallel ForEach: the invoke fault ends the fan-out at its
// item, wrapped in ErrFaulted, and no item after it is ever invoked.
func TestInvokeFailureCancelsParallelSiblings(t *testing.T) {
	var invoked startLog
	inv := InvokerFunc(func(_ context.Context, _, _ string, args map[string]any) (map[string]any, error) {
		item := fmt.Sprint(args["item"])
		invoked.add(item)
		if item == "poison" {
			return nil, errors.New("poisoned payload")
		}
		return map[string]any{}, nil
	})
	wf, err := New("fanout-fail", &ForEach{
		Label: "fan", Items: "items", ItemVar: "item", Parallel: true,
		Body: &Invoke{Label: "probe", Service: "Scan", Operation: "Check", Invoker: inv,
			Inputs: map[string]string{"item": "item"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, _, runErr := wf.Run(context.Background(), map[string]any{
		"items": []any{"ok-1", "poison", "ok-2"},
	})
	if !errors.Is(runErr, ErrFaulted) || !strings.Contains(runErr.Error(), "poisoned payload") {
		t.Fatalf("err = %v, want ErrFaulted wrapping the poisoned invoke", runErr)
	}
	if got := invoked.ids(); !slices.Equal(got, []string{"ok-1", "poison"}) {
		t.Errorf("invoked %v, want [ok-1 poison]: no item after the fault may be invoked", got)
	}
}
