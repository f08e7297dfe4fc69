package workflow

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"soc/internal/vtime"
)

// startLog records the steps that started, in start order; it is safe
// for steps that start at once.
type startLog struct {
	mu      sync.Mutex
	started []string
}

func (l *startLog) add(step string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.started = append(l.started, step)
}

func (l *startLog) ids() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.Clone(l.started)
}

func task(name string, fn func(v *Vars)) *Task {
	return &Task{Label: name, Fn: func(_ context.Context, v *Vars) error {
		if fn != nil {
			fn(v)
		}
		return nil
	}}
}

func failing(name, msg string) *Task {
	return &Task{Label: name, Fn: func(context.Context, *Vars) error {
		return errors.New(msg)
	}}
}

func TestSequenceRunsInOrder(t *testing.T) {
	var order []string
	wf, err := New("seq", &Sequence{Label: "main", Steps: []Activity{
		task("a", func(*Vars) { order = append(order, "a") }),
		task("b", func(*Vars) { order = append(order, "b") }),
		task("c", func(*Vars) { order = append(order, "c") }),
	}})
	if err != nil {
		t.Fatal(err)
	}
	_, trace, err := wf.Run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(order, "") != "abc" {
		t.Errorf("order = %v", order)
	}
	names := trace.Names()
	if len(names) != 4 || names[3] != "main" {
		t.Errorf("trace = %v", names)
	}
}

func TestSequenceStopsOnFault(t *testing.T) {
	ran := false
	wf, _ := New("seq", &Sequence{Label: "main", Steps: []Activity{
		failing("bad", "kaput"),
		task("never", func(*Vars) { ran = true }),
	}})
	_, _, err := wf.Run(context.Background(), nil)
	if !errors.Is(err, ErrFaulted) || !strings.Contains(err.Error(), "kaput") {
		t.Errorf("err = %v", err)
	}
	if ran {
		t.Error("activity after fault ran")
	}
}

func TestVarsAndAssign(t *testing.T) {
	wf, _ := New("calc", &Sequence{Label: "main", Steps: []Activity{
		&Assign{Label: "init", Var: "x", Expr: func(*Vars) any { return int64(10) }},
		&Assign{Label: "double", Var: "x", Expr: func(v *Vars) any { return v.GetInt("x") * 2 }},
		&Assign{Label: "msg", Var: "msg", Expr: func(v *Vars) any { return fmt.Sprintf("x=%d", v.GetInt("x")) }},
	}})
	out, _, err := wf.Run(context.Background(), map[string]any{"seed": true})
	if err != nil {
		t.Fatal(err)
	}
	if out["x"] != int64(20) || out["msg"] != "x=20" || out["seed"] != true {
		t.Errorf("out = %v", out)
	}
}

func TestParallelJoin(t *testing.T) {
	var count int32
	branches := make([]Activity, 8)
	for i := range branches {
		branches[i] = task(fmt.Sprintf("b%d", i), func(*Vars) { atomic.AddInt32(&count, 1) })
	}
	wf, _ := New("par", &Parallel{Label: "split", Branches: branches})
	_, _, err := wf.Run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if count != 8 {
		t.Errorf("count = %d", count)
	}
}

// TestParallelFaultCancelsSiblings: branches run one by one in
// definition order, so a fault in branch k ends the join before any
// later branch starts.
func TestParallelFaultCancelsSiblings(t *testing.T) {
	var started startLog
	branch := func(label string, err error) Activity {
		return &Task{Label: label, Fn: func(context.Context, *Vars) error {
			started.add(label)
			return err
		}}
	}
	wf, _ := New("par", &Parallel{Label: "split", Branches: []Activity{
		branch("ok", nil),
		branch("bad", errors.New("branch fault")),
		branch("late1", nil),
		branch("late2", nil),
	}})
	_, trace, err := wf.Run(context.Background(), nil)
	if !errors.Is(err, ErrFaulted) || !strings.Contains(err.Error(), "branch fault") {
		t.Errorf("err = %v", err)
	}
	if got := started.ids(); !slices.Equal(got, []string{"ok", "bad"}) {
		t.Errorf("branches started %v, want [ok bad]: no branch after the fault may start", got)
	}
	if got := trace.Names(); !slices.Equal(got, []string{"ok", "bad", "split"}) {
		t.Errorf("trace = %v", got)
	}
}

func TestIfBranches(t *testing.T) {
	mk := func() *Workflow {
		wf, _ := New("if", &If{
			Label: "check",
			Cond:  func(v *Vars) bool { b, _ := v.Get("flag"); return b == true },
			Then:  &Assign{Label: "t", Var: "result", Expr: func(*Vars) any { return "then" }},
			Else:  &Assign{Label: "e", Var: "result", Expr: func(*Vars) any { return "else" }},
		})
		return wf
	}
	out, _, _ := mk().Run(context.Background(), map[string]any{"flag": true})
	if out["result"] != "then" {
		t.Errorf("then branch: %v", out["result"])
	}
	out, _, _ = mk().Run(context.Background(), map[string]any{"flag": false})
	if out["result"] != "else" {
		t.Errorf("else branch: %v", out["result"])
	}
}

func TestIfWithoutElse(t *testing.T) {
	wf, _ := New("if", &If{
		Label: "check",
		Cond:  func(*Vars) bool { return false },
		Then:  failing("no", "never"),
	})
	if _, _, err := wf.Run(context.Background(), nil); err != nil {
		t.Errorf("err = %v", err)
	}
}

func TestWhileLoop(t *testing.T) {
	wf, _ := New("loop", &Sequence{Label: "main", Steps: []Activity{
		&Assign{Label: "init", Var: "i", Expr: func(*Vars) any { return int64(0) }},
		&While{
			Label: "count",
			Cond:  func(v *Vars) bool { return v.GetInt("i") < 5 },
			Body:  &Assign{Label: "inc", Var: "i", Expr: func(v *Vars) any { return v.GetInt("i") + 1 }},
		},
	}})
	out, _, err := wf.Run(context.Background(), nil)
	if err != nil || out["i"] != int64(5) {
		t.Errorf("i = %v err = %v", out["i"], err)
	}
}

func TestWhileIterationBound(t *testing.T) {
	wf, _ := New("loop", &While{
		Label:         "forever",
		Cond:          func(*Vars) bool { return true },
		Body:          task("noop", nil),
		MaxIterations: 10,
	})
	_, _, err := wf.Run(context.Background(), nil)
	if err == nil || !strings.Contains(err.Error(), "exceeded") {
		t.Errorf("err = %v", err)
	}
}

func TestInvokeMapsInputsAndOutputs(t *testing.T) {
	var gotArgs map[string]any
	inv := InvokerFunc(func(_ context.Context, svc, op string, args map[string]any) (map[string]any, error) {
		gotArgs = args
		if svc != "Calc" || op != "Add" {
			return nil, fmt.Errorf("unexpected target %s.%s", svc, op)
		}
		return map[string]any{"sum": args["a"].(int64) + args["b"].(int64)}, nil
	})
	wf, _ := New("invoke", &Invoke{
		Label: "add", Service: "Calc", Operation: "Add", Invoker: inv,
		Inputs:  map[string]string{"a": "x", "b": "y"},
		Outputs: map[string]string{"sum": "total"},
	})
	out, _, err := wf.Run(context.Background(), map[string]any{"x": int64(2), "y": int64(3)})
	if err != nil {
		t.Fatal(err)
	}
	if out["total"] != int64(5) {
		t.Errorf("total = %v", out["total"])
	}
	if gotArgs["a"] != int64(2) {
		t.Errorf("args = %v", gotArgs)
	}
}

func TestInvokeFault(t *testing.T) {
	inv := InvokerFunc(func(context.Context, string, string, map[string]any) (map[string]any, error) {
		return nil, errors.New("remote down")
	})
	wf, _ := New("invoke", &Invoke{Label: "call", Service: "S", Operation: "Op", Invoker: inv})
	_, _, err := wf.Run(context.Background(), nil)
	if err == nil || !strings.Contains(err.Error(), "remote down") {
		t.Errorf("err = %v", err)
	}
}

func TestPickFirstEventWins(t *testing.T) {
	fast := func(ctx context.Context) <-chan any {
		ch := make(chan any, 1)
		ch <- "payload"
		return ch
	}
	slow := func(ctx context.Context) <-chan any {
		return make(chan any) // never fires
	}
	wf, _ := New("pick", &Pick{
		Label: "race",
		Events: []PickBranch{
			{Wait: slow, Then: &Assign{Label: "s", Var: "winner", Expr: func(*Vars) any { return "slow" }}},
			{Wait: fast, Var: "evt", Then: &Assign{Label: "f", Var: "winner", Expr: func(*Vars) any { return "fast" }}},
		},
	})
	out, _, err := wf.Run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if out["winner"] != "fast" || out["evt"] != "payload" {
		t.Errorf("out = %v", out)
	}
}

func TestPickTimeout(t *testing.T) {
	never := func(ctx context.Context) <-chan any { return make(chan any) }
	wf, _ := New("pick", &Pick{
		Label:    "wait",
		Events:   []PickBranch{{Wait: never, Then: task("n", nil)}},
		Timeout:  10 * time.Millisecond,
		OnExpire: &Assign{Label: "to", Var: "expired", Expr: func(*Vars) any { return true }},
	})
	out, _, err := wf.Run(context.Background(), nil)
	if err != nil || out["expired"] != true {
		t.Errorf("out = %v err = %v", out, err)
	}
	// Without OnExpire a timeout is a fault.
	wf2, _ := New("pick2", &Pick{
		Label:   "wait2",
		Events:  []PickBranch{{Wait: never, Then: task("n", nil)}},
		Timeout: 10 * time.Millisecond,
	})
	if _, _, err := wf2.Run(context.Background(), nil); err == nil {
		t.Error("timeout without handler did not fault")
	}
}

func TestScopeFaultHandler(t *testing.T) {
	wf, _ := New("scope", &Scope{
		Label: "guarded",
		Body:  failing("bad", "inner fault"),
		OnFault: &Assign{Label: "handle", Var: "handled", Expr: func(v *Vars) any {
			return v.GetString("fault.guarded")
		}},
	})
	out, _, err := wf.Run(context.Background(), nil)
	if err != nil {
		t.Fatalf("handled fault escaped: %v", err)
	}
	if !strings.Contains(out["handled"].(string), "inner fault") {
		t.Errorf("handled = %v", out["handled"])
	}
}

// undoTask registers the named compensation and does nothing else.
func undoTask(label, undo string) *Task {
	return &Task{Label: label, Fn: func(ctx context.Context, _ *Vars) error {
		return Compensate(ctx, undo, nil)
	}}
}

func TestScopeCompensationLIFO(t *testing.T) {
	var undone []string
	body := &Sequence{Label: "book", Steps: []Activity{
		undoTask("reserveFlight", "flight"),
		undoTask("reserveHotel", "hotel"),
		failing("payment", "card declined"),
	}}
	wf, _ := New("saga", &Scope{Label: "trip", Body: body})
	for _, name := range []string{"flight", "hotel"} {
		wf.DefineCompensator(name, func(context.Context, map[string]any) error {
			undone = append(undone, name)
			return nil
		})
	}
	_, _, err := wf.Run(context.Background(), nil)
	if err == nil || !strings.Contains(err.Error(), "card declined") {
		t.Errorf("err = %v", err)
	}
	if strings.Join(undone, ",") != "hotel,flight" {
		t.Errorf("compensation order = %v", undone)
	}
}

func TestScopeCompensationFailure(t *testing.T) {
	body := &Sequence{Label: "b", Steps: []Activity{
		undoTask("step", "breaks"),
		failing("bad", "original"),
	}}
	wf, _ := New("saga", &Scope{Label: "sc", Body: body})
	wf.DefineCompensator("breaks", func(context.Context, map[string]any) error { return errors.New("undo broke") })
	_, _, err := wf.Run(context.Background(), nil)
	if err == nil || !strings.Contains(err.Error(), "undo broke") || !strings.Contains(err.Error(), "original") {
		t.Errorf("err = %v", err)
	}
}

// TestHandledFaultKeepsUndos: a Scope that absorbs its fault is a fault
// handler and nothing else — the undos registered inside it stay on the
// instance and run only if a later fault escapes the root.
func TestHandledFaultKeepsUndos(t *testing.T) {
	guarded := &Scope{Label: "guarded",
		Body:    &Sequence{Label: "b", Steps: []Activity{undoTask("step", "undo"), failing("bad", "absorbed")}},
		OnFault: task("handle", nil)}
	for _, tc := range []struct {
		name string
		root Activity
		want int
	}{
		{"absorbed", guarded, 0},
		{"later fault escapes", &Sequence{Label: "main", Steps: []Activity{guarded, failing("late", "escaped")}}, 1},
	} {
		ran := 0
		wf, _ := New("w", tc.root)
		wf.DefineCompensator("undo", func(context.Context, map[string]any) error { ran++; return nil })
		_, _, err := wf.Run(context.Background(), nil)
		if (err != nil) != (tc.want > 0) || ran != tc.want {
			t.Errorf("%s: undo ran %d times (want %d), err = %v", tc.name, ran, tc.want, err)
		}
	}
}

// TestRunUndeclaredCompensator: a declared Undo nobody defined is an
// error that names it, on top of the fault — never a panic.
func TestRunUndeclaredCompensator(t *testing.T) {
	inv := InvokerFunc(func(context.Context, string, string, map[string]any) (map[string]any, error) {
		return nil, errors.New("provider down")
	})
	wf, _ := New("w", &Invoke{Label: "call", Service: "S", Operation: "Op", Invoker: inv,
		Compensation: &Undo{Name: "never-defined"}})
	_, _, err := wf.Run(context.Background(), nil)
	if !errors.Is(err, ErrFaulted) || !strings.Contains(err.Error(), `"never-defined"`) ||
		!strings.Contains(err.Error(), "provider down") {
		t.Errorf("err = %v", err)
	}
}

// TestRunCompensatesAfterCancel: the undo context is detached from the
// cancellation that faulted the run.
func TestRunCompensatesAfterCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	wf, _ := New("w", &Sequence{Label: "main", Steps: []Activity{
		undoTask("step", "undo"),
		task("cancel", func(*Vars) { cancel() }),
		task("never", nil),
	}})
	undoErr := errors.New("undo never ran")
	wf.DefineCompensator("undo", func(ctx context.Context, _ map[string]any) error {
		undoErr = ctx.Err()
		return nil
	})
	if _, _, err := wf.Run(ctx, nil); !errors.Is(err, ErrFaulted) || !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run: err = %v, want ErrFaulted wrapping context.Canceled", err)
	}
	if undoErr != nil {
		t.Errorf("undo saw %v, want a live context", undoErr)
	}
}

func TestCompensateOutsideRun(t *testing.T) {
	if err := Compensate(context.Background(), "undo", nil); err == nil {
		t.Error("Compensate outside any run did not report an error")
	}
}

// TestParallelBranchesRegisterUndos: every branch's undos land on the
// one per-run list, and all of them run when a later step faults.
func TestParallelBranchesRegisterUndos(t *testing.T) {
	inv := InvokerFunc(func(context.Context, string, string, map[string]any) (map[string]any, error) {
		return nil, nil
	})
	const branches, perBranch = 4, 8
	fan := &Parallel{Label: "fan"}
	for b := 0; b < branches; b++ {
		seq := &Sequence{Label: fmt.Sprintf("branch%d", b)}
		for i := 0; i < perBranch; i++ {
			seq.Steps = append(seq.Steps,
				undoTask(fmt.Sprintf("task%d-%d", b, i), "count"),
				&Invoke{Label: fmt.Sprintf("call%d-%d", b, i), Service: "S", Operation: "Op", Invoker: inv,
					Compensation: &Undo{Name: "count"}})
		}
		fan.Branches = append(fan.Branches, seq)
	}
	wf, err := New("w", &Sequence{Label: "main", Steps: []Activity{fan, failing("bad", "late fault")}})
	if err != nil {
		t.Fatal(err)
	}
	ran := 0
	wf.DefineCompensator("count", func(context.Context, map[string]any) error { ran++; return nil })
	if _, _, err := wf.Run(context.Background(), nil); !errors.Is(err, ErrFaulted) {
		t.Fatalf("err = %v", err)
	}
	if want := branches * perBranch * 2; ran != want {
		t.Errorf("%d undos ran, want %d", ran, want)
	}
}

func TestDefinitionValidation(t *testing.T) {
	cases := []struct {
		name string
		root Activity
	}{
		{"nil root", nil},
		{"unnamed task", &Task{Fn: func(context.Context, *Vars) error { return nil }}},
		{"task without fn", &Task{Label: "x"}},
		{"empty sequence", &Sequence{Label: "s"}},
		{"if without cond", &If{Label: "i", Then: task("t", nil)}},
		{"invoke without invoker", &Invoke{Label: "i", Service: "s", Operation: "o"}},
		{"nested invalid", &Sequence{Label: "s", Steps: []Activity{&Task{Label: "bad"}}}},
		{"pick empty", &Pick{Label: "p"}},
		{"scope without body", &Scope{Label: "sc"}},
	}
	for _, c := range cases {
		if _, err := New("w", c.root); !errors.Is(err, ErrDefinition) {
			t.Errorf("%s: err = %v", c.name, err)
		}
	}
	if _, err := New("", task("t", nil)); !errors.Is(err, ErrDefinition) {
		t.Error("empty workflow name accepted")
	}
}

func TestCycleDetection(t *testing.T) {
	seq := &Sequence{Label: "loop"}
	seq.Steps = []Activity{seq}
	if _, err := New("w", seq); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("err = %v", err)
	}
}

func TestSharedActivityIsNotACycle(t *testing.T) {
	shared := task("shared", nil)
	wf, err := New("w", &Sequence{Label: "main", Steps: []Activity{shared, shared}})
	if err != nil {
		t.Fatalf("diamond reuse rejected: %v", err)
	}
	if _, _, err := wf.Run(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
}

func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	wf, _ := New("w", task("t", nil))
	if _, _, err := wf.Run(ctx, nil); err == nil {
		t.Error("canceled run succeeded")
	}
}

// TestTraceEntryOnVirtualClock: a trace entry is stamped by the context's
// clock, so under a vtime.Virtual an activity that sleeps an hour starts
// at the virtual start and lasts exactly that hour.
func TestTraceEntryOnVirtualClock(t *testing.T) {
	start := time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC)
	clock := vtime.NewVirtual(start)
	wf, _ := New("w", &Task{Label: "nap", Fn: func(ctx context.Context, _ *Vars) error {
		return vtime.Sleep(ctx, time.Hour)
	}})
	_, trace, err := wf.Run(vtime.WithClock(context.Background(), clock), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace.Entries) != 1 {
		t.Fatalf("trace = %+v", trace.Entries)
	}
	if e := trace.Entries[0]; !e.Start.Equal(start) || e.Elapsed != time.Hour {
		t.Errorf("entry start %v elapsed %v, want %v and 1h", e.Start, e.Elapsed, start)
	}
}

func TestTraceRecordsErrors(t *testing.T) {
	wf, _ := New("w", failing("bad", "oops"))
	_, trace, _ := wf.Run(context.Background(), nil)
	if len(trace.Entries) != 1 || trace.Entries[0].Err != "oops" {
		t.Errorf("trace = %+v", trace.Entries)
	}
}
