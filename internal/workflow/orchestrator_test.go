package workflow

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"soc/internal/wal"
)

// stubInvoker is a deterministic in-process service fabric for
// orchestrator tests: it counts every call (per operation and per
// fully-resolved argument set) and every compensator execution, so tests
// can assert at-most-once / exactly-once side-effect properties across
// crash/resume histories.
type stubInvoker struct {
	mu       sync.Mutex
	ops      map[string]int // op -> total calls
	calls    map[string]int // op|args -> calls
	comps    map[string]int // compensator name -> executions
	fail     map[string]string
	failOnce map[string]string
	// onInvoke, when set, runs as each call arrives.
	onInvoke func(op string)
}

func newStubInvoker() *stubInvoker {
	return &stubInvoker{
		ops:      map[string]int{},
		calls:    map[string]int{},
		comps:    map[string]int{},
		fail:     map[string]string{},
		failOnce: map[string]string{},
	}
}

func (s *stubInvoker) Invoke(_ context.Context, _, op string, args map[string]any) (map[string]any, error) {
	if s.onInvoke != nil {
		s.onInvoke(op)
	}
	buf, _ := json.Marshal(args) // map keys sort: stable across int/float round trips
	s.mu.Lock()
	s.ops[op]++
	n := s.ops[op]
	s.calls[op+"|"+string(buf)]++
	failMsg, failing := s.fail[op]
	onceMsg, failingOnce := s.failOnce[op]
	s.mu.Unlock()
	if failing {
		return nil, fmt.Errorf("%s", failMsg)
	}
	if failingOnce && n == 1 {
		return nil, fmt.Errorf("%s", onceMsg)
	}
	switch op {
	case "Reserve":
		return map[string]any{"token": "tok-1"}, nil
	case "Score":
		return map[string]any{"score": 720}, nil
	case "Check":
		return map[string]any{"strong": true}, nil
	case "Measure":
		item, _ := args["item"].(string)
		return map[string]any{"len": len(item)}, nil
	case "Commit":
		return map[string]any{"committed": true}, nil
	}
	return map[string]any{}, nil
}

func (s *stubInvoker) opCount(op string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ops[op]
}

func (s *stubInvoker) callCounts() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int, len(s.calls))
	for k, v := range s.calls {
		out[k] = v
	}
	return out
}

func (s *stubInvoker) compensator(name string) Compensator {
	return func(_ context.Context, _ map[string]any) error {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.comps[name]++
		return nil
	}
}

func (s *stubInvoker) compCount(name string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.comps[name]
}

func (s *stubInvoker) compTotal() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	total := 0
	for _, n := range s.comps {
		total += n
	}
	return total
}

// everythingRoot exercises every activity shape the journal must
// resume through: Task (with a durable Compensate registration),
// non-idempotent Invoke with declared Undo, Parallel, parallel ForEach
// with CollectVar, While over a journaled counter, an armed Pick, and a
// final non-idempotent Invoke.
func everythingRoot(inv Invoker) Activity {
	return &Sequence{Label: "main", Steps: []Activity{
		&Task{Label: "announce", Fn: func(ctx context.Context, vars *Vars) error {
			vars.Set("amount", int64(40))
			vars.Set("counter", int64(0))
			return Compensate(ctx, "log-undo", map[string]any{"what": "announce"})
		}},
		&Invoke{Label: "reserve", Service: "Pay", Operation: "Reserve", Invoker: inv,
			Inputs:       map[string]string{"amount": "amount"},
			Outputs:      map[string]string{"token": "token"},
			Compensation: &Undo{Name: "release", ArgsFrom: map[string]string{"amount": "amount"}}},
		&Parallel{Label: "fan", Branches: []Activity{
			&Invoke{Label: "score", Service: "Credit", Operation: "Score", Invoker: inv, Idempotent: true,
				Inputs: map[string]string{"n": "amount"}, Outputs: map[string]string{"score": "score"}},
			&Invoke{Label: "check", Service: "Sec", Operation: "Check", Invoker: inv, Idempotent: true,
				Outputs: map[string]string{"strong": "strong"}},
		}},
		&ForEach{Label: "each", Items: "items", ItemVar: "item", IndexVar: "idx", Parallel: true, CollectVar: "len",
			Body: &Invoke{Label: "measure", Service: "Str", Operation: "Measure", Invoker: inv, Idempotent: true,
				Inputs: map[string]string{"item": "item"}, Outputs: map[string]string{"len": "len"}}},
		&While{Label: "loop", Cond: func(vars *Vars) bool { return vars.GetInt("counter") < 2 },
			Body: &Sequence{Label: "iter", Steps: []Activity{
				&Invoke{Label: "ping", Service: "Net", Operation: "Ping", Invoker: inv, Idempotent: true,
					Inputs: map[string]string{"n": "counter"}},
				&Assign{Label: "bump", Var: "counter",
					Expr: func(vars *Vars) any { return vars.GetInt("counter") + 1 }},
			}}},
		&Pick{Label: "pick", Events: []PickBranch{{
			Wait: func(context.Context) <-chan any {
				ch := make(chan any, 1)
				ch <- "ding"
				return ch
			},
			Var:  "sig",
			Then: &Assign{Label: "gotevt", Var: "gotevt", Expr: func(vars *Vars) any { return vars.GetString("sig") != "" }},
		}}},
		&Invoke{Label: "commit", Service: "Pay", Operation: "Commit", Invoker: inv,
			Inputs:       map[string]string{"token": "token"},
			Outputs:      map[string]string{"committed": "committed"},
			Compensation: &Undo{Name: "uncommit", ArgsFrom: map[string]string{"token": "token"}}},
		&Task{Label: "finish", Fn: func(_ context.Context, vars *Vars) error {
			vars.Set("finished", true)
			return nil
		}},
	}}
}

func mustWorkflow(t *testing.T, name string, root Activity) *Workflow {
	t.Helper()
	wf, err := New(name, root)
	if err != nil {
		t.Fatalf("New(%q): %v", name, err)
	}
	return wf
}

func openOrch(t *testing.T, fs wal.FS, inv *stubInvoker, opts Options) *Orchestrator {
	t.Helper()
	o, err := tryOpenOrch(t, fs, inv, opts)
	if err != nil {
		t.Fatalf("OpenOrchestrator: %v", err)
	}
	return o
}

// tryOpenOrch opens an orchestrator over fs with the everything
// definition and its compensators bound to inv.
func tryOpenOrch(t *testing.T, fs wal.FS, inv *stubInvoker, opts Options) (*Orchestrator, error) {
	t.Helper()
	o, err := OpenOrchestrator(fs, opts)
	if err != nil {
		return nil, err
	}
	o.Define(mustWorkflow(t, "everything", everythingRoot(inv)))
	for _, name := range []string{"release", "uncommit", "log-undo"} {
		o.DefineCompensator(name, inv.compensator(name))
	}
	return o, nil
}

func initVars() map[string]any {
	return map[string]any{"items": []any{"aa", "bbb"}}
}

// settle resumes every pending instance until none remain (bounded).
func settle(t *testing.T, o *Orchestrator) []Result {
	t.Helper()
	var last []Result
	for round := 0; round < 4; round++ {
		if len(o.Pending()) == 0 {
			return last
		}
		last = o.ResumeAll(context.Background())
	}
	if pending := o.Pending(); len(pending) != 0 {
		t.Fatalf("instances never settled: %v", pending)
	}
	return last
}

func auditProblems(t *testing.T, o *Orchestrator, id string) (InstanceAudit, []string) {
	t.Helper()
	a, ok := o.Audit(id)
	if !ok {
		t.Fatalf("no audit for %s", id)
	}
	return a, a.Problems()
}

// cleanEverythingRun executes the definition once without faults and
// returns the instance's journal records (whose 1-based positions are
// exactly the global append ordinals, since it is the only instance).
func cleanEverythingRun(t *testing.T) ([]Record, int64) {
	t.Helper()
	inv := newStubInvoker()
	fs := wal.NewMemFS(1)
	o := openOrch(t, fs, inv, Options{})
	res, err := o.Start(context.Background(), "wf-1", "everything", initVars())
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	if res.Status != StatusCompleted {
		t.Fatalf("clean run status = %s, want completed", res.Status)
	}
	recs := o.lookup("wf-1").snapshotRecords()
	return recs, o.journal.appends
}

// ordinalOf finds the 1-based append ordinal of the first record
// matching the predicate.
func ordinalOf(t *testing.T, recs []Record, desc string, match func(Record) bool) int64 {
	t.Helper()
	for i, r := range recs {
		if match(r) {
			return int64(i + 1)
		}
	}
	t.Fatalf("no record matching %s", desc)
	return 0
}

func TestOrchestratorRunsAllShapes(t *testing.T) {
	inv := newStubInvoker()
	fs := wal.NewMemFS(7)
	o := openOrch(t, fs, inv, Options{})
	res, err := o.Start(context.Background(), "wf-1", "everything", initVars())
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	if res.Status != StatusCompleted {
		t.Fatalf("status = %s, want completed", res.Status)
	}
	for key, want := range map[string]string{
		"finished": "true", "gotevt": "true", "counter": "2",
		"committed": "true", "len": "[2 3]", "score": "720",
	} {
		if got := fmt.Sprint(res.Vars[key]); got != want {
			t.Errorf("final vars[%s] = %s, want %s", key, got, want)
		}
	}
	a, problems := auditProblems(t, o, "wf-1")
	if len(problems) != 0 {
		t.Fatalf("audit problems on clean run: %v", problems)
	}
	// Path-scoped step keys: branches, iterations and pick continuations
	// occupy distinct, deterministic namespaces.
	for _, key := range []string{
		"/main#0/announce#0",
		"/main#0/fan#0/b1/check#0",
		"/main#0/each#0/i1/measure#0",
		"/main#0/loop#0/t1/iter#0/bump#0",
		"/main#0/pick#0/gotevt#0",
	} {
		if a.Dones[key] != 1 {
			t.Errorf("done count for %s = %d, want 1 (keys: %v)", key, a.Dones[key], slices.Sorted(maps.Keys(a.Dones)))
		}
	}
	if a.Picks["/main#0/pick#0"] != 1 {
		t.Errorf("pick record missing: %v", a.Picks)
	}
	if got := inv.opCount("Commit"); got != 1 {
		t.Errorf("Commit executed %d times, want 1", got)
	}
	if inv.compTotal() != 0 {
		t.Errorf("compensators ran on a completed instance: %v", inv.comps)
	}
}

// TestOrchestratorCrashResumeSweep power-cuts the journal at every
// single append ordinal of the definition, resumes on a fresh
// incarnation, and asserts the completes-or-compensates-exactly-once
// contract at every crash point: audits stay internally consistent,
// non-idempotent operations execute at most once, and idempotent steps
// re-execute at most once per incarnation.
func TestOrchestratorCrashResumeSweep(t *testing.T) {
	_, total := cleanEverythingRun(t)
	if total < 20 {
		t.Fatalf("suspiciously small clean run: %d appends", total)
	}
	for n := int64(1); n <= total; n++ {
		t.Run(fmt.Sprintf("crash-at-%02d", n), func(t *testing.T) {
			inv := newStubInvoker()
			fs := wal.NewMemFS(100 + n)
			o1 := openOrch(t, fs, inv, Options{})
			o1.ArmCrash(n, fs.Crash)
			if _, err := o1.Start(context.Background(), "wf-1", "everything", initVars()); err == nil {
				t.Fatalf("crash armed at append %d never surfaced", n)
			}
			_ = o1.Close()

			o2 := openOrch(t, fs, inv, Options{})
			if n == 1 {
				// The begin record itself was cut: the instance never
				// durably existed and must not resurrect.
				if got := o2.Instances(); len(got) != 0 {
					t.Fatalf("instance resurrected from a cut begin append: %v", got)
				}
				return
			}
			results := settle(t, o2)
			a, problems := auditProblems(t, o2, "wf-1")
			if len(problems) != 0 {
				t.Fatalf("audit problems: %v", problems)
			}
			if c := inv.opCount("Reserve"); c > 1 {
				t.Errorf("non-idempotent Reserve executed %d times", c)
			}
			if c := inv.opCount("Commit"); c > 1 {
				t.Errorf("non-idempotent Commit executed %d times", c)
			}
			for call, c := range inv.callCounts() {
				if c > 2 {
					t.Errorf("call %s executed %d times across 2 incarnations", call, c)
				}
			}
			switch a.Status {
			case StatusCompleted:
				if inv.compTotal() != 0 {
					t.Errorf("completed instance ran compensators: %v", inv.comps)
				}
				for _, r := range results {
					if r.ID == "wf-1" && fmt.Sprint(r.Vars["finished"]) != "true" {
						t.Errorf("completing incarnation lost final vars: %v", r.Vars)
					}
				}
			case StatusCompensated:
				// Compensation itself never crashed in this sweep, so
				// executions must match journaled comp-dones exactly.
				byName := map[string]int{}
				for _, c := range a.Comps {
					byName[c.Name] += a.CompDones[c.ID]
				}
				for name, want := range byName {
					if got := inv.compCount(name); got != want {
						t.Errorf("compensator %s executed %d times, journaled %d", name, got, want)
					}
				}
			default:
				t.Fatalf("instance settled in status %s", a.Status)
			}
		})
	}
}

// TestCompensationCrashSweep forces a terminal activity fault so every
// run takes the compensation path, then power-cuts at every append
// ordinal: compensation must survive failover, each undo running at
// least once but journaled exactly once.
func TestCompensationCrashSweep(t *testing.T) {
	// Probe the failing run's shape once.
	probeInv := newStubInvoker()
	probeInv.fail["Commit"] = "card declined"
	probeFS := wal.NewMemFS(2)
	probe := openOrch(t, probeFS, probeInv, Options{})
	res, err := probe.Start(context.Background(), "wf-1", "everything", initVars())
	if err != nil {
		t.Fatalf("probe run: %v", err)
	}
	if res.Status != StatusCompensated {
		t.Fatalf("probe status = %s, want compensated", res.Status)
	}
	total := probe.journal.appends

	for n := int64(2); n <= total; n++ {
		t.Run(fmt.Sprintf("crash-at-%02d", n), func(t *testing.T) {
			inv := newStubInvoker()
			inv.fail["Commit"] = "card declined"
			fs := wal.NewMemFS(300 + n)
			o1 := openOrch(t, fs, inv, Options{})
			o1.ArmCrash(n, fs.Crash)
			if _, err := o1.Start(context.Background(), "wf-1", "everything", initVars()); err == nil {
				t.Fatalf("crash armed at append %d never surfaced", n)
			}
			_ = o1.Close()

			o2 := openOrch(t, fs, inv, Options{})
			inv.mu.Lock()
			inv.fail["Commit"] = "card declined" // still failing on the new incarnation
			inv.mu.Unlock()
			settle(t, o2)
			a, problems := auditProblems(t, o2, "wf-1")
			if len(problems) != 0 {
				t.Fatalf("audit problems: %v", problems)
			}
			if a.Status != StatusCompensated {
				t.Fatalf("status = %s, want compensated", a.Status)
			}
			// Journal: exactly once. Execution: at least once, and at most
			// twice (a crash between an undo and its comp-done ack legally
			// re-runs that undo — compensators must be idempotent).
			for _, c := range a.Comps {
				if a.CompDones[c.ID] != 1 {
					t.Errorf("compensation %s journaled %d times", c.ID, a.CompDones[c.ID])
				}
				if got := inv.compCount(c.Name); got < 1 || got > 2 {
					t.Errorf("compensator %s executed %d times, want 1..2", c.Name, got)
				}
			}
			if c := inv.opCount("Reserve"); c > 1 {
				t.Errorf("non-idempotent Reserve executed %d times", c)
			}
			// Commit may be legally retried once: its first failure is
			// journaled as a clean step-fault, which resolves the start.
			if c := inv.opCount("Commit"); c > 2 {
				t.Errorf("Commit executed %d times, want <= 2", c)
			}
		})
	}
}

// TestResumeSkipsJournaledSteps crashes between the two ForEach
// iterations and checks that resume replays — not re-executes — every
// step whose done record was acked.
func TestResumeSkipsJournaledSteps(t *testing.T) {
	recs, _ := cleanEverythingRun(t)
	n := ordinalOf(t, recs, "second measure start", func(r Record) bool {
		return r.Kind == recStart && strings.Contains(r.Key, "/i1/measure")
	})
	inv := newStubInvoker()
	fs := wal.NewMemFS(11)
	o1 := openOrch(t, fs, inv, Options{})
	o1.ArmCrash(n, fs.Crash)
	if _, err := o1.Start(context.Background(), "wf-1", "everything", initVars()); err == nil {
		t.Fatal("armed crash never surfaced")
	}
	_ = o1.Close()

	o2 := openOrch(t, fs, inv, Options{})
	settle(t, o2)
	a, problems := auditProblems(t, o2, "wf-1")
	if len(problems) != 0 {
		t.Fatalf("audit problems: %v", problems)
	}
	if a.Status != StatusCompleted {
		t.Fatalf("status = %s, want completed", a.Status)
	}
	// Everything acked before the crash ran exactly once in total.
	for op, want := range map[string]int{"Reserve": 1, "Score": 1, "Check": 1, "Commit": 1} {
		if got := inv.opCount(op); got != want {
			t.Errorf("%s executed %d times, want %d", op, got, want)
		}
	}
	// Iteration 0 was journaled (executed pre-crash only); iteration 1
	// never started before the cut and runs on the new incarnation.
	calls := inv.callCounts()
	if got := calls[`Measure|{"item":"aa"}`]; got != 1 {
		t.Errorf("Measure(aa) executed %d times, want 1", got)
	}
	if got := calls[`Measure|{"item":"bbb"}`]; got != 1 {
		t.Errorf("Measure(bbb) executed %d times, want 1", got)
	}
}

// TestNonIdempotentInFlightCompensates crashes with the final
// non-idempotent Invoke in flight (start acked, completion cut): the
// resumed incarnation must refuse to re-issue it and drive the saga
// into compensation, undoing every registered step exactly once.
func TestNonIdempotentInFlightCompensates(t *testing.T) {
	recs, _ := cleanEverythingRun(t)
	n := ordinalOf(t, recs, "commit done", func(r Record) bool {
		return r.Kind == recDone && strings.Contains(r.Key, "/commit")
	})
	inv := newStubInvoker()
	fs := wal.NewMemFS(13)
	o1 := openOrch(t, fs, inv, Options{})
	o1.ArmCrash(n, fs.Crash)
	if _, err := o1.Start(context.Background(), "wf-1", "everything", initVars()); err == nil {
		t.Fatal("armed crash never surfaced")
	}
	_ = o1.Close()

	o2 := openOrch(t, fs, inv, Options{})
	settle(t, o2)
	a, problems := auditProblems(t, o2, "wf-1")
	if len(problems) != 0 {
		t.Fatalf("audit problems: %v", problems)
	}
	if a.Status != StatusCompensated {
		t.Fatalf("status = %s, want compensated", a.Status)
	}
	if !strings.Contains(a.Err, "non-idempotent") {
		t.Errorf("committed fault %q does not name the in-flight refusal", a.Err)
	}
	if got := inv.opCount("Commit"); got != 1 {
		t.Errorf("in-flight Commit executed %d times, want exactly 1 (never re-issued)", got)
	}
	// All three compensations registered before the cut ran exactly once:
	// the declared undos of both invokes plus the Task's Compensate call.
	for _, name := range []string{"release", "uncommit", "log-undo"} {
		if got := inv.compCount(name); got != 1 {
			t.Errorf("compensator %s executed %d times, want 1", name, got)
		}
	}
}

// TestStepFaultAllowsNonIdempotentReissue: a clean call failure is
// journaled as a step-fault, which resolves the start — so when the
// fault-commit append is also cut by a crash, the resumed incarnation
// may legally re-issue even a non-idempotent invoke.
func TestStepFaultAllowsNonIdempotentReissue(t *testing.T) {
	// Probe: first Commit attempt fails cleanly; find the fault append.
	probeInv := newStubInvoker()
	probeInv.fail["Commit"] = "transient outage"
	probeFS := wal.NewMemFS(3)
	probe := openOrch(t, probeFS, probeInv, Options{})
	if _, err := probe.Start(context.Background(), "wf-1", "everything", initVars()); err != nil {
		t.Fatalf("probe: %v", err)
	}
	n := ordinalOf(t, probe.lookup("wf-1").snapshotRecords(), "fault record", func(r Record) bool {
		return r.Kind == recFault
	})

	inv := newStubInvoker()
	inv.failOnce["Commit"] = "transient outage"
	fs := wal.NewMemFS(17)
	o1 := openOrch(t, fs, inv, Options{})
	o1.ArmCrash(n, fs.Crash)
	if _, err := o1.Start(context.Background(), "wf-1", "everything", initVars()); err == nil {
		t.Fatal("armed crash never surfaced")
	}
	_ = o1.Close()

	o2 := openOrch(t, fs, inv, Options{})
	settle(t, o2)
	a, problems := auditProblems(t, o2, "wf-1")
	if len(problems) != 0 {
		t.Fatalf("audit problems: %v", problems)
	}
	if a.Status != StatusCompleted {
		t.Fatalf("status = %s, want completed (transient fault retried)", a.Status)
	}
	if got := inv.opCount("Commit"); got != 2 {
		t.Errorf("Commit executed %d times, want 2 (failed once, re-issued once)", got)
	}
	if inv.compTotal() != 0 {
		t.Errorf("compensators ran on a completed instance: %v", inv.comps)
	}
}

// TestScopeAbsorbsInvokeFault: a Scope fault handler keeps the instance
// on the completed path, and the audit accepts the unfinished start
// because its failure was journaled as a clean step-fault.
func TestScopeAbsorbsInvokeFault(t *testing.T) {
	inv := newStubInvoker()
	inv.fail["Flaky"] = "always down"
	root := &Sequence{Label: "main", Steps: []Activity{
		&Scope{Label: "guard",
			Body: &Invoke{Label: "flaky", Service: "Ext", Operation: "Flaky", Invoker: inv},
			OnFault: &Assign{Label: "fallback", Var: "fallback",
				Expr: func(*Vars) any { return true }}},
		&Task{Label: "finish", Fn: func(_ context.Context, vars *Vars) error {
			vars.Set("finished", true)
			return nil
		}},
	}}
	fs := wal.NewMemFS(19)
	o, err := OpenOrchestrator(fs, Options{})
	if err != nil {
		t.Fatalf("OpenOrchestrator: %v", err)
	}
	o.Define(mustWorkflow(t, "guarded", root))
	res, err := o.Start(context.Background(), "wf-1", "guarded", nil)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	if res.Status != StatusCompleted {
		t.Fatalf("status = %s, want completed", res.Status)
	}
	if fmt.Sprint(res.Vars["fallback"]) != "true" {
		t.Errorf("fault handler never ran: %v", res.Vars)
	}
	a, problems := auditProblems(t, o, "wf-1")
	if len(problems) != 0 {
		t.Fatalf("audit problems: %v", problems)
	}
	if a.StepFaults["/main#0/guard#0/flaky#0"] != 1 {
		t.Errorf("clean failure not journaled as step-fault: %v", a.StepFaults)
	}
}

// TestPickExpiryReplays: an unarmed journaled Pick expires
// immediately; after a crash past the pick record the decision is
// replayed (not re-raced) and the expiry continuation resumes.
func TestPickExpiryReplays(t *testing.T) {
	build := func(inv Invoker) Activity {
		return &Sequence{Label: "main", Steps: []Activity{
			&Pick{Label: "wait", Events: []PickBranch{{
				Wait: func(context.Context) <-chan any { return make(chan any) }, // never fires
				Then: &Assign{Label: "evt", Var: "evt", Expr: func(*Vars) any { return true }},
			}},
				OnExpire: &Sequence{Label: "expiry", Steps: []Activity{
					&Assign{Label: "expired", Var: "expired", Expr: func(*Vars) any { return true }},
					&Invoke{Label: "after", Service: "Ext", Operation: "After", Invoker: inv, Idempotent: true},
				}}},
			&Task{Label: "finish", Fn: func(_ context.Context, vars *Vars) error {
				vars.Set("finished", true)
				return nil
			}},
		}}
	}
	// Probe for the ordinal of the post-expiry invoke's done record.
	probeInv := newStubInvoker()
	probeFS := wal.NewMemFS(4)
	probe, err := OpenOrchestrator(probeFS, Options{})
	if err != nil {
		t.Fatalf("OpenOrchestrator: %v", err)
	}
	probe.Define(mustWorkflow(t, "picky", build(probeInv)))
	if _, err := probe.Start(context.Background(), "wf-1", "picky", nil); err != nil {
		t.Fatalf("probe: %v", err)
	}
	n := ordinalOf(t, probe.lookup("wf-1").snapshotRecords(), "after done", func(r Record) bool {
		return r.Kind == recDone && strings.Contains(r.Key, "/after")
	})

	inv := newStubInvoker()
	fs := wal.NewMemFS(23)
	o1, err := OpenOrchestrator(fs, Options{})
	if err != nil {
		t.Fatalf("OpenOrchestrator: %v", err)
	}
	o1.Define(mustWorkflow(t, "picky", build(inv)))
	o1.ArmCrash(n, fs.Crash)
	if _, err := o1.Start(context.Background(), "wf-1", "picky", nil); err == nil {
		t.Fatal("armed crash never surfaced")
	}
	_ = o1.Close()

	o2, err := OpenOrchestrator(fs, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	o2.Define(mustWorkflow(t, "picky", build(inv)))
	res, err := o2.Resume(context.Background(), "wf-1")
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if res.Status != StatusCompleted {
		t.Fatalf("status = %s, want completed", res.Status)
	}
	if fmt.Sprint(res.Vars["expired"]) != "true" {
		t.Errorf("expiry continuation lost its journaled effect: %v", res.Vars)
	}
	a, problems := auditProblems(t, o2, "wf-1")
	if len(problems) != 0 {
		t.Fatalf("audit problems: %v", problems)
	}
	if a.Picks["/main#0/wait#0"] != 1 {
		t.Errorf("pick decided %d times, want exactly 1 (replayed, not re-raced)", a.Picks["/main#0/wait#0"])
	}
	// The idempotent invoke was in flight at the cut and re-issues.
	if got := inv.opCount("After"); got != 2 {
		t.Errorf("After executed %d times, want 2", got)
	}
}

// TestSnapshotCompaction proves instance journals survive WAL
// compaction: after enough appends fold into a snapshot and the tail
// segments are pruned, a crash-reopen still recovers every instance's
// full, auditable history.
func TestSnapshotCompaction(t *testing.T) {
	inv := newStubInvoker()
	fs := wal.NewMemFS(29)
	o1 := openOrch(t, fs, inv, Options{SnapshotEvery: 10, WAL: wal.Options{SegmentBytes: 2048}})
	for i := 1; i <= 3; i++ {
		id := fmt.Sprintf("wf-%d", i)
		res, err := o1.Start(context.Background(), id, "everything", initVars())
		if err != nil {
			t.Fatalf("Start %s: %v", id, err)
		}
		if res.Status != StatusCompleted {
			t.Fatalf("%s status = %s", id, res.Status)
		}
	}
	fs.Crash()
	_ = o1.Close()

	o2 := openOrch(t, fs, inv, Options{SnapshotEvery: 10, WAL: wal.Options{SegmentBytes: 2048}})
	if got := len(o2.Instances()); got != 3 {
		t.Fatalf("recovered %d instances, want 3 (recovery: %s)", got, o2.Recovery())
	}
	for id, a := range o2.Audits() {
		if problems := a.Problems(); len(problems) != 0 {
			t.Errorf("%s audit problems after compaction: %v", id, problems)
		}
		if a.Status != StatusCompleted {
			t.Errorf("%s status = %s, want completed", id, a.Status)
		}
		if len(a.Dones) == 0 {
			t.Errorf("%s lost its step history to compaction", id)
		}
	}
	// The compacted journal still accepts new instances.
	res, err := o2.Start(context.Background(), "wf-4", "everything", initVars())
	if err != nil {
		t.Fatalf("Start after compaction: %v", err)
	}
	if res.Status != StatusCompleted {
		t.Fatalf("wf-4 status = %s", res.Status)
	}
}

func TestOrchestratorAPIErrors(t *testing.T) {
	inv := newStubInvoker()
	fs := wal.NewMemFS(31)
	o := openOrch(t, fs, inv, Options{})
	ctx := context.Background()
	if _, err := o.Start(ctx, "", "everything", nil); err == nil {
		t.Error("empty instance id accepted")
	}
	if _, err := o.Start(ctx, "wf-1", "no-such-def", nil); err == nil {
		t.Error("unknown definition accepted")
	}
	if _, err := o.Start(ctx, "wf-1", "everything", initVars()); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if _, err := o.Start(ctx, "wf-1", "everything", initVars()); err == nil {
		t.Error("duplicate instance id accepted")
	}
	if _, err := o.Resume(ctx, "ghost"); err == nil {
		t.Error("resume of unknown instance accepted")
	}
	// Resuming a terminal instance is a no-op returning its result.
	res, err := o.Resume(ctx, "wf-1")
	if err != nil {
		t.Fatalf("terminal resume: %v", err)
	}
	if res.Status != StatusCompleted {
		t.Errorf("terminal resume status = %s", res.Status)
	}
	if got := inv.opCount("Commit"); got != 1 {
		t.Errorf("terminal resume re-executed work: Commit ran %d times", got)
	}
}

// TestOpenOrchestratorBadSnapshot: a snapshot payload that is not the
// orchestrator's fails the open, which closes the log it was handed —
// the same directory opens again.
func TestOpenOrchestratorBadSnapshot(t *testing.T) {
	fs := wal.NewMemFS(5)
	log, _, err := wal.Open(fs, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Snapshot([]byte("not json")); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenOrchestrator(fs, Options{}); err == nil || !strings.Contains(err.Error(), "snapshot") {
		t.Fatalf("OpenOrchestrator over a foreign snapshot: err = %v", err)
	}
	log, rec, err := wal.Open(fs, wal.Options{})
	if err != nil || string(rec.Snapshot) != "not json" {
		t.Fatalf("reopen after the failed open: snapshot %q, err = %v", rec.Snapshot, err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenOrchestratorBadRecord: a checksum-valid journal record that
// does not decode fails the open and names the record, instead of being
// skipped (a lost done record would re-run its step on resume). The log
// is closed, so the same directory opens again.
func TestOpenOrchestratorBadRecord(t *testing.T) {
	fs := wal.NewMemFS(6)
	log, _, err := wal.Open(fs, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []string{`{"inst":"wf-1","kind":"begin","def":"everything"}`, `{"inst":"wf-1","kind":"done","key":"/main#0/ann`} {
		if _, err := log.Append([]byte(rec)); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenOrchestrator(fs, Options{}); err == nil || !strings.Contains(err.Error(), "record 2") {
		t.Fatalf("OpenOrchestrator over an undecodable record: err = %v", err)
	}
	log, rec, err := wal.Open(fs, wal.Options{})
	if err != nil || len(rec.Records) != 2 {
		t.Fatalf("reopen after the failed open: %d records, err = %v", len(rec.Records), err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCompensationParityAcrossEngines drives one definition — the
// crash corpus's, with its final Commit failing — through Workflow.Run
// and through the Orchestrator: the same compensators run with the same
// resolved arguments in the same LIFO order.
func TestCompensationParityAcrossEngines(t *testing.T) {
	inv := newStubInvoker()
	inv.fail["Commit"] = "ledger down"
	wf := mustWorkflow(t, "everything", everythingRoot(inv))
	o, err := OpenOrchestrator(wal.NewMemFS(9), Options{})
	if err != nil {
		t.Fatal(err)
	}
	o.Define(wf)
	var plain, durable []string
	record := func(log *[]string, name string) Compensator {
		return func(_ context.Context, args map[string]any) error {
			buf, err := json.Marshal(args)
			*log = append(*log, name+string(buf))
			return err
		}
	}
	for _, name := range []string{"release", "uncommit", "log-undo"} {
		wf.DefineCompensator(name, record(&plain, name))
		o.DefineCompensator(name, record(&durable, name))
	}

	if _, _, err := wf.Run(context.Background(), initVars()); !errors.Is(err, ErrFaulted) ||
		!strings.Contains(err.Error(), "ledger down") {
		t.Fatalf("Run: err = %v", err)
	}
	res, err := o.Start(context.Background(), "wf-1", "everything", initVars())
	if err != nil || res.Status != StatusCompensated {
		t.Fatalf("Start: %+v, err = %v", res, err)
	}
	want := []string{`uncommit{"token":"tok-1"}`, `release{"amount":40}`, `log-undo{"what":"announce"}`}
	if !slices.Equal(plain, want) {
		t.Errorf("Workflow.Run undid %v, want %v", plain, want)
	}
	if !slices.Equal(durable, want) {
		t.Errorf("Orchestrator undid %v, want %v", durable, want)
	}
}

// TestJournalMutations proves the audit can fail: each mutation breaks
// one exactly-once rule and the checker must trip, while the clean twin
// stays silent. A checker that cannot fail checks nothing.
func TestJournalMutations(t *testing.T) {
	t.Run("drop-append", func(t *testing.T) {
		run := func(mutation string) []string {
			inv := newStubInvoker()
			fs := wal.NewMemFS(37)
			o1 := openOrch(t, fs, inv, Options{Mutation: mutation})
			res, err := o1.Start(context.Background(), "wf-1", "everything", initVars())
			if err != nil {
				t.Fatalf("Start: %v", err)
			}
			if res.Status != StatusCompleted {
				t.Fatalf("status = %s", res.Status)
			}
			// The lie only shows after a crash: in-memory state says the
			// dropped append was acked.
			fs.Crash()
			_ = o1.Close()
			o2 := openOrch(t, fs, inv, Options{})
			_, problems := auditProblems(t, o2, "wf-1")
			return problems
		}
		if problems := run(""); len(problems) != 0 {
			t.Fatalf("clean twin tripped: %v", problems)
		}
		problems := run(MutationDropAppend)
		if len(problems) == 0 {
			t.Fatal("dropped done append went undetected")
		}
		if !strings.Contains(strings.Join(problems, "\n"), "unresolved") {
			t.Errorf("unexpected problem set: %v", problems)
		}
	})

	t.Run("double-comp", func(t *testing.T) {
		run := func(mutation string) []string {
			inv := newStubInvoker()
			inv.fail["Commit"] = "card declined"
			fs := wal.NewMemFS(41)
			o := openOrch(t, fs, inv, Options{Mutation: mutation})
			res, err := o.Start(context.Background(), "wf-1", "everything", initVars())
			if err != nil {
				t.Fatalf("Start: %v", err)
			}
			if res.Status != StatusCompensated {
				t.Fatalf("status = %s", res.Status)
			}
			_, problems := auditProblems(t, o, "wf-1")
			return problems
		}
		if problems := run(""); len(problems) != 0 {
			t.Fatalf("clean twin tripped: %v", problems)
		}
		problems := run(MutationDoubleCompensate)
		if len(problems) == 0 {
			t.Fatal("double compensation went undetected")
		}
		if !strings.Contains(strings.Join(problems, "\n"), "applied 2 times") {
			t.Errorf("unexpected problem set: %v", problems)
		}
	})

	t.Run("resume-nonidem", func(t *testing.T) {
		recs, _ := cleanEverythingRun(t)
		n := ordinalOf(t, recs, "commit done", func(r Record) bool {
			return r.Kind == recDone && strings.Contains(r.Key, "/commit")
		})
		run := func(mutation string) (*stubInvoker, []string) {
			inv := newStubInvoker()
			fs := wal.NewMemFS(43)
			o1 := openOrch(t, fs, inv, Options{})
			o1.ArmCrash(n, fs.Crash)
			if _, err := o1.Start(context.Background(), "wf-1", "everything", initVars()); err == nil {
				t.Fatal("armed crash never surfaced")
			}
			_ = o1.Close()
			o2 := openOrch(t, fs, inv, Options{Mutation: mutation})
			settle(t, o2)
			_, problems := auditProblems(t, o2, "wf-1")
			return inv, problems
		}
		cleanInv, problems := run("")
		if len(problems) != 0 {
			t.Fatalf("clean twin tripped: %v", problems)
		}
		if got := cleanInv.opCount("Commit"); got != 1 {
			t.Fatalf("clean twin executed Commit %d times", got)
		}
		inv, problems := run(MutationResumeNonIdempotent)
		if len(problems) == 0 {
			t.Fatal("non-idempotent re-issue went undetected")
		}
		if !strings.Contains(strings.Join(problems, "\n"), "issued 2 times") {
			t.Errorf("unexpected problem set: %v", problems)
		}
		// The mutation really duplicated the side effect.
		if got := inv.opCount("Commit"); got != 2 {
			t.Errorf("mutated resume executed Commit %d times, want 2", got)
		}
	})
}

// timeoutSaga is reserve → commit, both non-idempotent with a declared
// Undo; fail, when set, is what the Commit call returns.
func timeoutSaga(t *testing.T, inv *stubInvoker, fail func(ctx context.Context) error) *Orchestrator {
	t.Helper()
	commit := InvokerFunc(func(ctx context.Context, svc, op string, args map[string]any) (map[string]any, error) {
		if err := fail(ctx); err != nil {
			return nil, err
		}
		return inv.Invoke(ctx, svc, op, args)
	})
	root := &Sequence{Label: "main", Steps: []Activity{
		&Invoke{Label: "reserve", Service: "Pay", Operation: "Reserve", Invoker: inv,
			Outputs:      map[string]string{"token": "token"},
			Compensation: &Undo{Name: "release"}},
		&Invoke{Label: "commit", Service: "Pay", Operation: "Commit", Invoker: commit,
			Inputs:       map[string]string{"token": "token"},
			Compensation: &Undo{Name: "uncommit", ArgsFrom: map[string]string{"token": "token"}}},
	}}
	o, err := OpenOrchestrator(wal.NewMemFS(47), Options{})
	if err != nil {
		t.Fatalf("OpenOrchestrator: %v", err)
	}
	o.Define(mustWorkflow(t, "saga", root))
	for _, name := range []string{"release", "uncommit"} {
		o.DefineCompensator(name, inv.compensator(name))
	}
	return o
}

// TestProviderTimeoutFaultsTheInstance: a deadline that fired inside the
// invoker (host.Client wraps its Timeout as context.DeadlineExceeded) is
// the provider's fault, not the caller giving up — under a live caller
// context the instance commits the fault and compensates on Start, with
// no operator Resume. The call may have reached the provider, so its
// start stays in flight (no step-fault) and its declared Undo runs.
func TestProviderTimeoutFaultsTheInstance(t *testing.T) {
	inv := newStubInvoker()
	o := timeoutSaga(t, inv, func(context.Context) error {
		return fmt.Errorf("host: remote error: transport: %w", context.DeadlineExceeded)
	})
	res, err := o.Start(context.Background(), "wf-1", "saga", nil)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	if res.Status != StatusCompensated {
		t.Fatalf("status = %s (err %q), want compensated", res.Status, res.Err)
	}
	if !strings.Contains(res.Err, "deadline exceeded") {
		t.Errorf("committed fault %q does not name the timeout", res.Err)
	}
	if pending := o.Pending(); len(pending) != 0 {
		t.Errorf("instances left for an operator to resume: %v", pending)
	}
	for _, name := range []string{"release", "uncommit"} {
		if got := inv.compCount(name); got != 1 {
			t.Errorf("compensator %s executed %d times, want 1", name, got)
		}
	}
	a, problems := auditProblems(t, o, "wf-1")
	if len(problems) != 0 {
		t.Errorf("audit problems: %v", problems)
	}
	const key = "/main#0/commit#0"
	if a.Starts[key].Count != 1 || a.StepFaults[key] != 0 {
		t.Errorf("commit journaled %d starts, %d step-faults; want 1 start left in flight", a.Starts[key].Count, a.StepFaults[key])
	}
}

// TestCallerCancelStaysPending: the caller's own context ending is not a
// fault — nothing is committed past the last ack and the instance waits
// for a Resume.
func TestCallerCancelStaysPending(t *testing.T) {
	inv := newStubInvoker()
	ctx, cancel := context.WithCancel(context.Background())
	o := timeoutSaga(t, inv, func(ctx context.Context) error {
		cancel()
		return fmt.Errorf("host: remote error: transport: %w", ctx.Err())
	})
	res, err := o.Start(ctx, "wf-1", "saga", nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Start err = %v, want the caller's cancellation", err)
	}
	if res.Status != StatusPending {
		t.Fatalf("status = %s, want pending", res.Status)
	}
	if a, _ := auditProblems(t, o, "wf-1"); a.Faults != 0 || a.Terminals != 0 {
		t.Errorf("cancelled run committed %d faults, %d terminals", a.Faults, a.Terminals)
	}
	if inv.compTotal() != 0 {
		t.Errorf("compensators ran for a pending instance: %v", inv.comps)
	}
}

// TestPickSameUnderBothEngines runs one Pick definition under
// Workflow.Run and under an Orchestrator: the same branch runs with the
// same payload, or the same error comes back.
// A pick whose caller gave up journals no decision, so resuming it waits
// for the event afresh.
func TestPickSameUnderBothEngines(t *testing.T) {
	never := func(context.Context) <-chan any { return make(chan any) }
	ready := func(context.Context) <-chan any {
		ch := make(chan any, 1)
		ch <- "payload"
		return ch
	}
	won := func(label, who string) Activity {
		return &Assign{Label: label, Var: "winner", Expr: func(*Vars) any { return who }}
	}
	cases := []struct {
		name string
		// pick builds the definition; cancel ends the caller's context.
		pick       func(cancel func()) *Pick
		wantWinner string
		wantEvt    any
		wantErr    string
		wantStatus string
	}{
		{name: "event first", wantWinner: "ready", wantEvt: "payload", wantStatus: StatusCompleted,
			pick: func(func()) *Pick {
				return &Pick{Label: "race", Timeout: time.Hour, OnExpire: won("x", "expired"), Events: []PickBranch{
					{Wait: never, Then: won("n", "never")},
					{Wait: ready, Var: "evt", Then: won("r", "ready")},
				}}
			}},
		{name: "timeout with OnExpire", wantWinner: "expired", wantStatus: StatusCompleted,
			pick: func(func()) *Pick {
				return &Pick{Label: "race", Timeout: 2 * time.Millisecond, OnExpire: won("x", "expired"),
					Events: []PickBranch{{Wait: never, Var: "evt", Then: won("n", "never")}}}
			}},
		{name: "timeout without OnExpire", wantErr: `pick "race" timed out after 2ms`, wantStatus: StatusCompensated,
			pick: func(func()) *Pick {
				return &Pick{Label: "race", Timeout: 2 * time.Millisecond,
					Events: []PickBranch{{Wait: never, Then: won("n", "never")}}}
			}},
		{name: "caller cancelled", wantErr: "context canceled", wantStatus: StatusPending,
			pick: func(cancel func()) *Pick {
				// The caller gives up on the first wait; the event is
				// ready by the time the instance resumes.
				var gaveUp atomic.Bool
				return &Pick{Label: "race", Timeout: time.Hour, OnExpire: won("x", "expired"),
					Events: []PickBranch{{Var: "evt", Then: won("e", "event"), Wait: func(ctx context.Context) <-chan any {
						if gaveUp.CompareAndSwap(false, true) {
							cancel()
							return never(ctx)
						}
						return ready(ctx)
					}}}}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			check := func(engine string, vars map[string]any, errText string) {
				t.Helper()
				if errText != tc.wantErr {
					t.Errorf("%s: error %q, want %q", engine, errText, tc.wantErr)
				}
				if tc.wantErr == "" && (vars["winner"] != tc.wantWinner || vars["evt"] != tc.wantEvt) {
					t.Errorf("%s: winner=%v evt=%v, want %v/%v", engine, vars["winner"], vars["evt"], tc.wantWinner, tc.wantEvt)
				}
			}

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			out, _, err := mustWorkflow(t, "picky", tc.pick(cancel)).Run(ctx, nil)
			errText := ""
			if err != nil {
				errText = strings.TrimPrefix(err.Error(), ErrFaulted.Error()+": ")
			}
			check("Workflow.Run", out, errText)

			const engine = "Orchestrator"
			o, err := OpenOrchestrator(wal.NewMemFS(53), Options{})
			if err != nil {
				t.Fatalf("OpenOrchestrator: %v", err)
			}
			ctx, cancel = context.WithCancel(context.Background())
			defer cancel()
			o.Define(mustWorkflow(t, "picky", tc.pick(cancel)))
			res, _ := o.Start(ctx, "wf-1", "picky", nil)
			check(engine, res.Vars, res.Err)
			if res.Status != tc.wantStatus {
				t.Errorf("%s: status %s, want %s", engine, res.Status, tc.wantStatus)
			}
			if res.Status != StatusPending {
				return
			}
			picks := 0
			for _, r := range o.lookup("wf-1").snapshotRecords() {
				if r.Kind == recPick {
					picks++
				}
			}
			if picks != 0 {
				t.Errorf("%s: the abandoned pick journaled %d pick records, want 0", engine, picks)
			}
			res, err = o.Resume(context.Background(), "wf-1")
			if err != nil || res.Status != StatusCompleted || res.Vars["winner"] != "event" || res.Vars["evt"] != "payload" {
				t.Errorf("%s: resumed to %s winner=%v evt=%v err=%v, want completed winner=event evt=payload",
					engine, res.Status, res.Vars["winner"], res.Vars["evt"], err)
			}
		})
	}
}

// TestJournaledRunHasOneSchedule: an orchestrator opened with zero
// Options runs a Parallel's branches in definition order, so the
// journal holds their step records in that order on every run, and
// decides a Pick with no ready event at once instead of waiting out
// its Timeout.
func TestJournaledRunHasOneSchedule(t *testing.T) {
	t.Run("parallel in definition order", func(t *testing.T) {
		branches := make([]Activity, 4)
		for i := range branches {
			branches[i] = &Task{Label: fmt.Sprintf("step%d", i), Fn: func(context.Context, *Vars) error { return nil }}
		}
		o, err := OpenOrchestrator(wal.NewMemFS(61), Options{})
		if err != nil {
			t.Fatalf("OpenOrchestrator: %v", err)
		}
		o.Define(mustWorkflow(t, "fan", &Parallel{Label: "fan", Branches: branches}))
		want := []string{"/fan#0/b0/step0#0", "/fan#0/b1/step1#0", "/fan#0/b2/step2#0", "/fan#0/b3/step3#0"}
		for run := 0; run < 20; run++ {
			id := fmt.Sprintf("wf-%02d", run)
			if res, err := o.Start(context.Background(), id, "fan", nil); err != nil || res.Status != StatusCompleted {
				t.Fatalf("run %d: %s, %v", run, res.Status, err)
			}
			var order []string
			for _, r := range o.lookup(id).snapshotRecords() {
				if r.Kind == recDone {
					order = append(order, r.Key)
				}
			}
			if !slices.Equal(order, want) {
				t.Fatalf("run %d journaled its branches as %v, want %v", run, order, want)
			}
		}
	})
	t.Run("pick does not wait out its timeout", func(t *testing.T) {
		o, err := OpenOrchestrator(wal.NewMemFS(62), Options{})
		if err != nil {
			t.Fatalf("OpenOrchestrator: %v", err)
		}
		o.Define(mustWorkflow(t, "idle", &Pick{Label: "idle", Timeout: time.Hour,
			OnExpire: &Assign{Label: "expired", Var: "expired", Expr: func(*Vars) any { return true }},
			Events: []PickBranch{{
				Wait: func(context.Context) <-chan any { return make(chan any) },
				Then: &Assign{Label: "evt", Var: "evt", Expr: func(*Vars) any { return true }},
			}}}))
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		done := make(chan Result, 1)
		go func() {
			res, _ := o.Start(ctx, "wf-1", "idle", nil)
			done <- res
		}()
		select {
		case res := <-done:
			if res.Status != StatusCompleted || res.Vars["expired"] != true {
				t.Fatalf("idle pick ended %s with %v, want completed through OnExpire", res.Status, res.Vars)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("journaled pick still waiting on its one-hour timeout after 5s")
		}
	})
}
