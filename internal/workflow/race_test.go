package workflow

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"soc/internal/wal"
)

// raceRoot is a definition built to provoke data races the -race
// detector can see when many instances of it run at once: every one
// fans out through Parallel and a parallel ForEach, and every branch
// mutates the instance scope through its journaled overlay.
func raceRoot(inv Invoker) Activity {
	branches := make([]Activity, 4)
	for i := range branches {
		i := i
		branches[i] = &Sequence{Label: fmt.Sprintf("branch%d", i), Steps: []Activity{
			&Invoke{Label: fmt.Sprintf("probe%d", i), Service: "Credit", Operation: "Score", Invoker: inv,
				Idempotent: true, Outputs: map[string]string{"score": fmt.Sprintf("score%d", i)}},
			&Task{Label: fmt.Sprintf("tally%d", i), Fn: func(_ context.Context, vars *Vars) error {
				vars.Set("tally", vars.GetInt("tally")+1)
				vars.Set(fmt.Sprintf("seen%d", i), true)
				return nil
			}},
		}}
	}
	return &Sequence{Label: "race", Steps: []Activity{
		&Task{Label: "init", Fn: func(_ context.Context, vars *Vars) error {
			vars.Set("tally", int64(0))
			return nil
		}},
		&Parallel{Label: "fan", Branches: branches},
		&ForEach{Label: "each", Items: "items", ItemVar: "item", Parallel: true, CollectVar: "len",
			Body: &Invoke{Label: "measure", Service: "Str", Operation: "Measure", Invoker: inv, Idempotent: true,
				Inputs: map[string]string{"item": "item"}, Outputs: map[string]string{"len": "len"}}},
		&Task{Label: "finish", Fn: func(_ context.Context, vars *Vars) error {
			vars.Set("finished", true)
			return nil
		}},
	}}
}

// openRaceOrch opens an orchestrator with both definitions registered,
// for tests that drive it from concurrent goroutines.
func openRaceOrch(t *testing.T, fs wal.FS, inv *stubInvoker) *Orchestrator {
	t.Helper()
	o, err := OpenOrchestrator(fs, Options{})
	if err != nil {
		t.Fatalf("OpenOrchestrator: %v", err)
	}
	o.Define(mustWorkflow(t, "racey", raceRoot(inv)))
	o.Define(mustWorkflow(t, "everything", everythingRoot(inv)))
	for _, name := range []string{"release", "uncommit", "log-undo"} {
		o.DefineCompensator(name, inv.compensator(name))
	}
	return o
}

// TestConcurrentOrchestration starts many instances from concurrent
// goroutines — optionally power-cutting the journal mid-flight — then
// recovers on a fresh orchestrator with concurrent ResumeAll callers.
// Run under -race this proves no torn journal state and no unsynchronized
// scope access; the audit proves exactly-once semantics survived the
// concurrency.
func TestConcurrentOrchestration(t *testing.T) {
	instances := 24
	if testing.Short() {
		instances = 6
	}
	cases := []struct {
		name    string
		def     string
		crashAt int64 // journal append ordinal of the power cut; 0 = none
	}{
		{name: "racey-clean", def: "racey", crashAt: 0},
		{name: "racey-midflight-crash", def: "racey", crashAt: 40},
		{name: "everything-clean", def: "everything", crashAt: 0},
		{name: "everything-midflight-crash", def: "everything", crashAt: 60},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			fs := wal.NewMemFS(fnvSeed(tc.name))
			inv := newStubInvoker()
			o := openRaceOrch(t, fs, inv)
			if tc.crashAt > 0 {
				o.ArmCrash(tc.crashAt, nil)
			}
			var wg sync.WaitGroup
			for i := 0; i < instances; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					// Start outcomes are unasserted on purpose: under a mid-
					// flight power cut some instances fail their very first
					// append and stay pending — the audit judges the result.
					//soclint:ignore errdiscard concurrent starts race the armed power cut; journal errors are the scenario, not a failure
					_, _ = o.Start(context.Background(), fmt.Sprintf("wf-%03d", i), tc.def, initVars())
				}(i)
			}
			wg.Wait()
			// Power cut: everything unsynced is torn; acked appends survive.
			fs.Crash()

			// A fresh incarnation recovers the journal; several goroutines
			// race ResumeAll over the same pending set.
			o2 := openRaceOrch(t, fs, inv)
			var rg sync.WaitGroup
			for g := 0; g < 3; g++ {
				rg.Add(1)
				go func() {
					defer rg.Done()
					o2.ResumeAll(context.Background())
				}()
			}
			rg.Wait()
			settle(t, o2)

			for _, id := range o2.Instances() {
				a, ok := o2.Audit(id)
				if !ok {
					t.Fatalf("no audit for %s", id)
				}
				if problems := a.Problems(); len(problems) != 0 {
					t.Errorf("%s audits dirty after concurrent run: %v", id, problems)
				}
				if a.Status != StatusCompleted && a.Status != StatusCompensated {
					t.Errorf("%s settled at %s, want a terminal state", id, a.Status)
				}
			}
			// A third incarnation proves the journal itself was never torn
			// by concurrent appends: recovery reproduces the same audits.
			o3 := openRaceOrch(t, fs, inv)
			for _, id := range o2.Instances() {
				a2, _ := o2.Audit(id)
				a3, ok := o3.Audit(id)
				if !ok {
					t.Fatalf("instance %s lost on reopen", id)
				}
				if a3.Status != a2.Status || a3.Terminals != a2.Terminals {
					t.Errorf("%s: reopened audit (%s,%d terminals) != settled audit (%s,%d terminals)",
						id, a3.Status, a3.Terminals, a2.Status, a2.Terminals)
				}
				if problems := a3.Problems(); len(problems) != 0 {
					t.Errorf("%s audits dirty after reopen: %v", id, problems)
				}
			}
		})
	}
}

// TestConcurrentStartSameID races Starts of one id: the id is reserved
// under the lock that checks it, so exactly one wins and the journal
// holds one begin record.
func TestConcurrentStartSameID(t *testing.T) {
	const starters = 8
	for round := 0; round < 25; round++ {
		o := openRaceOrch(t, wal.NewMemFS(int64(round)), newStubInvoker())
		errs := make([]error, starters)
		var wg sync.WaitGroup
		for g := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, errs[g] = o.Start(context.Background(), "same", "racey", initVars())
			}()
		}
		wg.Wait()
		won := 0
		for _, err := range errs {
			switch {
			case err == nil:
				won++
			case !strings.Contains(err.Error(), "already exists"):
				t.Errorf("round %d: losing Start failed with %v, want already exists", round, err)
			}
		}
		a, _ := o.Audit("same")
		if problems := a.Problems(); won != 1 || a.Begins != 1 || len(problems) != 0 {
			t.Fatalf("round %d: %d Starts won, %d begin records, problems %v", round, won, a.Begins, problems)
		}
	}
}

// TestFailedStartReleasesID: a Start whose begin record never reached
// the journal leaves no instance and no claim on the id behind.
func TestFailedStartReleasesID(t *testing.T) {
	o := openRaceOrch(t, wal.NewMemFS(1), newStubInvoker())
	o.ArmCrash(1, nil)
	for attempt := 0; attempt < 2; attempt++ {
		if _, err := o.Start(context.Background(), "wf-1", "racey", initVars()); !errors.Is(err, ErrJournal) {
			t.Fatalf("attempt %d: err = %v, want the journal failure", attempt, err)
		}
	}
	if ids := o.Instances(); len(ids) != 0 {
		t.Errorf("instances after failed starts: %v", ids)
	}
}

func fnvSeed(s string) int64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return int64(h)
}
