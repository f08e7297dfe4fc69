package simtest

import (
	"strings"
	"testing"

	"soc/internal/workflow"
)

// TestWorkflowSmoke is the workflow-orchestration gate: a workflow-heavy
// schedule with hundreds of instances, power cuts armed mid-instance
// (landing mid-Parallel and mid-ForEach), kills, restarts and resumes —
// run twice. Both runs must settle every instance, violate nothing, and
// hash identically.
func TestWorkflowSmoke(t *testing.T) {
	steps := 700
	wantStarts := 200
	if testing.Short() {
		steps, wantStarts = 200, 50
	}
	for _, seed := range []int64{11, 12} {
		sched := GenWorkflowSchedule(seed, steps, 3, 3)
		a, err := Run(Config{}, sched)
		if err != nil {
			t.Fatalf("seed %d first run: %v", seed, err)
		}
		b, err := Run(Config{}, sched)
		if err != nil {
			t.Fatalf("seed %d second run: %v", seed, err)
		}
		if a.Hash != b.Hash {
			t.Fatalf("seed %d: same schedule, different hashes: %s vs %s", seed, a.Hash, b.Hash)
		}
		for _, v := range a.Violations {
			t.Errorf("seed %d: %s", seed, v)
		}

		var starts, armed, cuts, resumed, completed, compensated int
		for _, sr := range a.Steps {
			switch sr.Step.Kind {
			case StepWorkflowStart:
				starts++
				if sr.Step.AfterAppends > 0 {
					armed++
				}
			case StepWorkflowResume:
				if strings.Contains(sr.Out, ":") {
					resumed++
				}
			}
			if strings.Contains(sr.Err, "power cut") {
				cuts++
			}
			completed += strings.Count(sr.Out, ":"+workflow.StatusCompleted)
			compensated += strings.Count(sr.Out, ":"+workflow.StatusCompensated)
		}
		if starts < wantStarts {
			t.Errorf("seed %d: only %d workflow instances started, want >= %d", seed, starts, wantStarts)
		}
		if armed == 0 || cuts == 0 {
			t.Errorf("seed %d: no mid-workflow power cuts landed (%d armed, %d fired)", seed, armed, cuts)
		}
		if resumed == 0 {
			t.Errorf("seed %d: no instance was ever resumed", seed)
		}
		if completed == 0 || compensated == 0 {
			t.Errorf("seed %d: want both terminal kinds, saw %d completed / %d compensated results",
				seed, completed, compensated)
		}
	}
}

// TestWorkflowMutationsTrip proves the workflow invariant can fail: each
// orchestrator mutation hook breaks one exactly-once rule, and the same
// schedule that runs clean without the hook must produce workflow
// violations with it. A checker that cannot fail checks nothing.
func TestWorkflowMutationsTrip(t *testing.T) {
	cases := []struct {
		mutation string
		substr   string
		seed     int64
	}{
		{workflow.MutationDropAppend, "lost acked", 11},
		{workflow.MutationDoubleCompensate, "applied 2 times", 11},
		{workflow.MutationResumeNonIdempotent, "issued 2 times", 11},
	}
	steps := 700
	if testing.Short() {
		steps = 300
	}
	for _, tc := range cases {
		t.Run(tc.mutation, func(t *testing.T) {
			sched := GenWorkflowSchedule(tc.seed, steps, 3, 3)
			clean, err := Run(Config{}, sched)
			if err != nil {
				t.Fatalf("clean twin: %v", err)
			}
			for _, v := range clean.Violations {
				t.Errorf("clean twin: %s", v)
			}
			broken, err := Run(Config{Mutation: tc.mutation}, sched)
			if err != nil {
				t.Fatalf("mutated run: %v", err)
			}
			wantViolation(t, broken.Violations, InvWorkflow, tc.substr)
		})
	}
}

// Fixture-level mutation tests for CheckWorkflows itself, mirroring the
// other checkers: a broken audit pair must trip, its corrected twin must
// stay silent.

func auditOf(id string, recs []workflow.Record) workflow.InstanceAudit {
	return workflow.AuditRecords(id, recs)
}

func TestCheckWorkflowsCleanPair(t *testing.T) {
	recs := []workflow.Record{
		{Inst: "wf-1", Kind: "begin", Def: DefRetryPoll},
		{Inst: "wf-1", Kind: "start", Key: "/poll#0/probe#0", Service: "CreditScore", Op: "Score", Idempotent: true},
		{Inst: "wf-1", Kind: "done", Key: "/poll#0/probe#0", Service: "CreditScore", Op: "Score"},
		{Inst: "wf-1", Kind: "end", Status: workflow.StatusCompleted},
	}
	acked := map[string]workflow.InstanceAudit{"wf-1": auditOf("wf-1", recs)}
	audits := map[string]workflow.InstanceAudit{"wf-1": auditOf("wf-1", recs)}
	wantClean(t, CheckWorkflows(3, "replica-0", acked, audits))
}

func TestCheckWorkflowsLostCompletion(t *testing.T) {
	full := []workflow.Record{
		{Inst: "wf-1", Kind: "begin", Def: DefRetryPoll},
		{Inst: "wf-1", Kind: "start", Key: "/poll#0/probe#0", Service: "CreditScore", Op: "Score", Idempotent: true},
		{Inst: "wf-1", Kind: "done", Key: "/poll#0/probe#0", Service: "CreditScore", Op: "Score"},
	}
	acked := map[string]workflow.InstanceAudit{"wf-1": auditOf("wf-1", full)}
	// The recovered journal is missing the acked done append — the
	// drop-append lie, exposed after a crash.
	audits := map[string]workflow.InstanceAudit{"wf-1": auditOf("wf-1", full[:2])}
	wantViolation(t, CheckWorkflows(3, "replica-0", acked, audits), InvWorkflow, "lost acked completion")
}

func TestCheckWorkflowsLostInstance(t *testing.T) {
	recs := []workflow.Record{{Inst: "wf-1", Kind: "begin", Def: DefRetryPoll}}
	acked := map[string]workflow.InstanceAudit{"wf-1": auditOf("wf-1", recs)}
	wantViolation(t, CheckWorkflows(3, "replica-0", acked, map[string]workflow.InstanceAudit{}),
		InvWorkflow, "lost")
}

func TestCheckWorkflowsResurrectedInstance(t *testing.T) {
	recs := []workflow.Record{{Inst: "wf-9", Kind: "begin", Def: DefRetryPoll}}
	audits := map[string]workflow.InstanceAudit{"wf-9": auditOf("wf-9", recs)}
	wantViolation(t, CheckWorkflows(3, "replica-0", map[string]workflow.InstanceAudit{}, audits),
		InvWorkflow, "never acked")
}

func TestCheckWorkflowsDoubleCompensation(t *testing.T) {
	recs := []workflow.Record{
		{Inst: "wf-1", Kind: "begin", Def: DefOrderSaga},
		{Inst: "wf-1", Kind: "start", Key: "/saga#0/create#0", Service: "ShoppingCart", Op: "CreateCart",
			Comps: []workflow.Compensation{{ID: "/saga#0/create#0|undo-cart", Name: "undo-cart"}}},
		{Inst: "wf-1", Kind: "fault", Err: "boom"},
		{Inst: "wf-1", Kind: "comp-done", Comp: "/saga#0/create#0|undo-cart"},
		{Inst: "wf-1", Kind: "comp-done", Comp: "/saga#0/create#0|undo-cart"},
		{Inst: "wf-1", Kind: "end", Status: workflow.StatusCompensated},
	}
	a := auditOf("wf-1", recs)
	both := map[string]workflow.InstanceAudit{"wf-1": a}
	wantViolation(t, CheckWorkflows(3, "replica-0", both, both), InvWorkflow, "applied 2 times")

	// Corrected twin: exactly one comp-done.
	fixed := append(append([]workflow.Record{}, recs[:4]...), recs[5])
	f := auditOf("wf-1", fixed)
	bothFixed := map[string]workflow.InstanceAudit{"wf-1": f}
	wantClean(t, CheckWorkflows(3, "replica-0", bothFixed, bothFixed))
}

func TestCheckWorkflowsTerminalStatusFlip(t *testing.T) {
	acked := map[string]workflow.InstanceAudit{"wf-1": auditOf("wf-1", []workflow.Record{
		{Inst: "wf-1", Kind: "begin", Def: DefRetryPoll},
		{Inst: "wf-1", Kind: "fault", Err: "boom"},
		{Inst: "wf-1", Kind: "end", Status: workflow.StatusCompensated, Err: "boom"},
	})}
	audits := map[string]workflow.InstanceAudit{"wf-1": auditOf("wf-1", []workflow.Record{
		{Inst: "wf-1", Kind: "begin", Def: DefRetryPoll},
		{Inst: "wf-1", Kind: "end", Status: workflow.StatusCompleted},
	})}
	wantViolation(t, CheckWorkflows(3, "replica-0", acked, audits), InvWorkflow, "changed terminal status")
}

func TestCheckWorkflowsNonIdempotentReissue(t *testing.T) {
	recs := []workflow.Record{
		{Inst: "wf-1", Kind: "begin", Def: DefOrderSaga},
		{Inst: "wf-1", Kind: "start", Key: "/saga#0/create#0", Service: "ShoppingCart", Op: "CreateCart"},
		{Inst: "wf-1", Kind: "resume", Incarnation: 2},
		{Inst: "wf-1", Kind: "start", Key: "/saga#0/create#0", Service: "ShoppingCart", Op: "CreateCart"},
		{Inst: "wf-1", Kind: "done", Key: "/saga#0/create#0", Service: "ShoppingCart", Op: "CreateCart"},
		{Inst: "wf-1", Kind: "end", Status: workflow.StatusCompleted},
	}
	a := auditOf("wf-1", recs)
	both := map[string]workflow.InstanceAudit{"wf-1": a}
	wantViolation(t, CheckWorkflows(3, "replica-0", both, both), InvWorkflow, "issued 2 times")
}
