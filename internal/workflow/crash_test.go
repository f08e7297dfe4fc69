package workflow

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"soc/internal/wal"
	"soc/internal/wal/waltest"
)

// journalCase is the workflow journal's crash-point corpus: one everything
// instance. Every image must recover exactly its acked prefix of the
// journal, or fail naming the gap, and the orchestrator must settle that
// prefix cleanly, never re-issuing a non-idempotent invoke that may
// already have happened. `go test` samples every 7th offset; `make crash`
// sets WORKFLOW_CRASH_STRIDE=1.
func journalCase(t *testing.T) waltest.Case[*Orchestrator, []Record] {
	var inv *stubInvoker // the invoker of the tenant opened last
	return waltest.Case[*Orchestrator, []Record]{
		Stride: waltest.EnvInt(t, "WORKFLOW_CRASH_STRIDE", 7, 1),
		Open: func(fs wal.FS) (*Orchestrator, error) {
			inv = newStubInvoker()
			return tryOpenOrch(t, fs, inv, Options{WAL: wal.Options{SegmentBytes: 1024}})
		},
		Script: func(o *Orchestrator, ack func(error, []Record)) error {
			// Two snapshots of the pending instance, as it issues Reserve
			// and Score; the default cadence (64) stays quiet after them, so
			// the 19 records that follow are the log's tail.
			var errs []error
			inv.onInvoke = func(op string) {
				if op == "Reserve" || op == "Score" {
					errs = append(errs, o.journal.m.Snapshot())
				}
			}
			res, err := o.Start(context.Background(), "wf-1", "everything", initVars())
			if err == nil && res.Status != StatusCompleted {
				err = fmt.Errorf("status = %s, want completed", res.Status)
			}
			recs := o.lookup("wf-1").snapshotRecords()
			for k := range recs {
				ack(nil, recs[:k+1])
			}
			return errors.Join(append(errs, err)...)
		},
		Check: func(o *Orchestrator, want []Record) error {
			var got []Record
			for _, id := range o.Instances() {
				got = append(got, o.lookup(id).snapshotRecords()...)
			}
			// As JSON, so a number reads the same decoded or live.
			g, _ := json.Marshal(got)
			if w, _ := json.Marshal(want); string(g) != string(w) {
				return fmt.Errorf("recovered %s, want the acked prefix %s", g, w)
			}
			// A non-idempotent invoke started but unresolved in the prefix
			// may have had its side effect: resume must compensate instead.
			inFlight := map[string]Record{}
			for _, r := range got {
				switch {
				case r.Kind == recStart && !r.Idempotent:
					inFlight[r.Inst+r.Key] = r
				case r.Kind == recDone || r.Kind == recStepFault:
					delete(inFlight, r.Inst+r.Key)
				}
			}
			settle(t, o)
			for id, a := range o.Audits() {
				if p := a.Problems(); len(p) != 0 || a.Status != StatusCompleted && a.Status != StatusCompensated {
					return fmt.Errorf("settled %s is %s with problems %v, want a clean terminal state", id, a.Status, p)
				}
			}
			for _, r := range inFlight {
				if a, _ := o.Audit(r.Inst); inv.opCount(r.Op) != 0 || a.Status != StatusCompensated {
					return fmt.Errorf("non-idempotent %s was in flight at the crash, yet was re-issued %d times and %s is %s",
						r.Op, inv.opCount(r.Op), r.Inst, a.Status)
				}
			}
			return nil
		},
	}
}

func TestCrashWorkflowJournalTruncation(t *testing.T) { waltest.Run(t, journalCase(t), waltest.Cut) }

func TestCrashWorkflowJournalBitFlip(t *testing.T) { waltest.Run(t, journalCase(t), waltest.Flip) }

func TestCrashWorkflowJournalPowerCut(t *testing.T) { waltest.Run(t, journalCase(t), waltest.PowerCut) }
