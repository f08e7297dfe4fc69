//go:build !race

package workflow

import (
	"context"
	"fmt"
	"testing"

	"soc/internal/wal"
)

// TestJournalAppendAllocCeiling: one journaled record — JSON encode plus
// a durable WAL append over the in-memory disk — rides the
// orchestrator's hottest path. Measured 7.
func TestJournalAppendAllocCeiling(t *testing.T) {
	m, err := wal.OpenMachine(wal.NewMemFS(7), wal.Options{SegmentBytes: 1 << 30}, -1, wal.Handler[Record, snapshotState]{
		Apply: func(Record) error { return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	j := &journal{m: m}
	rec := Record{
		Inst:    "wf-bench",
		Kind:    recDone,
		Key:     "/saga#0/fill#0/i1/add#0",
		Service: "ShoppingCart",
		Op:      "AddItem",
		Effects: map[string]any{"items": float64(3), "total": 129.95},
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if err := j.append(rec); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 7 {
		t.Errorf("journal.append allocates %.1f/op, ceiling 7", allocs)
	}
}

// TestInstanceCompleteAllocCeiling: one whole orchestrated instance —
// begin record, every step journaled before its effect, terminal record
// — the per-instance cost a driver pays. Measured 435, given 10 %.
func TestInstanceCompleteAllocCeiling(t *testing.T) {
	o := openOrch(t, wal.NewMemFS(7), newStubInvoker(), Options{
		SnapshotEvery: -1,
		WAL:           wal.Options{SegmentBytes: 1 << 30},
	})
	ctx := context.Background()
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		i++
		res, err := o.Start(ctx, fmt.Sprintf("wf-%06d", i), "everything", initVars())
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != StatusCompleted {
			t.Fatalf("instance %d: %s", i, res.Status)
		}
	})
	if allocs > 478 {
		t.Errorf("Orchestrator.Start of one instance allocates %.1f/op, ceiling 478", allocs)
	}
}
