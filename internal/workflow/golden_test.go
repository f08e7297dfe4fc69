package workflow

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"soc/internal/wal"
)

// goldenDir holds the journal directory goldenJournal leaves behind,
// byte for byte. Records and snapshots are the on-disk format: a change
// that moves one byte of either fails here, however the code is arranged.
const goldenDir = "testdata/golden"

// goldenJournal drives a fixed pair of instances through a deterministic
// orchestrator: one completes, one compensates, and each terminal record
// is followed by a cadence snapshot.
func goldenJournal(t *testing.T) *wal.MemFS {
	t.Helper()
	fs := wal.NewMemFS(3)
	inv := newStubInvoker()
	o := openOrch(t, fs, inv, Options{SnapshotEvery: 10})
	ctx := context.Background()
	if res, err := o.Start(ctx, "wf-1", "everything", initVars()); err != nil || res.Status != StatusCompleted {
		t.Fatalf("wf-1: %+v, err = %v", res, err)
	}
	inv.fail["Commit"] = "card declined"
	if res, err := o.Start(ctx, "wf-2", "everything", initVars()); err != nil || res.Status != StatusCompensated {
		t.Fatalf("wf-2: %+v, err = %v", res, err)
	}
	if err := o.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return fs
}

func TestJournalGoldenBytes(t *testing.T) {
	fs := goldenJournal(t)
	names, err := fs.List()
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	want, err := os.ReadDir(goldenDir)
	if err != nil {
		t.Fatalf("reading %s: %v", goldenDir, err)
	}
	var wantNames []string
	for _, e := range want {
		wantNames = append(wantNames, e.Name())
	}
	if !slices.Equal(names, wantNames) {
		t.Fatalf("journal directory holds %v, golden holds %v", names, wantNames)
	}
	for _, name := range names {
		got, _ := fs.RawFile(name)
		golden, err := os.ReadFile(filepath.Join(goldenDir, name))
		if err != nil {
			t.Fatalf("reading golden %s: %v", name, err)
		}
		if !bytes.Equal(got, golden) {
			t.Errorf("%s: %d bytes differ from the golden %d bytes", name, len(got), len(golden))
		}
	}
}
