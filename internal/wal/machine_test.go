package wal_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"soc/internal/faultinject"
	"soc/internal/wal"
)

// tenant is the smallest durable state: the list of records applied, in
// order. Its snapshot is the list itself.
type tenant struct {
	mu       sync.Mutex
	applied  []string
	restored []string
}

func (tn *tenant) handler() wal.Handler[string, []string] {
	return wal.Handler[string, []string]{
		Apply: func(r string) error {
			// Yield first: an apply that takes a while is what a snapshot
			// racing the append-to-apply window would land in.
			runtime.Gosched()
			tn.mu.Lock()
			defer tn.mu.Unlock()
			tn.applied = append(tn.applied, r)
			return nil
		},
		Restore: func(s []string) error {
			tn.restored = s
			tn.applied = slices.Clone(s)
			return nil
		},
		State: func() []string {
			tn.mu.Lock()
			defer tn.mu.Unlock()
			return slices.Clone(tn.applied)
		},
	}
}

func (tn *tenant) state() []string {
	tn.mu.Lock()
	defer tn.mu.Unlock()
	return slices.Clone(tn.applied)
}

func openTenant(t *testing.T, fs wal.FS, every int) (*wal.Machine[string, []string], *tenant) {
	t.Helper()
	tn := &tenant{}
	m, err := wal.OpenMachine(fs, wal.Options{}, every, tn.handler())
	if err != nil {
		t.Fatalf("OpenMachine: %v", err)
	}
	return m, tn
}

// snapshots lists the snapshot files in fs.
func snapshots(t *testing.T, fs wal.FS) []string {
	t.Helper()
	names, err := fs.List()
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	var out []string
	for _, n := range names {
		if strings.HasSuffix(n, ".snap") {
			out = append(out, n)
		}
	}
	return out
}

func snapName(idx int) string { return fmt.Sprintf("snap-%016x.snap", idx) }

// TestMachineFailedAppendNeverApplies: whatever the disk refuses, a
// record is applied exactly when its append was acknowledged.
func TestMachineFailedAppendNeverApplies(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		di, err := faultinject.NewDisk(faultinject.DiskPlan{Seed: seed, Rule: faultinject.DiskRule{
			WriteErrorRate: 0.2, ShortWriteRate: 0.2, SyncErrorRate: 0.2,
		}})
		if err != nil {
			t.Fatalf("NewDisk: %v", err)
		}
		mem := wal.NewMemFS(seed)
		m, tn := openTenant(t, di.FS(mem), 4)
		var acked []string
		for i := 0; i < 40; i++ {
			rec := fmt.Sprintf("r%02d", i)
			if err := m.Append(rec); err == nil {
				acked = append(acked, rec)
			}
			m.MaybeSnapshot()
		}
		if len(acked) == 40 || len(acked) == 0 {
			t.Fatalf("seed %d: %d of 40 appends acked; the plan injected nothing useful", seed, len(acked))
		}
		if got := tn.state(); !slices.Equal(got, acked) {
			t.Fatalf("seed %d: applied %v, acked %v", seed, got, acked)
		}
		mem.Crash()
		_, tn2 := openTenant(t, mem, 4)
		if got := tn2.state(); !slices.Equal(got, acked) {
			t.Fatalf("seed %d: recovered %v, acked %v", seed, got, acked)
		}
	}
}

// failSnapFS refuses to create the next n snapshot temp files.
type failSnapFS struct {
	wal.FS
	n int
}

func (f *failSnapFS) Create(name string) (wal.File, error) {
	if strings.HasSuffix(name, ".snap.tmp") && f.n > 0 {
		f.n--
		return nil, errors.New("injected snapshot create failure")
	}
	return f.FS.Create(name)
}

func TestMachineSnapshotCadence(t *testing.T) {
	appendN := func(t *testing.T, m *wal.Machine[string, []string], from, n int) {
		t.Helper()
		for i := from; i < from+n; i++ {
			if err := m.Append(fmt.Sprintf("r%d", i)); err != nil {
				t.Fatalf("Append: %v", err)
			}
			m.MaybeSnapshot()
		}
	}
	t.Run("every-n", func(t *testing.T) {
		fs := wal.NewMemFS(1)
		m, _ := openTenant(t, fs, 3)
		appendN(t, m, 1, 7)
		if got, want := snapshots(t, fs), []string{snapName(3), snapName(6)}; !slices.Equal(got, want) {
			t.Fatalf("snapshots %v, want %v", got, want)
		}
	})
	t.Run("zero-means-64", func(t *testing.T) {
		fs := wal.NewMemFS(2)
		m, _ := openTenant(t, fs, 0)
		appendN(t, m, 1, 63)
		if got := snapshots(t, fs); len(got) != 0 {
			t.Fatalf("snapshot before the 64th append: %v", got)
		}
		appendN(t, m, 64, 1)
		if got, want := snapshots(t, fs), []string{snapName(64)}; !slices.Equal(got, want) {
			t.Fatalf("snapshots %v, want %v", got, want)
		}
	})
	t.Run("negative-is-off", func(t *testing.T) {
		fs := wal.NewMemFS(3)
		m, _ := openTenant(t, fs, -1)
		appendN(t, m, 1, 100)
		if got := snapshots(t, fs); len(got) != 0 {
			t.Fatalf("cadence snapshot with cadence off: %v", got)
		}
		if err := m.Snapshot(); err != nil {
			t.Fatalf("forced Snapshot: %v", err)
		}
		if got, want := snapshots(t, fs), []string{snapName(100)}; !slices.Equal(got, want) {
			t.Fatalf("snapshots %v, want %v", got, want)
		}
	})
	t.Run("retry-after-failure", func(t *testing.T) {
		fs := &failSnapFS{FS: wal.NewMemFS(4), n: 1}
		m, _ := openTenant(t, fs, 2)
		appendN(t, m, 1, 2)
		if got := snapshots(t, fs); len(got) != 0 {
			t.Fatalf("the failed snapshot left %v", got)
		}
		appendN(t, m, 3, 1)
		if got, want := snapshots(t, fs), []string{snapName(3)}; !slices.Equal(got, want) {
			t.Fatalf("snapshots %v, want the retry at 3 (%v)", got, want)
		}
		// The retry restarted the count.
		appendN(t, m, 4, 2)
		if got, want := snapshots(t, fs), []string{snapName(3), snapName(5)}; !slices.Equal(got, want) {
			t.Fatalf("snapshots %v, want %v", got, want)
		}
	})
}

// TestMachineRecoverySnapshotPlusSuffix: recovery restores the snapshot,
// then applies exactly the records after it.
func TestMachineRecoverySnapshotPlusSuffix(t *testing.T) {
	fs := wal.NewMemFS(5)
	m, _ := openTenant(t, fs, -1)
	for _, r := range []string{"a", "b", "c"} {
		if err := m.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Snapshot(); err != nil {
		t.Fatal(err)
	}
	for _, r := range []string{"d", "e"} {
		if err := m.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m2, tn := openTenant(t, fs, -1)
	if !slices.Equal(tn.restored, []string{"a", "b", "c"}) {
		t.Fatalf("restored %v, want [a b c]", tn.restored)
	}
	if got := tn.state(); !slices.Equal(got, []string{"a", "b", "c", "d", "e"}) {
		t.Fatalf("recovered %v, want [a b c d e]", got)
	}
	if info := m2.Recovery(); info.SnapshotIndex != 3 || info.Replayed != 2 || info.LastIndex != 5 {
		t.Fatalf("recovery %s, want snap=3 replayed=2 last=5", info)
	}
}

// TestMachineOpenFailureClosesLog: a record the tenant refuses fails the
// open, naming the record, and the directory opens again afterwards.
func TestMachineOpenFailureClosesLog(t *testing.T) {
	fs := wal.NewMemFS(6)
	m, _ := openTenant(t, fs, -1)
	for _, r := range []string{"ok", "poison"} {
		if err := m.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	refuse := (&tenant{}).handler()
	apply := refuse.Apply
	refuse.Apply = func(r string) error {
		if r == "poison" {
			return errors.New("refused")
		}
		return apply(r)
	}
	if _, err := wal.OpenMachine(fs, wal.Options{}, -1, refuse); err == nil || !strings.Contains(err.Error(), "record 2") {
		t.Fatalf("OpenMachine over a refused record: err = %v", err)
	}
	if _, tn := openTenant(t, fs, -1); !slices.Equal(tn.state(), []string{"ok", "poison"}) {
		t.Fatalf("reopen recovered %v", tn.state())
	}
}

// auditSnapFS checks every snapshot as it is installed: the tenant's
// state is the list of every record applied since the log began, so a
// snapshot named for index N must hold exactly N records.
type auditSnapFS struct {
	wal.FS
	mu   sync.Mutex
	errs []string
}

func (f *auditSnapFS) Rename(oldname, newname string) error {
	var idx int
	if _, err := fmt.Sscanf(newname, "snap-%016x.snap", &idx); err == nil {
		var recs []string
		data, err := f.FS.ReadFile(oldname)
		if err == nil {
			// Skip the 8-byte file magic and the 8-byte frame header.
			err = json.Unmarshal(data[16:], &recs)
		}
		if err != nil || len(recs) != idx {
			f.mu.Lock()
			f.errs = append(f.errs, fmt.Sprintf("%s holds %d records (err %v)", newname, len(recs), err))
			f.mu.Unlock()
		}
	}
	return f.FS.Rename(oldname, newname)
}

// TestMachineHammer races appenders against cadence and forced
// snapshots, then power-cuts the disk: every acknowledged record must
// be in the recovered state, and every snapshot must hold every record
// up to its index. A snapshot that collected its payload between some
// append's ack and its apply would be named past that record without
// holding it, and recovery would skip the record as covered.
func TestMachineHammer(t *testing.T) {
	const goroutines, perG = 8, 60
	mem := wal.NewMemFS(7)
	fs := &auditSnapFS{FS: mem}
	m, tn := openTenant(t, fs, 5)
	acked := make([][]string, goroutines)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	snapDone := make(chan struct{})
	go func() {
		defer close(snapDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := m.Snapshot(); err != nil {
				t.Errorf("Snapshot: %v", err)
				return
			}
		}
	}()
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range perG {
				rec := fmt.Sprintf("g%d-%02d", g, i)
				if err := m.Append(rec); err != nil {
					t.Errorf("Append %s: %v", rec, err)
					return
				}
				acked[g] = append(acked[g], rec)
				m.MaybeSnapshot()
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-snapDone
	for _, e := range fs.errs {
		t.Errorf("snapshot missed acked records: %s", e)
	}
	mem.Crash()
	m2, tn2 := openTenant(t, mem, 5)
	recovered := map[string]bool{}
	for _, r := range tn2.state() {
		recovered[r] = true
	}
	if len(recovered) != goroutines*perG || len(tn.state()) != goroutines*perG {
		t.Errorf("recovered %d distinct records, applied %d, acked %d", len(recovered), len(tn.state()), goroutines*perG)
	}
	for _, recs := range acked {
		for _, r := range recs {
			if !recovered[r] {
				t.Fatalf("acked record %s lost (recovery %s)", r, m2.Recovery())
			}
		}
	}
}
