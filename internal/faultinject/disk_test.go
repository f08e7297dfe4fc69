package faultinject

import (
	"fmt"
	"strings"
	"testing"

	"soc/internal/wal"
)

func TestDiskInjectorDeterministic(t *testing.T) {
	run := func(seed int64) string {
		di, err := NewDisk(DiskPlan{Seed: seed, Rule: DiskRule{
			WriteErrorRate: 0.1, ShortWriteRate: 0.15, SyncErrorRate: 0.1,
		}})
		if err != nil {
			t.Fatalf("NewDisk: %v", err)
		}
		fs := di.FS(wal.NewMemFS(seed))
		f, err := fs.Create("data")
		if err != nil {
			t.Fatalf("Create: %v", err)
		}
		var b strings.Builder
		for i := 0; i < 100; i++ {
			n, werr := f.Write([]byte("0123456789abcdef"))
			serr := f.Sync()
			fmt.Fprintf(&b, "%d %d %v %v\n", i, n, werr != nil, serr != nil)
		}
		return b.String()
	}
	if run(3) != run(3) {
		t.Fatal("same seed diverged")
	}
	if run(3) == run(4) {
		t.Fatal("different seeds identical; seeding not wired through")
	}
}

func TestDiskInjectorShortWritePersistsStrictPrefix(t *testing.T) {
	di, err := NewDisk(DiskPlan{Seed: 1, Rule: DiskRule{ShortWriteRate: 1}})
	if err != nil {
		t.Fatalf("NewDisk: %v", err)
	}
	mem := wal.NewMemFS(1)
	fs := di.FS(mem)
	f, err := fs.Create("data")
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	buf := []byte("0123456789")
	n, werr := f.Write(buf)
	if werr == nil {
		t.Fatal("short write must report an error")
	}
	if n < 0 || n >= len(buf) {
		t.Fatalf("short write persisted %d of %d bytes; want a strict prefix", n, len(buf))
	}
	raw, ok := mem.RawFile("data")
	if !ok {
		t.Fatal("file missing")
	}
	if string(raw) != string(buf[:n]) {
		t.Fatalf("file holds %q, want prefix %q", raw, buf[:n])
	}
}

func TestDiskInjectorZeroRuleAlwaysPasses(t *testing.T) {
	di, err := NewDisk(DiskPlan{Seed: 1})
	if err != nil {
		t.Fatalf("NewDisk: %v", err)
	}
	mem := wal.NewMemFS(1)
	fs := di.FS(mem)
	f, err := fs.Create("data")
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	for i := 0; i < 50; i++ {
		if _, err := f.Write([]byte("x")); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if err := f.Sync(); err != nil {
			t.Fatalf("sync %d: %v", i, err)
		}
	}
	if injected(&di.ledger) != 0 {
		t.Fatalf("zero rule injected %d faults: %v", injected(&di.ledger), di.Counts())
	}
}

func TestDiskInjectorValidatesRates(t *testing.T) {
	if _, err := NewDisk(DiskPlan{Rule: DiskRule{WriteErrorRate: 1.5}}); err == nil {
		t.Fatal("expected validation error")
	}
	if _, err := NewDisk(DiskPlan{Rule: DiskRule{SyncErrorRate: -0.1}}); err == nil {
		t.Fatal("expected validation error")
	}
}

// TestWALSurvivesDiskFaults is the integration property: a log driven
// through a faulty disk acks only what recovery can reproduce. Every
// acked record must be recovered intact after a crash, whatever the
// injector did.
func TestWALSurvivesDiskFaults(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		di, err := NewDisk(DiskPlan{Seed: seed, Rule: DiskRule{
			WriteErrorRate: 0.05, ShortWriteRate: 0.1, SyncErrorRate: 0.08,
		}})
		if err != nil {
			t.Fatalf("NewDisk: %v", err)
		}
		mem := wal.NewMemFS(seed)
		l, _, err := wal.Open(di.FS(mem), wal.Options{SegmentBytes: 256})
		if err != nil {
			t.Fatalf("seed %d: Open: %v", seed, err)
		}
		acked := map[uint64]string{}
		for i := 0; i < 80; i++ {
			data := fmt.Sprintf("seed%d-rec%d", seed, i)
			if idx, err := l.Append([]byte(data)); err == nil {
				acked[idx] = data
			}
		}
		mem.Crash()
		// Recovery reads the bare disk: the injector never faults reads.
		_, rec, err := wal.Open(mem, wal.Options{SegmentBytes: 256})
		if err != nil {
			t.Fatalf("seed %d: recovery: %v", seed, err)
		}
		got := map[uint64]string{}
		for _, r := range rec.Records {
			got[r.Index] = string(r.Data)
		}
		for idx, want := range acked {
			if got[idx] != want {
				t.Fatalf("seed %d: acked record %d = %q lost (recovered %q); injector: %v",
					seed, idx, want, got[idx], di.Counts())
			}
		}
	}
}
