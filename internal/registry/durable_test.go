package registry

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"soc/internal/faultinject"
	"soc/internal/wal"
)

func simClock(start time.Time) (func() time.Time, func(time.Duration)) {
	cur := start
	return func() time.Time { return cur }, func(d time.Duration) { cur = cur.Add(d) }
}

func testEntry(name string) Entry {
	return Entry{
		Name:       name,
		Namespace:  "urn:test:" + name,
		Doc:        "test service " + name,
		Category:   "testing/durable",
		Endpoint:   "http://localhost/" + name,
		Bindings:   []string{"rest"},
		Operations: []string{"Ping"},
		Provider:   "durable-test",
	}
}

func TestDurableRegistryRecoversMutations(t *testing.T) {
	fs := wal.NewMemFS(1)
	now, advance := simClock(time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC))
	open := func() *DurableRegistry {
		d, err := OpenDurable(fs, DurableOptions{}, WithClock(now), WithLease(time.Hour))
		if err != nil {
			t.Fatalf("OpenDurable: %v", err)
		}
		return d
	}

	d := open()
	for _, name := range []string{"Alpha", "Beta", "Gamma"} {
		if err := d.Publish(testEntry(name)); err != nil {
			t.Fatalf("Publish %s: %v", name, err)
		}
	}
	advance(10 * time.Minute)
	if err := d.Heartbeat("Beta"); err != nil {
		t.Fatalf("Heartbeat: %v", err)
	}
	if err := d.Unpublish("Gamma"); err != nil {
		t.Fatalf("Unpublish: %v", err)
	}
	before := d.List(false)
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	d2 := open()
	after := d2.List(false)
	if len(after) != 2 || len(before) != 2 {
		t.Fatalf("recovered %d entries, want 2 (%v)", len(after), after)
	}
	for i := range before {
		if !entriesEqual(before[i], after[i]) {
			t.Fatalf("entry %d diverged:\nbefore %+v\nafter  %+v", i, before[i], after[i])
		}
	}
	// Exact lease times must survive: Beta renewed at +10m, Alpha not.
	alpha, _ := d2.Get("Alpha")
	beta, _ := d2.Get("Beta")
	if !alpha.LeaseExpires.Equal(time.Date(2030, 1, 1, 1, 0, 0, 0, time.UTC)) {
		t.Fatalf("Alpha lease = %v", alpha.LeaseExpires)
	}
	if !beta.LeaseExpires.Equal(time.Date(2030, 1, 1, 1, 10, 0, 0, time.UTC)) {
		t.Fatalf("Beta lease = %v", beta.LeaseExpires)
	}
	if _, err := d2.Get("Gamma"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Gamma survived its unpublish: %v", err)
	}
	// Search index must be rebuilt on recovery.
	matches, err := d2.Search("alpha", 0)
	if err != nil || len(matches) == 0 || matches[0].Entry.Name != "Alpha" {
		t.Fatalf("recovered index search = %v, %v", matches, err)
	}
}

func entriesEqual(a, b Entry) bool {
	if a.Name != b.Name || a.Endpoint != b.Endpoint || !a.Published.Equal(b.Published) ||
		!a.LeaseExpires.Equal(b.LeaseExpires) || a.Doc != b.Doc || a.Category != b.Category {
		return false
	}
	return true
}

func TestDurableRegistrySnapshotCompaction(t *testing.T) {
	fs := wal.NewMemFS(2)
	now, _ := simClock(time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC))
	d, err := OpenDurable(fs, DurableOptions{
		WAL:           wal.Options{SegmentBytes: 512},
		SnapshotEvery: 5,
	}, WithClock(now), WithLease(time.Hour))
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	for i := 0; i < 23; i++ {
		if err := d.Publish(testEntry(fmt.Sprintf("Svc%02d", i))); err != nil {
			t.Fatalf("Publish %d: %v", i, err)
		}
	}
	d2, err := OpenDurable(fs, DurableOptions{WAL: wal.Options{SegmentBytes: 512}},
		WithClock(now), WithLease(time.Hour))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if got := d2.Len(); got != 23 {
		t.Fatalf("recovered %d entries, want 23", got)
	}
	info := d2.Recovery()
	if info.SnapshotIndex == 0 {
		t.Fatalf("no snapshot was taken: %+v", info)
	}
	// Compaction must have actually removed covered segments: far fewer
	// than 23 records should need replaying.
	if info.Replayed >= 23 {
		t.Fatalf("snapshot did not absorb the log: %+v", info)
	}
}

// TestDurableRegistryAckedSurvivesFaultsAndCrashes is the registry-level
// acked ⇒ durable property under an actively hostile disk: whatever the
// injector fails, an acked mutation must be visible after crash+recovery.
func TestDurableRegistryAckedSurvivesFaultsAndCrashes(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		di, err := faultinject.NewDisk(faultinject.DiskPlan{Seed: seed, Rule: faultinject.DiskRule{
			WriteErrorRate: 0.05, ShortWriteRate: 0.08, SyncErrorRate: 0.08,
		}})
		if err != nil {
			t.Fatalf("NewDisk: %v", err)
		}
		mem := wal.NewMemFS(seed)
		now, advance := simClock(time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC))
		d, err := OpenDurable(di.FS(mem), DurableOptions{
			WAL:           wal.Options{SegmentBytes: 1024},
			SnapshotEvery: 7,
		}, WithClock(now), WithLease(time.Hour))
		if err != nil {
			t.Fatalf("seed %d: OpenDurable: %v", seed, err)
		}
		acked := map[string]Entry{}
		for i := 0; i < 40; i++ {
			name := fmt.Sprintf("Svc%02d", i%13)
			var opErr error
			switch i % 3 {
			case 0, 1:
				opErr = d.Publish(testEntry(name))
				if opErr == nil {
					e, _ := d.Get(name)
					acked[name] = e
				}
			case 2:
				opErr = d.Unpublish(name)
				if opErr == nil {
					delete(acked, name)
				}
			}
			advance(time.Minute)
			_ = opErr // failures are legal; only acks bind
		}
		mem.Crash()
		d2, err := OpenDurable(mem, DurableOptions{WAL: wal.Options{SegmentBytes: 1024}},
			WithClock(now), WithLease(time.Hour))
		if err != nil {
			t.Fatalf("seed %d: recovery: %v", seed, err)
		}
		for name, want := range acked {
			got, err := d2.Get(name)
			if err != nil {
				t.Fatalf("seed %d: acked entry %q lost: %v (recovery %s, disk %v)",
					seed, name, err, d2.Recovery(), di.Counts())
			}
			if !entriesEqual(want, got) {
				t.Fatalf("seed %d: entry %q diverged:\nacked     %+v\nrecovered %+v", seed, name, want, got)
			}
		}
	}
}

// TestDurableRegistryEvictSurvivesRestart: an eviction is a logged
// mutation like any other, so the evicted entry stays gone after a
// reopen instead of coming back from the log.
func TestDurableRegistryEvictSurvivesRestart(t *testing.T) {
	fs := wal.NewMemFS(4)
	now, advance := simClock(time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC))
	open := func() *DurableRegistry {
		d, err := OpenDurable(fs, DurableOptions{}, WithClock(now), WithLease(time.Hour))
		if err != nil {
			t.Fatalf("OpenDurable: %v", err)
		}
		return d
	}
	d := open()
	for _, name := range []string{"Alpha", "Beta"} {
		if err := d.Publish(testEntry(name)); err != nil {
			t.Fatalf("Publish %s: %v", name, err)
		}
	}
	advance(30 * time.Minute)
	if err := d.Heartbeat("Beta"); err != nil {
		t.Fatalf("Heartbeat: %v", err)
	}
	advance(45 * time.Minute) // Alpha lapsed 15 minutes ago, Beta is live
	if got := d.Evict(0); len(got) != 1 || got[0] != "Alpha" {
		t.Fatalf("Evict = %v, want [Alpha]", got)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	d2 := open()
	if _, err := d2.Get("Alpha"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("evicted Alpha came back after a restart: %v", err)
	}
	if got := d2.Len(); got != 1 {
		t.Fatalf("recovered %d entries, want 1 (recovery %s)", got, d2.Recovery())
	}
}

// TestOpenDurableBadRecord: a checksum-valid record that does not decode
// fails the open and names the record; the log is closed, so the same
// directory opens again.
func TestOpenDurableBadRecord(t *testing.T) {
	fs := wal.NewMemFS(5)
	log, _, err := wal.Open(fs, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []string{`{"op":"unpublish","name":"Alpha"}`, `{"op":"publish","entry":{"name":"Be`} {
		if _, err := log.Append([]byte(rec)); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDurable(fs, DurableOptions{}); err == nil || !strings.Contains(err.Error(), "record 2") {
		t.Fatalf("OpenDurable over an undecodable record: err = %v", err)
	}
	log, rec, err := wal.Open(fs, wal.Options{})
	if err != nil || len(rec.Records) != 2 {
		t.Fatalf("reopen after the failed open: %d records, err = %v", len(rec.Records), err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDurableRegistryNackedPublishNotApplied(t *testing.T) {
	di, err := faultinject.NewDisk(faultinject.DiskPlan{Seed: 1, Rule: faultinject.DiskRule{WriteErrorRate: 1}})
	if err != nil {
		t.Fatalf("NewDisk: %v", err)
	}
	mem := wal.NewMemFS(1)
	d, err := OpenDurable(di.FS(mem), DurableOptions{})
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	if err := d.Publish(testEntry("Doomed")); err == nil {
		t.Fatal("publish must fail when the log write fails")
	}
	if _, err := d.Get("Doomed"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("nacked publish was applied in memory: %v", err)
	}
}
