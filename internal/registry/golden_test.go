package registry

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"soc/internal/wal"
)

// goldenDir holds the log directory goldenRegistry leaves behind, byte
// for byte. Records and snapshots are the on-disk format: a change that
// moves one byte of either fails here, however the code is arranged.
const goldenDir = "testdata/golden"

// goldenRegistry drives one fixed mutation sequence through a durable
// registry: a cadence snapshot after the fourth record, a forced one
// after the sixth, and one record past it.
func goldenRegistry(t *testing.T) *wal.MemFS {
	t.Helper()
	fs := wal.NewMemFS(3)
	now, advance := simClock(time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC))
	d, err := OpenDurable(fs, DurableOptions{SnapshotEvery: 4}, WithClock(now), WithLease(time.Hour))
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	step := func(what string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		advance(time.Minute)
	}
	step("publish Alpha", d.Publish(testEntry("Alpha")))
	step("publish Beta", d.Publish(testEntry("Beta")))
	step("publish Gamma", d.Publish(testEntry("Gamma")))
	step("heartbeat Beta", d.Heartbeat("Beta"))
	step("unpublish Alpha", d.Unpublish("Alpha"))
	step("republish Gamma", d.Publish(testEntry("Gamma")))
	step("snapshot", d.m.Snapshot())
	step("publish Delta", d.Publish(testEntry("Delta")))
	step("close", d.Close())
	return fs
}

func TestDurableRegistryGoldenBytes(t *testing.T) {
	fs := goldenRegistry(t)
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
		t.Fatalf("log directory holds %v, golden holds %v", names, wantNames)
	}
	for _, name := range names {
		got, _ := fs.RawFile(name)
		golden, err := os.ReadFile(filepath.Join(goldenDir, name))
		if err != nil {
			t.Fatalf("reading golden %s: %v", name, err)
		}
		if !bytes.Equal(got, golden) {
			t.Errorf("%s: %d bytes differ from the golden %d bytes:\ngot    %q\ngolden %q", name, len(got), len(golden), got, golden)
		}
	}
}
