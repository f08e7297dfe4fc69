package registry

import (
	"encoding/binary"
	"strconv"
	"testing"
	"time"

	"soc/internal/wal"
)

// The durable registry's crash-point corpus: publishes, heartbeats,
// unpublishes and an eviction go through a DurableRegistry, with a
// snapshot midway, so the image is one snapshot plus one segment of
// later records. The segment is cut at every byte offset and
// bit-flipped at every byte (the snapshot stays intact), and every
// damaged image must open to exactly the directory of the acked prefix
// that holds each record whose frame survived.

type registryImage struct {
	snapName, segName string
	snap, seg         []byte
	// ends[i] is the byte offset where frame i+1 of seg ends.
	ends []int
	// states[k] is the directory after the first k records of seg.
	states [][]Entry
}

func buildRegistryCrashImage(t *testing.T) registryImage {
	t.Helper()
	fs := wal.NewMemFS(31)
	now, advance := simClock(time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC))
	d, err := OpenDurable(fs, DurableOptions{SnapshotEvery: -1, WAL: wal.Options{SegmentBytes: 1 << 30}},
		WithClock(now), WithLease(time.Hour))
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	must := func(what string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	for _, name := range []string{"Alpha", "Beta", "Gamma", "Delta"} {
		must("publish "+name, d.Publish(testEntry(name)))
	}
	advance(10 * time.Minute)
	must("heartbeat Beta", d.Heartbeat("Beta"))
	must("unpublish Delta", d.Unpublish("Delta"))
	must("snapshot", d.Snapshot())

	states := [][]Entry{d.List(false)}
	record := func(what string, err error) {
		t.Helper()
		must(what, err)
		states = append(states, d.List(false))
	}
	advance(10 * time.Minute)
	record("publish Epsilon", d.Publish(testEntry("Epsilon")))
	advance(10 * time.Minute)
	record("heartbeat Alpha", d.Heartbeat("Alpha"))
	record("publish Zeta", d.Publish(testEntry("Zeta")))
	record("unpublish Gamma", d.Unpublish("Gamma"))
	advance(55 * time.Minute) // Beta and Epsilon lapse; Alpha and Zeta stay live
	evicted := d.Evict(0)
	if len(evicted) != 2 || evicted[0] != "Beta" || evicted[1] != "Epsilon" {
		t.Fatalf("Evict = %v, want [Beta Epsilon]", evicted)
	}
	// One unpublish record per evicted name: the state between them is
	// an acked prefix too.
	for _, name := range evicted {
		var next []Entry
		for _, e := range states[len(states)-1] {
			if e.Name != name {
				next = append(next, e)
			}
		}
		states = append(states, next)
	}
	advance(time.Minute)
	record("heartbeat Alpha", d.Heartbeat("Alpha"))
	record("publish Eta", d.Publish(testEntry("Eta")))
	must("close", d.Close())

	names, err := fs.List()
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	if len(names) != 2 {
		t.Fatalf("image spans %v, want one snapshot and one segment", names)
	}
	img := registryImage{snapName: names[0], segName: names[1], states: states}
	img.snap, _ = fs.RawFile(img.snapName)
	img.seg, _ = fs.RawFile(img.segName)
	// Frames after the 8-byte segment header: [len u32][crc u32][payload].
	for off := 8; off+8 <= len(img.seg); {
		off += 8 + int(binary.LittleEndian.Uint32(img.seg[off:]))
		img.ends = append(img.ends, off)
	}
	if len(img.ends) != len(states)-1 || img.ends[len(img.ends)-1] != len(img.seg) {
		t.Fatalf("segment holds %d frames ending at %v, want %d records in %d bytes",
			len(img.ends), img.ends, len(states)-1, len(img.seg))
	}
	return img
}

// intactFrames counts the frames wholly inside the first n bytes.
func (img registryImage) intactFrames(n int) int {
	k := 0
	for _, end := range img.ends {
		if end <= n {
			k++
		}
	}
	return k
}

// recoverImage opens a durable registry over the image with seg in place
// of the segment and checks it holds exactly states[k].
func (img registryImage) recoverImage(t *testing.T, tag string, seg []byte, k int) {
	t.Helper()
	fs := wal.NewMemFS(1)
	fs.WriteDurable(img.snapName, img.snap)
	fs.WriteDurable(img.segName, seg)
	d, err := OpenDurable(fs, DurableOptions{})
	if err != nil {
		t.Fatalf("%s: OpenDurable: %v", tag, err)
	}
	got, want := d.List(false), img.states[k]
	if len(got) != len(want) {
		t.Fatalf("%s: recovered %d entries, want the %d of acked prefix %d (recovery %s)", tag, len(got), len(want), k, d.Recovery())
	}
	for i := range want {
		if !entriesEqual(got[i], want[i]) {
			t.Fatalf("%s: entry %d diverged from acked prefix %d:\nrecovered %+v\nwant      %+v", tag, i, k, got[i], want[i])
		}
	}
}

func TestCrashRegistryTruncation(t *testing.T) {
	img := buildRegistryCrashImage(t)
	for cut := 0; cut <= len(img.seg); cut++ {
		img.recoverImage(t, "cut="+strconv.Itoa(cut), img.seg[:cut], img.intactFrames(cut))
	}
}

func TestCrashRegistryBitFlip(t *testing.T) {
	img := buildRegistryCrashImage(t)
	for off := 0; off < len(img.seg); off++ {
		seg := append([]byte(nil), img.seg...)
		seg[off] ^= 0x01
		// The flip damages the frame holding off (or the header, which
		// drops the segment): every frame ending at or before off survives.
		k := img.intactFrames(off)
		if off < 8 {
			k = 0
		}
		img.recoverImage(t, "flip="+strconv.Itoa(off), seg, k)
	}
}
