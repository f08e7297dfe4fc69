package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
)

func mustAppend(t *testing.T, l *Log, data string) uint64 {
	t.Helper()
	idx, err := l.Append([]byte(data))
	if err != nil {
		t.Fatalf("Append(%q): %v", data, err)
	}
	return idx
}

func reopen(t *testing.T, fs FS, opts Options) (*Log, *Recovery) {
	t.Helper()
	l, rec, err := Open(fs, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l, rec
}

func recordStrings(rec *Recovery) []string {
	out := make([]string, 0, len(rec.Records))
	for _, r := range rec.Records {
		out = append(out, fmt.Sprintf("%d:%s", r.Index, r.Data))
	}
	return out
}

func TestAppendReopenRoundTrip(t *testing.T) {
	fs := NewMemFS(1)
	l, rec := reopen(t, fs, Options{})
	if rec.Snapshot != nil || len(rec.Records) != 0 || rec.Info.LastIndex != 0 {
		t.Fatalf("fresh log recovered state: %+v", rec.Info)
	}
	for i := 1; i <= 5; i++ {
		if idx := mustAppend(t, l, fmt.Sprintf("rec-%d", i)); idx != uint64(i) {
			t.Fatalf("append %d got index %d", i, idx)
		}
	}
	if got := l.next - 1; got != 5 {
		t.Fatalf("last index = %d, want 5", got)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	_, rec = reopen(t, fs, Options{})
	want := []string{"1:rec-1", "2:rec-2", "3:rec-3", "4:rec-4", "5:rec-5"}
	got := recordStrings(rec)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("recovered %v, want %v", got, want)
	}
	if rec.Info.Salvaged || rec.Info.LastIndex != 5 || rec.Info.Replayed != 5 {
		t.Fatalf("recovery info: %+v", rec.Info)
	}
}

func TestSegmentRotation(t *testing.T) {
	fs := NewMemFS(2)
	l, _ := reopen(t, fs, Options{SegmentBytes: 64})
	for i := 1; i <= 20; i++ {
		mustAppend(t, l, fmt.Sprintf("payload-%02d", i))
	}
	names, err := fs.List()
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	segs := 0
	for _, n := range names {
		if strings.HasPrefix(n, segPrefix) {
			segs++
		}
	}
	if segs < 3 {
		t.Fatalf("expected rotation to produce >=3 segments, got %d (%v)", segs, names)
	}
	_, rec := reopen(t, fs, Options{SegmentBytes: 64})
	if rec.Info.Replayed != 20 || rec.Info.LastIndex != 20 || rec.Info.Salvaged {
		t.Fatalf("recovery across segments: %+v", rec.Info)
	}
}

func TestSnapshotAndCompaction(t *testing.T) {
	fs := NewMemFS(3)
	l, _ := reopen(t, fs, Options{SegmentBytes: 64})
	for i := 1; i <= 12; i++ {
		mustAppend(t, l, fmt.Sprintf("old-%02d", i))
	}
	if err := l.Snapshot([]byte("state@12")); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	for i := 13; i <= 15; i++ {
		mustAppend(t, l, fmt.Sprintf("new-%02d", i))
	}

	names, err := fs.List()
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	for _, n := range names {
		if strings.HasSuffix(n, tmpSuffix) {
			t.Fatalf("temp file leaked: %v", names)
		}
	}

	_, rec := reopen(t, fs, Options{SegmentBytes: 64})
	if string(rec.Snapshot) != "state@12" {
		t.Fatalf("snapshot payload = %q", rec.Snapshot)
	}
	if rec.Info.SnapshotIndex != 12 || rec.Info.Replayed != 3 || rec.Info.LastIndex != 15 {
		t.Fatalf("recovery info: %+v", rec.Info)
	}
	got := recordStrings(rec)
	want := []string{"13:new-13", "14:new-14", "15:new-15"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("replayed %v, want %v", got, want)
	}
}

func TestCompactionRetainsSnapshotGenerations(t *testing.T) {
	fs := NewMemFS(4)
	l, _ := reopen(t, fs, Options{})
	for gen := 1; gen <= 4; gen++ {
		mustAppend(t, l, fmt.Sprintf("gen-%d", gen))
		if err := l.Snapshot([]byte(fmt.Sprintf("snap-%d", gen))); err != nil {
			t.Fatalf("Snapshot %d: %v", gen, err)
		}
	}
	names, err := fs.List()
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	snaps := 0
	for _, n := range names {
		if strings.HasPrefix(n, snapPrefix) {
			snaps++
		}
	}
	if snaps != 2 {
		t.Fatalf("expected 2 retained snapshots, got %d (%v)", snaps, names)
	}
	// Corrupt the newest snapshot: recovery must fall back to the older
	// generation and replay the records past it.
	newest := ""
	for _, n := range names {
		if strings.HasPrefix(n, snapPrefix) {
			newest = n
		}
	}
	if err := flipBit(fs, newest, headerLen+frameHeader+1); err != nil {
		t.Fatalf("flipBit: %v", err)
	}
	_, rec := reopen(t, fs, Options{})
	if string(rec.Snapshot) != "snap-3" {
		t.Fatalf("fallback snapshot = %q, want snap-3", rec.Snapshot)
	}
	if rec.Info.BadSnapshots != 1 || !rec.Info.Salvaged {
		t.Fatalf("recovery info: %+v", rec.Info)
	}
	if got := recordStrings(rec); strings.Join(got, ",") != "4:gen-4" {
		t.Fatalf("replayed %v, want [4:gen-4]", got)
	}
}

func TestTornTailSalvage(t *testing.T) {
	fs := NewMemFS(5)
	l, _ := reopen(t, fs, Options{})
	for i := 1; i <= 3; i++ {
		mustAppend(t, l, fmt.Sprintf("durable-%d", i))
	}
	// Hand-tear the segment: append half a frame directly.
	names, _ := fs.List()
	segName := names[0]
	raw, _ := fs.RawFile(segName)
	torn := append(append([]byte(nil), raw...), appendFrame(nil, []byte("torn-record"))[:7]...)
	fs.WriteDurable(segName, torn)

	_, rec := reopen(t, fs, Options{})
	if !rec.Info.Salvaged || rec.Info.DroppedBytes != 7 {
		t.Fatalf("expected 7 dropped bytes, got %+v", rec.Info)
	}
	if rec.Info.Replayed != 3 || rec.Info.LastIndex != 3 {
		t.Fatalf("durable prefix lost: %+v", rec.Info)
	}
}

func TestBitFlipCorruptionDropsTail(t *testing.T) {
	fs := NewMemFS(6)
	l, _ := reopen(t, fs, Options{})
	for i := 1; i <= 4; i++ {
		mustAppend(t, l, fmt.Sprintf("record-%d", i))
	}
	names, _ := fs.List()
	raw, _ := fs.RawFile(names[0])
	// Flip a payload bit inside record 3: records 1-2 must survive, the
	// corrupt record and everything after it must be dropped.
	frameLen := frameHeader + len("record-1")
	off := headerLen + 2*frameLen + frameHeader + 3
	if err := flipBit(fs, names[0], off); err != nil {
		t.Fatalf("flipBit: %v", err)
	}
	_, rec := reopen(t, fs, Options{})
	if rec.Info.Replayed != 2 || !rec.Info.Salvaged {
		t.Fatalf("after bit flip: %+v", rec.Info)
	}
	wantDropped := int64(len(raw) - headerLen - 2*frameLen)
	if rec.Info.DroppedBytes != wantDropped {
		t.Fatalf("DroppedBytes = %d, want %d", rec.Info.DroppedBytes, wantDropped)
	}
}

func TestRecoveryStartsFreshSegment(t *testing.T) {
	fs := NewMemFS(7)
	l, _ := reopen(t, fs, Options{})
	mustAppend(t, l, "first")

	l2, _ := reopen(t, fs, Options{})
	if idx := mustAppend(t, l2, "second"); idx != 2 {
		t.Fatalf("post-recovery append index = %d, want 2", idx)
	}
	names, _ := fs.List()
	segs := 0
	for _, n := range names {
		if strings.HasPrefix(n, segPrefix) {
			segs++
		}
	}
	if segs != 2 {
		t.Fatalf("recovery must append into a fresh segment: %v", names)
	}
	_, rec := reopen(t, fs, Options{})
	got := recordStrings(rec)
	if strings.Join(got, ",") != "1:first,2:second" {
		t.Fatalf("recovered %v", got)
	}
}

func TestFailedWriteRollsBack(t *testing.T) {
	fs := NewMemFS(8)
	l, _ := reopen(t, fs, Options{})
	mustAppend(t, l, "keep")
	ffs := &flakyFS{FS: fs, failWrites: 1}
	l2 := &Log{fs: ffs, opts: Options{}.withDefaults()}
	l2.next = l.next
	if _, err := l2.Append([]byte("lost")); err == nil {
		t.Fatal("expected write failure")
	}
	// The failed frame was rolled back; the next append must succeed and
	// reuse the index.
	idx, err := l2.Append([]byte("retry"))
	if err != nil {
		t.Fatalf("retry append: %v", err)
	}
	if idx != 2 {
		t.Fatalf("retry index = %d, want 2", idx)
	}
	_, rec := reopen(t, fs, Options{})
	got := recordStrings(rec)
	if strings.Join(got, ",") != "1:keep,2:retry" {
		t.Fatalf("recovered %v", got)
	}
}

func TestCrashBeforeSyncLosesNothingAcked(t *testing.T) {
	fs := NewMemFS(9)
	l, _ := reopen(t, fs, Options{})
	for i := 1; i <= 3; i++ {
		mustAppend(t, l, fmt.Sprintf("acked-%d", i))
	}
	// Write a frame WITHOUT syncing by reaching past the API: simulate a
	// process that died between write and fsync.
	l.mu.Lock()
	frame := appendFrame(nil, []byte("unsynced"))
	if _, err := l.active.Write(frame); err != nil {
		l.mu.Unlock()
		t.Fatalf("raw write: %v", err)
	}
	l.mu.Unlock()

	fs.Crash()
	_, rec := reopen(t, fs, Options{})
	// The unsynced frame may or may not survive the torn write — both are
	// legal. The acked records must.
	if rec.Info.Replayed < 3 {
		t.Fatalf("acked records lost after crash: %+v", rec.Info)
	}
	for i := 0; i < 3; i++ {
		want := fmt.Sprintf("acked-%d", i+1)
		if got := string(rec.Records[i].Data); got != want {
			t.Fatalf("record %d = %q, want %q", rec.Records[i].Index, got, want)
		}
	}
}

func TestRecordTooLarge(t *testing.T) {
	fs := NewMemFS(10)
	l, _ := reopen(t, fs, Options{})
	if _, err := l.Append(make([]byte, maxRecord+1)); err == nil {
		t.Fatal("expected ErrTooLarge")
	}
	if err := l.Snapshot(make([]byte, maxRecord+1)); err == nil {
		t.Fatal("expected ErrTooLarge for snapshot")
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/data.xml"
	if err := WriteFileAtomic(path, []byte("v1"), 0o644); err != nil {
		t.Fatalf("WriteFileAtomic: %v", err)
	}
	if err := WriteFileAtomic(path, []byte("v2"), 0o644); err != nil {
		t.Fatalf("WriteFileAtomic overwrite: %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read back: %v", err)
	}
	if !bytes.Equal(got, []byte("v2")) {
		t.Fatalf("contents = %q, want v2", got)
	}
}

// flakyFS wraps an FS and fails the first failWrites writes.
type flakyFS struct {
	FS
	failWrites int
}

func (f *flakyFS) Create(name string) (File, error) {
	file, err := f.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &flakyFile{File: file, fs: f}, nil
}

type flakyFile struct {
	File
	fs *flakyFS
}

func (f *flakyFile) Write(p []byte) (int, error) {
	// Let the segment header through; fail record frames.
	if string(p) != segMagic && f.fs.failWrites > 0 {
		f.fs.failWrites--
		return 0, fmt.Errorf("flaky: injected write error")
	}
	return f.File.Write(p)
}

// TestDamagedOnlySnapshotFailsOpen: with records 1-5 compacted into the
// only snapshot generation, a damaged snapshot leaves nothing that holds
// them. Recovery must refuse to open onto records 6-8 alone.
func TestDamagedOnlySnapshotFailsOpen(t *testing.T) {
	fs := NewMemFS(11)
	l, _ := reopen(t, fs, Options{})
	for i := 1; i <= 5; i++ {
		mustAppend(t, l, fmt.Sprintf("old-%d", i))
	}
	if err := l.Snapshot([]byte("state@5")); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	for i := 6; i <= 8; i++ {
		mustAppend(t, l, fmt.Sprintf("new-%d", i))
	}
	if err := flipBit(fs, snapPrefix+fmt.Sprintf("%016x", 5)+snapSuffix, headerLen+frameHeader+1); err != nil {
		t.Fatalf("flipBit: %v", err)
	}
	_, _, err := Open(fs, Options{})
	if !errors.Is(err, ErrGap) || !strings.Contains(err.Error(), "records 1..5 missing") {
		t.Fatalf("Open over a damaged only snapshot: err = %v, want a gap naming records 1..5", err)
	}
}

// TestDamagedMiddleSegmentFailsOpen: a flipped bit in a sealed segment
// drops the rest of that segment, and the next segment's records do not
// continue where the replay stopped. Recovery must name the hole rather
// than replay around it.
func TestDamagedMiddleSegmentFailsOpen(t *testing.T) {
	fs := NewMemFS(12)
	l, _ := reopen(t, fs, Options{SegmentBytes: 40})
	for i := 1; i <= 9; i++ {
		mustAppend(t, l, fmt.Sprintf("rec-%d", i))
	}
	mid := segPrefix + fmt.Sprintf("%016x", 4) + segSuffix
	raw, ok := fs.RawFile(mid)
	if !ok {
		names, _ := fs.List()
		t.Fatalf("no segment %s in %v", mid, names)
	}
	// Damage record 5, the second frame of the segment holding 4-6.
	if err := flipBit(fs, mid, len(raw)-frameHeader-len("rec-6")-1); err != nil {
		t.Fatalf("flipBit: %v", err)
	}
	_, _, err := Open(fs, Options{SegmentBytes: 40})
	if !errors.Is(err, ErrGap) || !strings.Contains(err.Error(), "records 5..6 missing") {
		t.Fatalf("Open over a damaged middle segment: err = %v, want a gap naming records 5..6", err)
	}
}

// TestAbandonedSegmentYieldsToItsSuccessor: when a frame is written but
// neither its fsync nor its rollback succeeds, the writer abandons the
// segment with the unacked frame whole inside it, and the retry acks a
// different record at the same index in a fresh segment. Recovery must
// replay the acked record only.
func TestAbandonedSegmentYieldsToItsSuccessor(t *testing.T) {
	fs := NewMemFS(13)
	l, _ := reopen(t, fs, Options{})
	mustAppend(t, l, "keep")
	l.active = stuckFile{l.active}
	if _, err := l.Append([]byte("unacked")); err == nil {
		t.Fatal("expected the sync failure")
	}
	if idx := mustAppend(t, l, "acked"); idx != 2 {
		t.Fatalf("retry index = %d, want 2", idx)
	}
	_, rec := reopen(t, fs, Options{})
	if got := recordStrings(rec); strings.Join(got, ",") != "1:keep,2:acked" || rec.Info.LastIndex != 2 {
		t.Fatalf("recovered %v (%s), want [1:keep 2:acked]", got, rec.Info)
	}
}

// stuckFile took the bytes but will neither confirm nor undo them.
type stuckFile struct{ File }

func (stuckFile) Sync() error          { return errors.New("stuck: injected sync error") }
func (stuckFile) Truncate(int64) error { return errors.New("stuck: injected truncate error") }

// TestCrashRecoveryCycleDeterministic runs a write/crash/recover cycle
// twice from the same seed and asserts byte-identical disks and
// identical recovery reports — the property the simulation harness's
// hash-equality check leans on.
func TestCrashRecoveryCycleDeterministic(t *testing.T) {
	run := func(seed int64) string {
		fs := NewMemFS(seed)
		trace := ""
		l, rec, err := Open(fs, Options{SegmentBytes: 128})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		for round := 0; round < 4; round++ {
			for i := 0; i < 6; i++ {
				data := fmt.Sprintf("r%d-i%d", round, i)
				if idx, err := l.Append([]byte(data)); err == nil {
					trace += fmt.Sprintf("ack %d %s\n", idx, data)
				}
			}
			if round == 1 {
				if err := l.Snapshot([]byte(fmt.Sprintf("snap-round-%d", round))); err != nil {
					t.Fatalf("Snapshot: %v", err)
				}
			}
			// Leave an unsynced partial frame behind so the crash has a
			// torn tail for the seeded rng to tear.
			l.mu.Lock()
			if l.active != nil {
				frame := appendFrame(nil, []byte(fmt.Sprintf("unsynced-r%d", round)))
				if _, err := l.active.Write(frame[:len(frame)-3]); err != nil {
					l.mu.Unlock()
					t.Fatalf("raw write: %v", err)
				}
			}
			l.mu.Unlock()
			fs.Crash()
			l, rec, err = Open(fs, Options{SegmentBytes: 128})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			trace += "recover " + rec.Info.String() + "\n"
		}
		return trace
	}
	a, b := run(7), run(7)
	if a != b {
		t.Fatalf("same seed diverged:\n--- run A\n%s--- run B\n%s", a, b)
	}
	if run(8) == a {
		t.Fatal("different seeds produced identical traces; rng not wired through")
	}
}

// flipBit flips one bit of the stored byte at off in name — at-rest
// corruption, durable state included.
func flipBit(m *MemFS, name string, off int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.cur[name]
	if !ok {
		return fmt.Errorf("flipbit %s: no such file", name)
	}
	if off < 0 || off >= len(f.data) {
		return fmt.Errorf("flipbit %s: offset %d out of %d bytes", name, off, len(f.data))
	}
	f.data[off] ^= 0x01
	return nil
}
