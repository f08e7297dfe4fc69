// Package wal is the crash-safe storage engine of the repository: an
// append-only, checksummed, length-prefixed log with strict fsync
// discipline, segment rotation, snapshot + compaction, and a recovery
// path that replays the newest intact snapshot plus the log suffix —
// salvaging up to the last valid record on a torn or corrupted tail
// instead of failing the whole load. The service registry and the
// workflow orchestrator persist on it through Machine (machine.go), the
// one write-ahead state machine over the log; xmlstore and session are
// the next tenants the ROADMAP names.
//
// Durability contract: when Append returns nil, the record is on disk
// (frame written and fsynced into a directory-fsynced segment file), so
// an acknowledged write survives any crash — the acked ⇒ durable
// invariant the simulation harness checks across kill/restart schedules.
//
// On-disk layout (all integers little-endian):
//
//	wal-<first-index-hex>.log   8-byte magic "SOCWAL01", then frames
//	snap-<last-index-hex>.snap  8-byte magic "SOCSNAP1", then one frame
//	frame                       [len u32][crc32(payload) u32][payload]
//
// The engine never appends to a pre-existing segment: recovery always
// starts a fresh one, so a salvaged torn tail can never be extended into
// a record boundary confusion. Within a segment the writer never
// continues past a failed write either (it rolls the partial frame back,
// or abandons the segment when even that fails), which is what makes
// "skip the rest of a damaged segment, keep replaying the next" a sound
// recovery rule rather than a data-loss gamble.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"strings"
	"sync"
)

const (
	segMagic    = "SOCWAL01"
	snapMagic   = "SOCSNAP1"
	segPrefix   = "wal-"
	segSuffix   = ".log"
	snapPrefix  = "snap-"
	snapSuffix  = ".snap"
	tmpSuffix   = ".tmp"
	headerLen   = 8
	frameHeader = 8 // u32 length + u32 crc
	// maxRecord caps a frame's declared payload length so a corrupted
	// length field cannot trigger a giant allocation during recovery.
	maxRecord = 1 << 24
)

// ErrTooLarge reports an Append payload over the frame size cap.
var ErrTooLarge = errors.New("wal: record exceeds max frame size")

// Options tunes a Log. The zero value is usable.
type Options struct {
	// SegmentBytes is the rotation threshold: once the active segment
	// reaches it, the next Append starts a new segment (default 1 MiB).
	SegmentBytes int64
	// KeepSnapshots is how many snapshot generations to retain at
	// compaction (default 2: the newest plus one fallback).
	KeepSnapshots int
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 1 << 20
	}
	if o.KeepSnapshots <= 0 {
		o.KeepSnapshots = 2
	}
	return o
}

// Record is one recovered log entry.
type Record struct {
	// Index is the record's monotonically increasing position, starting
	// at 1.
	Index uint64
	// Data is the payload exactly as appended.
	Data []byte
}

// RecoveryInfo reports what recovery found, including every salvage
// decision — callers log it so crash recovery stays observable (and, in
// the simulation harness, part of the determinism hash).
type RecoveryInfo struct {
	// SnapshotIndex is the index the restored snapshot covers (0: none).
	SnapshotIndex uint64
	// BadSnapshots counts snapshot files that failed validation and were
	// skipped in favor of an older generation.
	BadSnapshots int
	// Replayed is how many records were replayed after the snapshot.
	Replayed int
	// LastIndex is the highest index recovered; new appends continue
	// at LastIndex+1.
	LastIndex uint64
	// Salvaged reports that some tail or segment was damaged and dropped.
	Salvaged bool
	// DroppedBytes totals the bytes discarded across damaged tails.
	DroppedBytes int64
	// DroppedSegments counts segments abandoned wholesale (bad header).
	DroppedSegments int
}

// String renders the info canonically for logs and hashes.
func (ri RecoveryInfo) String() string {
	return fmt.Sprintf("snap=%d badsnaps=%d replayed=%d last=%d salvaged=%t dropped=%d dropsegs=%d",
		ri.SnapshotIndex, ri.BadSnapshots, ri.Replayed, ri.LastIndex,
		ri.Salvaged, ri.DroppedBytes, ri.DroppedSegments)
}

// Recovery is everything Open reconstructed: the snapshot payload (nil
// when none survived), the records after it in index order, and the
// salvage report.
type Recovery struct {
	Snapshot []byte
	Records  []Record
	Info     RecoveryInfo
}

type sealedSeg struct {
	name  string
	first uint64
	last  uint64 // last record index the segment holds (first-1 if empty)
}

// Log is an append-only checksummed log over an FS. Safe for concurrent
// use; recovery determinism additionally requires the FS to be (MemFS
// is, given single-threaded stepping).
type Log struct {
	fs   FS
	opts Options

	mu          sync.Mutex
	active      File
	activeName  string
	activeSize  int64
	activeFirst uint64
	next        uint64 // index the next successful Append returns
	sealed      []sealedSeg
	snaps       []string // snapshot files present, oldest first
	frame       []byte   // reusable frame buffer
}

// Open recovers the log state in fs and returns the log plus everything
// it replayed. Damaged tails are salvaged, damaged snapshots fall back
// one generation; Open itself writes nothing (the first segment is
// created lazily by Append), so recovery can never be failed by a disk
// write fault.
func Open(fs FS, opts Options) (*Log, *Recovery, error) {
	l := &Log{fs: fs, opts: opts.withDefaults()}
	rec := &Recovery{}
	names, err := fs.List()
	if err != nil {
		return nil, nil, fmt.Errorf("wal: listing: %w", err)
	}

	// Leftover temp files are debris from a crash mid-snapshot.
	var snapNames []string
	var segNames []string
	for _, name := range names {
		switch {
		case strings.HasSuffix(name, tmpSuffix):
			//soclint:ignore errdiscard temp debris cleanup is best-effort; a stale tmp file is ignored by recovery anyway
			_ = fs.Remove(name)
		case strings.HasPrefix(name, snapPrefix) && strings.HasSuffix(name, snapSuffix):
			snapNames = append(snapNames, name)
		case strings.HasPrefix(name, segPrefix) && strings.HasSuffix(name, segSuffix):
			segNames = append(segNames, name)
		}
	}

	// Newest intact snapshot wins; every damaged generation is counted
	// and skipped.
	sort.Sort(sort.Reverse(sort.StringSlice(snapNames)))
	for _, name := range snapNames {
		idx, ok := parseIndex(name, snapPrefix, snapSuffix)
		if !ok {
			continue
		}
		data, err := fs.ReadFile(name)
		if err != nil {
			return nil, nil, fmt.Errorf("wal: reading %s: %w", name, err)
		}
		payload, ok := decodeSnapshot(data)
		if !ok {
			rec.Info.BadSnapshots++
			rec.Info.Salvaged = true
			continue
		}
		rec.Snapshot = payload
		rec.Info.SnapshotIndex = idx
		break
	}
	sort.Strings(snapNames)
	l.snaps = snapNames

	// Replay segments in index order, salvaging damaged tails.
	sort.Strings(segNames) // %016x names sort like their indexes
	last := rec.Info.SnapshotIndex
	for _, name := range segNames {
		first, ok := parseIndex(name, segPrefix, segSuffix)
		if !ok {
			continue
		}
		data, err := fs.ReadFile(name)
		if err != nil {
			return nil, nil, fmt.Errorf("wal: reading %s: %w", name, err)
		}
		records, dropped := parseSegment(first, data)
		if dropped > 0 {
			rec.Info.Salvaged = true
			rec.Info.DroppedBytes += dropped
			if len(records) == 0 && dropped == int64(len(data)) {
				rec.Info.DroppedSegments++
			}
		}
		segLast := first - 1
		for _, r := range records {
			segLast = r.Index
			if r.Index <= rec.Info.SnapshotIndex {
				continue // already folded into the snapshot
			}
			rec.Records = append(rec.Records, r)
			rec.Info.Replayed++
		}
		if segLast > last {
			last = segLast
		}
		l.sealed = append(l.sealed, sealedSeg{name: name, first: first, last: segLast})
	}
	rec.Info.LastIndex = last
	l.next = last + 1
	return l, rec, nil
}

// LastIndex returns the highest acknowledged record index (0 when the
// log is empty).
func (l *Log) LastIndex() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next - 1
}

// Append writes one record and returns its index. When Append returns
// nil the record is durable: the frame is written and fsynced into a
// directory-fsynced segment. On a failed or short write the partial
// frame is rolled back (or, if even the rollback fails, the segment is
// abandoned and the next Append starts a fresh one) so a failed append
// can never masquerade as an acknowledged record.
func (l *Log) Append(data []byte) (uint64, error) {
	if len(data) > maxRecord {
		return 0, fmt.Errorf("%w: %d bytes", ErrTooLarge, len(data))
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.ensureActive(); err != nil {
		return 0, err
	}
	l.frame = appendFrame(l.frame[:0], data)
	off := l.activeSize
	n, err := l.active.Write(l.frame)
	if err == nil && n < len(l.frame) {
		err = fmt.Errorf("wal: short write: %d of %d bytes", n, len(l.frame))
	}
	if err != nil {
		l.rollback(off)
		return 0, fmt.Errorf("wal: appending record %d: %w", l.next, err)
	}
	if err := l.active.Sync(); err != nil {
		l.rollback(off)
		return 0, fmt.Errorf("wal: syncing record %d: %w", l.next, err)
	}
	l.activeSize += int64(len(l.frame))
	idx := l.next
	l.next++
	return idx, nil
}

// rollback removes a partial frame after a failed write, or abandons the
// active segment when the disk refuses even that — the garbage tail then
// stays behind for recovery to salvage past.
func (l *Log) rollback(off int64) {
	if err := l.active.Truncate(off); err != nil {
		l.sealActive()
		return
	}
	l.activeSize = off
}

// sealActive closes the active segment and records its range; the next
// Append starts a new one.
func (l *Log) sealActive() {
	if l.active == nil {
		return
	}
	//soclint:ignore errdiscard the segment is already fsynced per record; a close error changes nothing durable
	_ = l.active.Close()
	l.sealed = append(l.sealed, sealedSeg{name: l.activeName, first: l.activeFirst, last: l.next - 1})
	l.active = nil
	l.activeName = ""
	l.activeSize = 0
}

// ensureActive opens a segment to append into, rotating at the size
// threshold. A new segment becomes durable (header synced, name
// dir-synced) before any record is acknowledged into it.
func (l *Log) ensureActive() error {
	if l.active != nil && l.activeSize < l.opts.SegmentBytes {
		return nil
	}
	l.sealActive()
	name := segPrefix + fmt.Sprintf("%016x", l.next) + segSuffix
	// A salvaged segment that yielded zero valid records carries the same
	// first-index name the new segment needs. It holds nothing durable
	// (last < first), so drop its bookkeeping and let Create truncate it —
	// otherwise compaction would later delete the file out from under the
	// active handle.
	for i, s := range l.sealed {
		if s.name == name {
			l.sealed = append(l.sealed[:i], l.sealed[i+1:]...)
			break
		}
	}
	f, err := l.fs.Create(name)
	if err != nil {
		return fmt.Errorf("wal: creating segment %s: %w", name, err)
	}
	abort := func(err error) error {
		//soclint:ignore errdiscard best-effort cleanup of a half-created segment; recovery skips it regardless
		_ = f.Close()
		//soclint:ignore errdiscard best-effort cleanup of a half-created segment; recovery skips it regardless
		_ = l.fs.Remove(name)
		return err
	}
	n, err := f.Write([]byte(segMagic))
	if err == nil && n < len(segMagic) {
		err = fmt.Errorf("short header write: %d of %d bytes", n, len(segMagic))
	}
	if err != nil {
		return abort(fmt.Errorf("wal: writing header of %s: %w", name, err))
	}
	if err := f.Sync(); err != nil {
		return abort(fmt.Errorf("wal: syncing header of %s: %w", name, err))
	}
	if err := l.fs.SyncDir(); err != nil {
		return abort(fmt.Errorf("wal: syncing dir for %s: %w", name, err))
	}
	l.active = f
	l.activeName = name
	l.activeSize = headerLen
	l.activeFirst = l.next
	return nil
}

// Snapshot atomically persists data as the state through the last acked
// record, then compacts: segments wholly covered by the snapshot and
// snapshot generations beyond KeepSnapshots are deleted. The snapshot is
// durable (temp write + fsync + rename + dir fsync) before anything is
// removed, so a crash at any point leaves a recoverable log.
func (l *Log) Snapshot(data []byte) error {
	if len(data) > maxRecord {
		return fmt.Errorf("%w: snapshot of %d bytes", ErrTooLarge, len(data))
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	idx := l.next - 1
	name := snapPrefix + fmt.Sprintf("%016x", idx) + snapSuffix
	tmp := name + tmpSuffix
	f, err := l.fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("wal: creating %s: %w", tmp, err)
	}
	buf := append(make([]byte, 0, headerLen+frameHeader+len(data)), snapMagic...)
	buf = appendFrame(buf, data)
	abort := func(err error) error {
		//soclint:ignore errdiscard best-effort cleanup; the snapshot error is what matters
		_ = f.Close()
		//soclint:ignore errdiscard best-effort cleanup; the snapshot error is what matters
		_ = l.fs.Remove(tmp)
		return err
	}
	n, err := f.Write(buf)
	if err == nil && n < len(buf) {
		err = fmt.Errorf("short write: %d of %d bytes", n, len(buf))
	}
	if err != nil {
		return abort(fmt.Errorf("wal: writing %s: %w", tmp, err))
	}
	if err := f.Sync(); err != nil {
		return abort(fmt.Errorf("wal: syncing %s: %w", tmp, err))
	}
	if err := f.Close(); err != nil {
		return abort(fmt.Errorf("wal: closing %s: %w", tmp, err))
	}
	if err := l.fs.Rename(tmp, name); err != nil {
		return abort(fmt.Errorf("wal: installing %s: %w", name, err))
	}
	if err := l.fs.SyncDir(); err != nil {
		return fmt.Errorf("wal: syncing dir for %s: %w", name, err)
	}
	// Two snapshots at the same index overwrite the same file; don't let
	// the bookkeeping list one file twice or generation trimming would
	// delete a file it thinks it still retains.
	dup := false
	for _, s := range l.snaps {
		if s == name {
			dup = true
			break
		}
	}
	if !dup {
		l.snaps = append(l.snaps, name)
		sort.Strings(l.snaps)
	}

	// Compaction. Trim snapshot generations first, then drop only the
	// segments the OLDEST retained snapshot covers — that keeps the
	// fallback generation lossless: if the newest snapshot is ever found
	// corrupt at rest, the older one plus the retained log suffix still
	// reconstructs every acked record. Failures here never lose data — at
	// worst a covered file lingers until the next compaction.
	l.sealActive()
	removed := false
	for len(l.snaps) > l.opts.KeepSnapshots {
		//soclint:ignore errdiscard a stale snapshot that refuses deletion is retried at the next compaction
		_ = l.fs.Remove(l.snaps[0])
		l.snaps = l.snaps[1:]
		removed = true
	}
	covered := idx
	if oldest, ok := parseIndex(l.snaps[0], snapPrefix, snapSuffix); ok {
		covered = oldest
	}
	kept := l.sealed[:0]
	for _, s := range l.sealed {
		if s.last <= covered {
			//soclint:ignore errdiscard a covered segment that refuses deletion is retried at the next compaction
			_ = l.fs.Remove(s.name)
			removed = true
			continue
		}
		kept = append(kept, s)
	}
	l.sealed = kept
	if removed {
		if err := l.fs.SyncDir(); err != nil {
			return fmt.Errorf("wal: syncing dir after compaction: %w", err)
		}
	}
	return nil
}

// Close seals the active segment and releases the log.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sealActive()
	return nil
}

// appendFrame appends [len][crc][payload] to dst.
func appendFrame(dst, payload []byte) []byte {
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// parseSegment walks a segment's frames, returning the valid records and
// how many trailing bytes were dropped as torn or corrupt. The first
// invalid frame ends the segment: by the writer's discipline nothing
// valid can follow it.
func parseSegment(first uint64, data []byte) (records []Record, dropped int64) {
	if len(data) < headerLen || string(data[:headerLen]) != segMagic {
		return nil, int64(len(data))
	}
	off := headerLen
	idx := first
	for {
		rest := data[off:]
		if len(rest) == 0 {
			return records, 0
		}
		if len(rest) < frameHeader {
			return records, int64(len(rest))
		}
		n := binary.LittleEndian.Uint32(rest[0:4])
		crc := binary.LittleEndian.Uint32(rest[4:8])
		if n > maxRecord || int(n) > len(rest)-frameHeader {
			return records, int64(len(rest))
		}
		payload := rest[frameHeader : frameHeader+int(n)]
		if crc32.ChecksumIEEE(payload) != crc {
			return records, int64(len(rest))
		}
		records = append(records, Record{Index: idx, Data: append([]byte(nil), payload...)})
		idx++
		off += frameHeader + int(n)
	}
}

// decodeSnapshot validates a snapshot file and returns its payload.
func decodeSnapshot(data []byte) ([]byte, bool) {
	if len(data) < headerLen+frameHeader || string(data[:headerLen]) != snapMagic {
		return nil, false
	}
	body := data[headerLen:]
	n := binary.LittleEndian.Uint32(body[0:4])
	crc := binary.LittleEndian.Uint32(body[4:8])
	if n > maxRecord || int(n) != len(body)-frameHeader {
		return nil, false
	}
	payload := body[frameHeader:]
	if crc32.ChecksumIEEE(payload) != crc {
		return nil, false
	}
	return append([]byte(nil), payload...), true
}

// parseIndex extracts the %016x index between prefix and suffix.
func parseIndex(name, prefix, suffix string) (uint64, bool) {
	hexPart := strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix)
	if len(hexPart) != 16 {
		return 0, false
	}
	var idx uint64
	if _, err := fmt.Sscanf(hexPart, "%016x", &idx); err != nil {
		return 0, false
	}
	return idx, true
}
