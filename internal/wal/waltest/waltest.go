// Package waltest is the crash harness every wal.Machine tenant shares. A
// tenant supplies a factory, a script and a check; the harness runs the
// script on a wal.MemFS, then recovers the tenant, and the bare log under
// it, from every image of a Sweep. A power cut must lose nothing acked.
// At-rest damage may destroy acked records: recovery must then keep
// exactly the acked prefix before the first destroyed one or, when intact
// records follow that hole, fail with wal.ErrGap naming it.
package waltest

import (
	"errors"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"soc/internal/wal"
)

// Sweep names one family of damaged images.
type Sweep string

// Cut truncates, and Flip flips a bit in, every byte of every file of the
// final image, segments and snapshots alike. PowerCut cuts power after
// every mutating FS operation of the run, each step of a snapshot's tmp →
// sync → rename → SyncDir → compaction sequence included, keeping only
// synced bytes and the last synced namespace (wal.MemFS.Durable).
const (
	Cut      Sweep = "cut"
	Flip     Sweep = "flip"
	PowerCut Sweep = "power cut"
)

// Case is one tenant's crash corpus: T is the tenant, S its state.
type Case[T, S any] struct {
	// Open recovers a tenant over fs. The script must leave two segments,
	// two snapshot generations and records after the newest.
	Open func(fs wal.FS) (T, error)
	// Script drives a fresh tenant. For each record it appends, in log
	// order, it calls ack with the append's error and the state after it.
	Script func(tn T, ack func(error, S)) error
	// Check compares a recovered tenant with want, an acked prefix's state.
	Check func(tn T, want S) error
	// Stride samples every Stride-th offset of Cut and Flip (0: every).
	Stride int
}

// damage is one damaged image and what recovery must make of it.
type damage struct {
	img      *wal.MemFS
	where    string // the damage, for messages
	acked    int    // the records recovery must keep
	gap      string // when set, the "records a..b" the open must fail naming
	dropped  int64  // the bytes it must discard from a damaged segment
	badSegs  int    // the segments it must drop whole, their header damaged
	badSnaps int    // the snapshot generations it must skip
}

// Run runs the sweeps and fails t at the first image recovery gets wrong.
//
//soclint:ignore unreached test support: the crash harness the registry and workflow crash tests run
func Run[T, S any](t *testing.T, c Case[T, S], sweeps ...Sweep) {
	t.Helper()
	for _, s := range sweeps {
		if err := c.Sweep(s); err != nil {
			t.Fatal(err)
		}
	}
}

// Sweep runs the script, then recovers from every image of s and returns
// the first failure.
//
//soclint:ignore unreached test support: the crash harness the registry and workflow crash tests run
func (c Case[T, S]) Sweep(s Sweep) error {
	r := &recorder{MemFS: wal.NewMemFS(1), bounds: map[string][]int{}}
	states, errs := make([]S, 1), []error{} // states[k]: after k records
	tn, err := c.Open(r)
	if err == nil {
		err = c.Script(tn, func(err error, st S) { states, errs = append(states, st), append(errs, err) })
	}
	err = errors.Join(append(errs, err)...)
	final := r.Durable()
	names, _ := final.List()
	snaps, newest := 0, 0
	for _, name := range names {
		if idx, ok := snapIndex(name); ok {
			snaps, newest = snaps+1, max(newest, idx)
		}
	}
	if err != nil || len(states)-1 != len(r.frames) || len(names)-snaps < 2 || snaps < 2 || newest >= len(r.frames) {
		return fmt.Errorf("script (err %v) acked %d records, synced %d, left %v: want two segments, two snapshots and records after the newest",
			err, len(states)-1, len(r.frames), names)
	}
	if s == PowerCut {
		for _, d := range r.cuts {
			if err := c.recover(states, d); err != nil {
				return err
			}
		}
		return nil
	}
	for _, name := range names {
		raw, _ := final.RawFile(name)
		last := len(raw) // Cut ends with the whole file, Flip at its last byte
		if s == Flip {
			last--
		}
		for off := 0; off <= last; off += max(c.Stride, 1) {
			damaged := raw[:off]
			if s == Flip {
				damaged = slices.Clone(raw)
				damaged[off] ^= 0x01
			}
			d := r.expect(names, s, name, off, len(raw))
			d.img = final.Durable()
			d.img.WriteDurable(name, damaged)
			if err := c.recover(states, d); err != nil {
				return err
			}
		}
	}
	return nil
}

// recover holds d's image to d: first the bare log, opened on a copy, then
// a tenant opened on the image itself.
//
//soclint:ignore unreached test support: the crash harness the registry and workflow crash tests run
func (c Case[T, S]) recover(states []S, d damage) error {
	l, rec, logErr := wal.Open(d.img.Durable(), wal.Options{})
	tn, err := c.Open(d.img)
	if d.gap != "" {
		for _, err := range []error{logErr, err} {
			if !errors.Is(err, wal.ErrGap) || !strings.Contains(err.Error(), d.gap) {
				return fmt.Errorf("%s: open err = %v, want a gap naming %s", d.where, err, d.gap)
			}
		}
		return nil
	}
	if err = errors.Join(err, logErr); err == nil {
		// The log's salvage report accounts for exactly the damage, and
		// the log stays writable, its next record right after the prefix.
		info := rec.Info
		switch idx, aerr := l.Append(nil); {
		case info.DroppedBytes != d.dropped || info.DroppedSegments != d.badSegs || info.BadSnapshots != d.badSnaps ||
			info.Salvaged != (d.dropped > 0 || d.badSnaps > 0):
			err = fmt.Errorf("log recovery %s, want dropped=%d dropsegs=%d badsnaps=%d", info, d.dropped, d.badSegs, d.badSnaps)
		case aerr != nil || idx != uint64(d.acked)+1:
			err = fmt.Errorf("post-recovery append = %d, %v; want index %d", idx, aerr, d.acked+1)
		default:
			err = c.Check(tn, states[d.acked])
		}
	}
	if err != nil {
		return fmt.Errorf("%s: %w", d.where, err)
	}
	return nil
}

// expect works out what recovery must make of the final image with file
// damaged at off. A segment holds a record whose frame ends at or before
// the damage; the newest intact snapshot holds every record up to its
// index.
//
//soclint:ignore unreached test support: the crash harness the registry and workflow crash tests run
func (r *recorder) expect(names []string, s Sweep, file string, off, size int) damage {
	d := damage{where: fmt.Sprintf("%s %s@%d", s, file, off)}
	intact := func(name string) bool { return name != file || s == Cut && off == size }
	newest := 0
	for _, name := range names {
		if idx, ok := snapIndex(name); ok && intact(name) {
			newest = max(newest, idx)
		}
	}
	held := func(i int) bool {
		f := r.frames[i-1]
		return i <= newest || slices.Contains(names, f.seg) && (f.seg != file || f.end <= off)
	}
	for d.acked < len(r.frames) && held(d.acked+1) {
		d.acked++
	}
	for next := d.acked + 2; next <= len(r.frames) && d.gap == ""; next++ {
		if held(next) {
			d.gap = fmt.Sprintf("records %d..%d", d.acked+1, next-1)
		}
	}
	if idx, ok := snapIndex(file); ok && !intact(file) && idx > newest {
		d.badSnaps = 1
	}
	// A damaged segment keeps its bytes up to its last sync at or before
	// the damage, the header's included; recovery drops the rest, and the
	// whole segment when the damage is in its header.
	if bounds := r.bounds[file]; len(bounds) > 0 {
		keep := 0
		for _, b := range bounds {
			if b <= off {
				keep = b
			}
		}
		d.dropped = int64(off - keep)
		if s == Flip {
			d.dropped = int64(size - keep)
		}
		if keep == 0 && d.dropped > 0 {
			d.badSegs = 1
		}
	}
	return d
}

// EnvInt reads an integer knob of at least least from the environment,
// or returns def when it is unset.
//
//soclint:ignore unreached test support: the crash harness the registry and workflow crash tests run
func EnvInt(t *testing.T, name string, def, least int) int {
	t.Helper()
	env := os.Getenv(name)
	if env == "" {
		return def
	}
	v, err := strconv.Atoi(env)
	if err != nil || v < least {
		t.Fatalf("%s=%q: want an integer of at least %d", name, env, least)
	}
	return v
}

//soclint:ignore unreached test support: the crash harness the registry and workflow crash tests run
func snapIndex(name string) (int, bool) {
	var idx int
	_, err := fmt.Sscanf(name, "snap-%016x.snap", &idx)
	return idx, err == nil
}

// recorder is the disk a script runs on: it notes where each acked
// record's frame ends, and the power-cut image after every operation.
type recorder struct {
	*wal.MemFS
	frames []frame          // frames[i]: where record i+1 ends
	bounds map[string][]int // per segment, its size at each sync
	cuts   []damage         // the power-cut image after each operation
}

type frame struct {
	seg string
	end int
}

func (r *recorder) op(err error, what string) error {
	where := fmt.Sprintf("power cut after op %d (%s)", len(r.cuts)+1, what)
	r.cuts = append(r.cuts, damage{img: r.Durable(), where: where, acked: len(r.frames)})
	return err
}

func (r *recorder) Create(name string) (wal.File, error) {
	f, err := r.MemFS.Create(name)
	return &file{File: f, r: r, name: name}, r.op(err, "create "+name)
}

func (r *recorder) Rename(from, to string) error { return r.op(r.MemFS.Rename(from, to), "rename "+to) }
func (r *recorder) Remove(name string) error     { return r.op(r.MemFS.Remove(name), "remove "+name) }
func (r *recorder) SyncDir() error               { return r.op(r.MemFS.SyncDir(), "syncdir") }

type file struct {
	wal.File
	r    *recorder
	name string
}

func (f *file) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	return n, f.r.op(err, "write "+f.name)
}

func (f *file) Close() error { return f.r.op(f.File.Close(), "close "+f.name) }

// Sync of a segment covers its header the first time, and acks the record
// whose frame it holds every time after.
func (f *file) Sync() error {
	err := f.File.Sync()
	if raw, _ := f.r.RawFile(f.name); strings.HasSuffix(f.name, ".log") {
		if len(f.r.bounds[f.name]) > 0 {
			f.r.frames = append(f.r.frames, frame{seg: f.name, end: len(raw)})
		}
		f.r.bounds[f.name] = append(f.r.bounds[f.name], len(raw))
	}
	return f.r.op(err, "sync "+f.name)
}
