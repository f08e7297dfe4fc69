package faultinject

import (
	"fmt"

	"soc/internal/wal"
)

// DiskRule is the fault plan for a simulated disk. All rates are
// probabilities in [0, 1] evaluated independently per operation.
type DiskRule struct {
	// WriteErrorRate fails a Write outright: no bytes reach the file.
	WriteErrorRate float64
	// ShortWriteRate persists a strict prefix of the buffer and then
	// errors — the torn write a full disk or interrupted syscall leaves.
	ShortWriteRate float64
	// SyncErrorRate fails a Sync: data already written stays unsynced, so
	// a later crash may tear it.
	SyncErrorRate float64
}

func (r DiskRule) validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"WriteErrorRate", r.WriteErrorRate},
		{"ShortWriteRate", r.ShortWriteRate},
		{"SyncErrorRate", r.SyncErrorRate},
	} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("faultinject: %s %v out of [0,1]", p.name, p.v)
		}
	}
	return nil
}

func (r DiskRule) zero() bool {
	return r.WriteErrorRate == 0 && r.ShortWriteRate == 0 && r.SyncErrorRate == 0
}

// DiskPlan seeds a DiskRule, mirroring Plan for the HTTP bindings.
type DiskPlan struct {
	// Seed makes the fault sequence reproducible.
	Seed int64
	// Rule applies to every file of every wrapped FS.
	Rule DiskRule
}

// DiskInjector perturbs wal.FS implementations deterministically: the
// decision for the n-th write (or sync) of a named file is a pure
// function of (seed, name, n), from the same ledger as Injector's — so
// a fixed seed replays the same disk faults regardless of interleaving.
// Its counters (Counts) are keyed "file|outcome", where outcome is
// pass, werror, short or syncerror. Safe for concurrent use.
type DiskInjector struct {
	rule DiskRule

	ledger
}

// NewDisk returns a disk injector for the plan.
func NewDisk(plan DiskPlan) (*DiskInjector, error) {
	if err := plan.Rule.validate(); err != nil {
		return nil, err
	}
	return &DiskInjector{rule: plan.Rule, ledger: ledger{seed: plan.Seed}}, nil
}

// FS wraps base so every file written through it draws from the fault
// plan. Reads and namespace operations pass through untouched: the model
// faults the write path (where durability is earned), never recovery.
func (di *DiskInjector) FS(base wal.FS) wal.FS {
	return &faultFS{di: di, base: base}
}

// diskOutcome is one disk operation's resolved fault.
type diskOutcome struct {
	kind string // "pass", "werror", "short", "syncerror"
	keep int    // for "short": how many bytes persist
}

// decide resolves the fault for the next operation on key ("name|write"
// or "name|sync"), drawing from that call's ledger PRNG.
func (di *DiskInjector) decide(key string, bufLen int) diskOutcome {
	r := di.rule
	n := di.next(key)
	if r.zero() {
		di.count(key, "pass")
		return diskOutcome{kind: "pass"}
	}

	rng := di.rng(key, n)
	d := diskOutcome{kind: "pass"}
	switch {
	case bufLen >= 0 && r.WriteErrorRate > 0 && rng.Float64() < r.WriteErrorRate:
		d.kind = "werror"
	case bufLen >= 0 && r.ShortWriteRate > 0 && rng.Float64() < r.ShortWriteRate:
		d.kind = "short"
		if bufLen > 0 {
			d.keep = rng.Intn(bufLen) // strict prefix: 0..bufLen-1 bytes land
		}
	case bufLen < 0 && r.SyncErrorRate > 0 && rng.Float64() < r.SyncErrorRate:
		d.kind = "syncerror"
	}
	di.count(key, d.kind)
	return d
}

type faultFS struct {
	di   *DiskInjector
	base wal.FS
}

func (f *faultFS) Create(name string) (wal.File, error) {
	file, err := f.base.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{di: f.di, name: name, base: file}, nil
}

func (f *faultFS) ReadFile(name string) ([]byte, error) { return f.base.ReadFile(name) }
func (f *faultFS) Rename(oldname, newname string) error { return f.base.Rename(oldname, newname) }
func (f *faultFS) Remove(name string) error             { return f.base.Remove(name) }
func (f *faultFS) List() ([]string, error)              { return f.base.List() }
func (f *faultFS) SyncDir() error                       { return f.base.SyncDir() }

type faultFile struct {
	di   *DiskInjector
	name string
	base wal.File
}

func (f *faultFile) Write(p []byte) (int, error) {
	d := f.di.decide(f.name+"|write", len(p))
	switch d.kind {
	case "werror":
		return 0, fmt.Errorf("faultinject: injected write error on %s", f.name)
	case "short":
		n, err := f.base.Write(p[:d.keep])
		if err != nil {
			return n, err
		}
		return n, fmt.Errorf("faultinject: injected short write on %s: %d of %d bytes", f.name, n, len(p))
	}
	return f.base.Write(p)
}

func (f *faultFile) Sync() error {
	d := f.di.decide(f.name+"|sync", -1)
	if d.kind == "syncerror" {
		return fmt.Errorf("faultinject: injected sync error on %s", f.name)
	}
	return f.base.Sync()
}

func (f *faultFile) Truncate(size int64) error { return f.base.Truncate(size) }
func (f *faultFile) Close() error              { return f.base.Close() }
