package main

import (
	"strings"
	"sync/atomic"

	"soc/internal/wal"
)

// tracedFS decorates the wal.FS a durable subsystem writes through: a span
// per Write, Sync, SyncDir, Rename and Create, and byte counts split by
// what the file is (log segment or snapshot). It is the only view of the
// disk the benchmark has that does not need a hook inside internal/wal.
type tracedFS struct {
	wal.FS
	rec                     *recorder
	logBytes, snapshotBytes atomic.Int64
	segments                atomic.Int64
}

func newTracedFS(fs wal.FS, rec *recorder) *tracedFS { return &tracedFS{FS: fs, rec: rec} }

func (t *tracedFS) Create(name string) (wal.File, error) {
	id := t.rec.begin(layerCreate)
	f, err := t.FS.Create(name)
	t.rec.end(id)
	if err != nil {
		return nil, err
	}
	bytes := &t.snapshotBytes
	if strings.HasPrefix(name, "wal-") {
		t.segments.Add(1)
		bytes = &t.logBytes
	}
	return &tracedFile{File: f, rec: t.rec, bytes: bytes}, nil
}

func (t *tracedFS) Rename(oldname, newname string) error {
	id := t.rec.begin(layerRename)
	defer t.rec.end(id)
	return t.FS.Rename(oldname, newname)
}

func (t *tracedFS) SyncDir() error {
	id := t.rec.begin(layerDirSync)
	defer t.rec.end(id)
	return t.FS.SyncDir()
}

type tracedFile struct {
	wal.File
	rec   *recorder
	bytes *atomic.Int64
}

func (f *tracedFile) Write(p []byte) (int, error) {
	id := f.rec.begin(layerWrite)
	n, err := f.File.Write(p)
	f.rec.end(id)
	f.bytes.Add(int64(n))
	return n, err
}

func (f *tracedFile) Sync() error {
	id := f.rec.begin(layerSync)
	defer f.rec.end(id)
	return f.File.Sync()
}

// dirBytes sums the sizes of the files left in fs.
func dirBytes(fs wal.FS) (int64, error) {
	names, err := fs.List()
	if err != nil {
		return 0, err
	}
	var total int64
	for _, name := range names {
		data, err := fs.ReadFile(name)
		if err != nil {
			return 0, err
		}
		total += int64(len(data))
	}
	return total, nil
}

func (t *tracedFS) counts(out map[string]float64) {
	if n, err := dirBytes(t.FS); err == nil {
		out["abs.wal.dir_bytes"] = float64(n)
	}
	out["wal.log_bytes"] = float64(t.logBytes.Load())
	out["wal.snapshot_bytes"] = float64(t.snapshotBytes.Load())
	out["wal.segments_created"] = float64(t.segments.Load())
}

// walLayers are the log's per-layer metrics on the durable workloads.
func walLayers(b budget, counts map[string]float64, ops float64, vals map[string]float64) {
	vals["wal.self_us"] = b.perOp(b.self[layerWrite] + b.self[layerSync] + b.self[layerDirSync] + b.self[layerRename] + b.self[layerCreate])
	vals["wal.fsyncs_per_op"] = float64(b.calls[layerSync]) / ops
	vals["wal.fsync_us"] = b.perCall(layerSync)
	vals["wal.write_us"] = b.perCall(layerWrite)
	vals["wal.dirsync_us"] = b.perCall(layerDirSync)
	vals["wal.bytes_per_op"] = counts["wal.log_bytes"] / ops
	vals["wal.snapshot_bytes_per_op"] = counts["wal.snapshot_bytes"] / ops
	vals["wal.segments_created"] = counts["wal.segments_created"]
	vals["wal.dir_bytes_at_end"] = counts["abs.wal.dir_bytes"]
}
