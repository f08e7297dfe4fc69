package wal

import (
	"fmt"
	"io/fs"
	"math/rand"
	"sort"
	"sync"
)

// MemFS is a deterministic in-memory FS that models the two ways a real
// disk betrays a process that crashes:
//
//   - contents: each file tracks its durable prefix (everything up to the
//     last Sync). A crash keeps the durable prefix plus a seeded-random
//     prefix of the unsynced tail — the torn write — and may flip one bit
//     inside that torn region (a partially persisted sector).
//   - namespace: creates, renames and removes are pending until SyncDir.
//     A crash rolls the name set back to the last SyncDir.
//
// Everything random is drawn from one seeded generator, so a
// single-threaded caller replays the exact same disk from the same seed —
// which is what lets the simulation harness hash crash-recovery runs.
type MemFS struct {
	mu  sync.Mutex
	rng *rand.Rand
	cur map[string]*memFile // live namespace
	dur map[string]*memFile // namespace as of the last SyncDir
}

type memFile struct {
	data   []byte
	synced int // durable prefix length
}

// NewMemFS returns an empty deterministic disk.
func NewMemFS(seed int64) *MemFS {
	return &MemFS{
		rng: rand.New(rand.NewSource(seed)),
		cur: map[string]*memFile{},
		dur: map[string]*memFile{},
	}
}

// Create implements FS.
func (m *MemFS) Create(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := &memFile{}
	m.cur[name] = f
	return &memHandle{fs: m, f: f}, nil
}

// ReadFile implements FS.
func (m *MemFS) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.cur[name]
	if !ok {
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
	}
	return append([]byte(nil), f.data...), nil
}

// Rename implements FS.
func (m *MemFS) Rename(oldname, newname string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.cur[oldname]
	if !ok {
		return &fs.PathError{Op: "rename", Path: oldname, Err: fs.ErrNotExist}
	}
	m.cur[newname] = f
	delete(m.cur, oldname)
	return nil
}

// Remove implements FS.
func (m *MemFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.cur[name]; !ok {
		return &fs.PathError{Op: "remove", Path: name, Err: fs.ErrNotExist}
	}
	delete(m.cur, name)
	return nil
}

// List implements FS.
func (m *MemFS) List() ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.cur))
	for name := range m.cur {
		out = append(out, name)
	}
	sort.Strings(out)
	return out, nil
}

// SyncDir implements FS: the current name set becomes durable.
func (m *MemFS) SyncDir() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.dur = make(map[string]*memFile, len(m.cur))
	for name, f := range m.cur {
		m.dur[name] = f
	}
	return nil
}

// Crash simulates a power cut: the namespace rolls back to the last
// SyncDir, and every surviving file keeps its durable prefix plus a
// seeded-random prefix of whatever was written but not yet synced (the
// torn tail), with a 50% chance of one flipped bit inside the torn
// region. After Crash the disk state IS the durable state.
func (m *MemFS) Crash() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cur = make(map[string]*memFile, len(m.dur))
	for name, f := range m.dur {
		m.cur[name] = f
	}
	// Deterministic iteration order: sort the names before drawing from
	// the rng, or two runs of the same seed would tear different tails.
	names := make([]string, 0, len(m.cur))
	for name := range m.cur {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := m.cur[name]
		torn := len(f.data) - f.synced
		if torn <= 0 {
			f.data = f.data[:f.synced]
			f.synced = len(f.data)
			continue
		}
		keep := m.rng.Intn(torn + 1)
		f.data = f.data[:f.synced+keep]
		if keep > 0 && m.rng.Intn(2) == 0 {
			at := f.synced + m.rng.Intn(keep)
			f.data[at] ^= byte(1 << uint(m.rng.Intn(8)))
		}
		f.synced = len(f.data)
	}
}

// Durable returns the disk a power cut at this instant leaves when no
// unsynced byte survives: the namespace as of the last SyncDir, each file
// cut to its fsynced prefix. It is Crash without a torn tail, taken as a
// copy that shares nothing with m, which it leaves untouched.
func (m *MemFS) Durable() *MemFS {
	m.mu.Lock()
	defer m.mu.Unlock()
	img := NewMemFS(0)
	for name, f := range m.dur {
		c := &memFile{data: append([]byte(nil), f.data[:f.synced]...), synced: f.synced}
		img.cur[name], img.dur[name] = c, c
	}
	return img
}

// RawFile returns the current bytes of name, for tests and corruption
// injection.
func (m *MemFS) RawFile(name string) ([]byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.cur[name]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), f.data...), true
}

// WriteDurable installs name with data as fully synced content in a
// fully synced namespace — the state a file reaches after write + fsync +
// dir fsync. Tests use it to lay out on-disk scenarios byte-for-byte.
//
//soclint:ignore unreached test support: waltest lays out damaged disk images with it
func (m *MemFS) WriteDurable(name string, data []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := &memFile{data: append([]byte(nil), data...), synced: len(data)}
	m.cur[name] = f
	m.dur = make(map[string]*memFile, len(m.cur))
	for n, fl := range m.cur {
		m.dur[n] = fl
	}
}

type memHandle struct {
	fs *MemFS
	f  *memFile
}

// Write implements File: appends at the current end of the file.
func (h *memHandle) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	h.f.data = append(h.f.data, p...)
	return len(p), nil
}

// Sync implements File.
func (h *memHandle) Sync() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	h.f.synced = len(h.f.data)
	return nil
}

// Truncate implements File.
func (h *memHandle) Truncate(size int64) error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if size < 0 || size > int64(len(h.f.data)) {
		return fmt.Errorf("wal: truncate to %d of %d bytes", size, len(h.f.data))
	}
	h.f.data = h.f.data[:size]
	if h.f.synced > int(size) {
		h.f.synced = int(size)
	}
	return nil
}

// Close implements File.
func (h *memHandle) Close() error { return nil }
