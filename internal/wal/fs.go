package wal

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
)

// File is the write side of one log or snapshot file. The engine's
// durability contract leans on exactly three operations beyond Write:
// Sync (fsync — everything written so far survives a crash), Truncate
// (roll a partially written frame back) and Close.
type File interface {
	io.Writer
	// Sync makes every byte written so far durable.
	Sync() error
	// Truncate cuts the file back to size bytes.
	Truncate(size int64) error
	// Close releases the handle. It does NOT imply Sync.
	Close() error
}

// FS is the flat directory a Log lives in. Implementations: OSFS (a real
// directory) and MemFS (deterministic in-memory disk with simulated
// crashes). Names never contain path separators.
type FS interface {
	// Create opens name for writing, truncating any existing file.
	Create(name string) (File, error)
	// ReadFile returns the full current contents of name.
	ReadFile(name string) ([]byte, error)
	// Rename atomically replaces newname with oldname's file.
	Rename(oldname, newname string) error
	// Remove deletes name.
	Remove(name string) error
	// List returns the sorted file names present.
	List() ([]string, error)
	// SyncDir makes the directory's name set (creates, renames, removes)
	// durable — the fsync-the-parent step of the atomic-rename idiom.
	SyncDir() error
}

// OSFS is an FS over a real directory.
type OSFS struct {
	dir string
}

// NewOSFS returns an FS rooted at dir, creating it if needed.
func NewOSFS(dir string) (*OSFS, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: creating %s: %w", dir, err)
	}
	return &OSFS{dir: dir}, nil
}

// Create implements FS.
func (o *OSFS) Create(name string) (File, error) {
	return os.Create(filepath.Join(o.dir, name))
}

// ReadFile implements FS.
func (o *OSFS) ReadFile(name string) ([]byte, error) {
	return os.ReadFile(filepath.Join(o.dir, name))
}

// Rename implements FS. Content durability is the caller's job: the
// engine always Syncs file bytes before renaming and SyncDirs after.
func (o *OSFS) Rename(oldname, newname string) error {
	//soclint:ignore fsyncdiscipline thin FS adapter: the Log syncs file contents before any rename and fsyncs the directory afterwards
	return os.Rename(filepath.Join(o.dir, oldname), filepath.Join(o.dir, newname))
}

// Remove implements FS.
func (o *OSFS) Remove(name string) error {
	return os.Remove(filepath.Join(o.dir, name))
}

// List implements FS.
func (o *OSFS) List() ([]string, error) {
	entries, err := os.ReadDir(o.dir)
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() {
			out = append(out, e.Name())
		}
	}
	sort.Strings(out)
	return out, nil
}

// SyncDir implements FS by fsyncing the directory fd.
func (o *OSFS) SyncDir() error {
	d, err := os.Open(o.dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// WriteFileAtomic writes data to path so a crash at any instant leaves
// either the old contents or the new, never a truncated mix: write to a
// temp file in the same directory, fsync it, rename over path, fsync the
// directory. It is the sanctioned whole-file write of every durable path
// in this module (the fsyncdiscipline analyzer forbids bare os.WriteFile
// there).
func WriteFileAtomic(path string, data []byte, perm fs.FileMode) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("wal: temp file for %s: %w", path, err)
	}
	tmpName := tmp.Name()
	cleanup := func() {
		//soclint:ignore errdiscard best-effort temp-file cleanup; the original error is what matters
		_ = os.Remove(tmpName)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		cleanup()
		return fmt.Errorf("wal: writing %s: %w", path, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		cleanup()
		return fmt.Errorf("wal: syncing %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		cleanup()
		return fmt.Errorf("wal: closing %s: %w", path, err)
	}
	if err := os.Chmod(tmpName, perm); err != nil {
		cleanup()
		return fmt.Errorf("wal: chmod %s: %w", path, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		cleanup()
		return fmt.Errorf("wal: replacing %s: %w", path, err)
	}
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: opening dir of %s: %w", path, err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("wal: syncing dir of %s: %w", path, err)
	}
	return nil
}
