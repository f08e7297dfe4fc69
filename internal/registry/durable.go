package registry

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"soc/internal/wal"
)

// A walRecord is one logged mutation. Publish carries the fully resolved
// entry (Published and LeaseExpires included) and renew the exact expiry,
// so replay is verbatim — no clock reads during recovery, which keeps
// recovered state deterministic.
type walRecord struct {
	Op      string    `json:"op"` // "publish", "unpublish" or "renew"
	Entry   *Entry    `json:"entry,omitempty"`
	Name    string    `json:"name,omitempty"`
	Expires time.Time `json:"expires,omitempty"`
}

// DurableOptions tunes the persistence side of a DurableRegistry.
type DurableOptions struct {
	// WAL tunes the underlying log (segment size, snapshot retention).
	WAL wal.Options
	// SnapshotEvery folds the log into a snapshot (and compacts) after
	// this many appended records. 0 means 64; negative disables automatic
	// snapshots.
	SnapshotEvery int
}

// DurableRegistry is a Registry whose mutations survive crashes: every
// publish, unpublish, heartbeat and eviction is a record of a
// wal.Machine, appended (and fsynced) BEFORE it is applied in memory, so
// an acknowledged mutation is on disk by the time the caller sees it
// succeed — the acked ⇒ durable contract the simulation harness
// verifies. Reads are the embedded Registry's. Periodically the whole
// directory is folded into a snapshot and the log compacted.
type DurableRegistry struct {
	*Registry

	// wmu serializes mutators so the log order equals the apply order.
	wmu sync.Mutex
	m   *wal.Machine[walRecord, []Entry]
}

// OpenDurable recovers (or initializes) a durable registry from fs. The
// registry options apply to the in-memory directory as usual; recovered
// state is replayed verbatim from the newest intact snapshot plus the log
// suffix, salvaging torn tails.
func OpenDurable(fs wal.FS, dopts DurableOptions, opts ...Option) (*DurableRegistry, error) {
	d := &DurableRegistry{Registry: New(opts...)}
	m, err := wal.OpenMachine(fs, dopts.WAL, dopts.SnapshotEvery, wal.Handler[walRecord, []Entry]{
		Apply:   d.apply,
		Restore: d.restoreAll,
		State:   func() []Entry { return d.Registry.List(false) },
	})
	if err != nil {
		return nil, fmt.Errorf("registry: opening wal: %w", err)
	}
	d.m = m
	return d, nil
}

func (d *DurableRegistry) restoreAll(entries []Entry) error {
	for _, e := range entries {
		if err := d.Registry.restore(e); err != nil {
			return fmt.Errorf("registry: restoring %q: %w", e.Name, err)
		}
	}
	return nil
}

// apply installs one logged mutation. A missing entry is no error: a
// snapshot taken after an unpublish or renew already reflects it.
func (d *DurableRegistry) apply(wr walRecord) error {
	var err error
	switch wr.Op {
	case "publish":
		if wr.Entry == nil {
			return fmt.Errorf("%w: publish record without entry", ErrInvalid)
		}
		err = d.Registry.restore(*wr.Entry)
	case "unpublish":
		err = d.Registry.Unpublish(wr.Name)
	case "renew":
		err = d.Registry.setLease(wr.Name, wr.Expires)
	default:
		return fmt.Errorf("%w: unknown wal op %q", ErrInvalid, wr.Op)
	}
	if errors.Is(err, ErrNotFound) {
		return nil
	}
	return err
}

// commit logs one mutation, applies it, and offers a snapshot. Callers
// hold wmu.
func (d *DurableRegistry) commit(wr walRecord) error {
	if err := d.m.Append(wr); err != nil {
		return fmt.Errorf("registry: logging %s: %w", wr.Op, err)
	}
	d.m.MaybeSnapshot()
	return nil
}

// Publish logs the resolved entry, then installs it. The entry is on
// disk before Publish returns nil.
func (d *DurableRegistry) Publish(e Entry) error {
	d.wmu.Lock()
	defer d.wmu.Unlock()
	resolved, err := d.Registry.prepare(e)
	if err != nil {
		return err
	}
	return d.commit(walRecord{Op: "publish", Entry: &resolved})
}

// Unpublish logs the removal, then applies it.
func (d *DurableRegistry) Unpublish(name string) error {
	d.wmu.Lock()
	defer d.wmu.Unlock()
	if _, err := d.Registry.Get(name); err != nil {
		return err
	}
	return d.commit(walRecord{Op: "unpublish", Name: name})
}

// Heartbeat logs the exact renewed expiry, then applies it.
func (d *DurableRegistry) Heartbeat(name string) error {
	d.wmu.Lock()
	defer d.wmu.Unlock()
	if _, err := d.Registry.Get(name); err != nil {
		return err
	}
	expires := d.Registry.now().Add(d.Registry.lease)
	return d.commit(walRecord{Op: "renew", Name: name, Expires: expires})
}

// Evict removes entries whose lease lapsed more than grace ago, logging
// one unpublish record per name before applying it, so an eviction
// survives a restart. It returns the evicted names, sorted; a failed
// append stops the sweep, and the names it did not reach stay for a
// later call.
func (d *DurableRegistry) Evict(grace time.Duration) []string {
	d.wmu.Lock()
	defer d.wmu.Unlock()
	now := d.Registry.now()
	var evicted []string
	for _, e := range d.Registry.List(false) {
		if now.Sub(e.LeaseExpires) <= grace {
			continue
		}
		if err := d.commit(walRecord{Op: "unpublish", Name: e.Name}); err != nil {
			break
		}
		evicted = append(evicted, e.Name)
	}
	return evicted
}

// Snapshot forces a snapshot + compaction now.
func (d *DurableRegistry) Snapshot() error {
	d.wmu.Lock()
	defer d.wmu.Unlock()
	return d.m.Snapshot()
}

// Recovery reports what the opening recovery found (snapshot index,
// replayed records, salvage decisions).
func (d *DurableRegistry) Recovery() wal.RecoveryInfo { return d.m.Recovery() }

// Close seals the log. The directory stays readable.
func (d *DurableRegistry) Close() error {
	d.wmu.Lock()
	defer d.wmu.Unlock()
	return d.m.Close()
}
