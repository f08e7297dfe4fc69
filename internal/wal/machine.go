package wal

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Handler connects a Machine to the in-memory state it keeps durable.
// R is the record type and S the snapshot payload, both JSON-encoded.
// Apply and State run under the machine's commit lock, so they must not
// call back into the machine.
type Handler[R, S any] struct {
	// Apply installs one record, once its append is acknowledged and,
	// during recovery, in index order.
	Apply func(R) error
	// Restore installs a recovered snapshot before the suffix replays.
	Restore func(S) error
	// State collects the whole state through the last applied record.
	State func() S
}

// Machine is the write-ahead state machine every durable tenant of the
// log shares. A record is appended (fsynced) before Apply installs it,
// so the in-memory state is exactly the acked log; every snapshotEvery
// appends the whole state folds into a snapshot; recovery restores the
// newest intact snapshot and replays the suffix after it.
type Machine[R, S any] struct {
	log   *Log
	h     Handler[R, S]
	every int
	info  RecoveryInfo

	// commit is held shared from an append through its Apply, and
	// exclusively from collecting State through writing the snapshot. A
	// snapshot covers every record up to its index, so a record acked but
	// not yet applied when State ran would be lost to it.
	commit sync.RWMutex
	since  atomic.Int64 // appends since the last snapshot
}

// OpenMachine recovers the log in fs into h: Restore gets the newest
// intact snapshot, then Apply gets every record after it. snapshotEvery
// is the snapshot cadence in appends: 0 means 64, negative turns
// cadence snapshots off. A snapshot or record that fails to decode or
// install fails the open, naming the record, and closes the log.
func OpenMachine[R, S any](fs FS, opts Options, snapshotEvery int, h Handler[R, S]) (*Machine[R, S], error) {
	if snapshotEvery == 0 {
		snapshotEvery = 64
	}
	log, rec, err := Open(fs, opts)
	if err != nil {
		return nil, err
	}
	if err := replay(rec, h); err != nil {
		return nil, errors.Join(err, log.Close())
	}
	return &Machine[R, S]{log: log, h: h, every: snapshotEvery, info: rec.Info}, nil
}

func replay[R, S any](rec *Recovery, h Handler[R, S]) error {
	if rec.Snapshot != nil {
		var s S
		if err := json.Unmarshal(rec.Snapshot, &s); err != nil {
			return fmt.Errorf("wal: decoding snapshot %d: %w", rec.Info.SnapshotIndex, err)
		}
		if err := h.Restore(s); err != nil {
			return fmt.Errorf("wal: restoring snapshot %d: %w", rec.Info.SnapshotIndex, err)
		}
	}
	for _, r := range rec.Records {
		var v R
		if err := json.Unmarshal(r.Data, &v); err != nil {
			return fmt.Errorf("wal: decoding record %d: %w", r.Index, err)
		}
		if err := h.Apply(v); err != nil {
			return fmt.Errorf("wal: replaying record %d: %w", r.Index, err)
		}
	}
	return nil
}

// Append logs r durably and then applies it. An append error comes back
// as the log returned it and nothing is applied; an Apply error comes
// back after the record is already durable.
func (m *Machine[R, S]) Append(r R) error {
	data, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("wal: encoding record: %w", err)
	}
	m.commit.RLock()
	defer m.commit.RUnlock()
	if _, err := m.log.Append(data); err != nil {
		return err
	}
	m.since.Add(1)
	return m.h.Apply(r)
}

// MaybeSnapshot takes a snapshot once the cadence is due. It is best
// effort: a failed snapshot loses nothing, because the log keeps every
// segment until a snapshot installs, and the count stays due, so the
// offer after the next append retries.
func (m *Machine[R, S]) MaybeSnapshot() {
	if m.every <= 0 || m.since.Load() < int64(m.every) {
		return
	}
	m.commit.Lock()
	defer m.commit.Unlock()
	if m.since.Load() < int64(m.every) {
		return // a concurrent offer took it while this one waited
	}
	if err := m.snapshotLocked(); err != nil {
		return // best effort, see above
	}
}

// Snapshot folds the whole state into a snapshot now and compacts.
//
//soclint:ignore unreached test support: the workflow crash corpus and the registry golden bytes cut a snapshot at a chosen record
func (m *Machine[R, S]) Snapshot() error {
	m.commit.Lock()
	defer m.commit.Unlock()
	return m.snapshotLocked()
}

func (m *Machine[R, S]) snapshotLocked() error {
	data, err := json.Marshal(m.h.State())
	if err != nil {
		return fmt.Errorf("wal: encoding snapshot: %w", err)
	}
	if err := m.log.Snapshot(data); err != nil {
		return err
	}
	m.since.Store(0)
	return nil
}

// Recovery reports what the opening recovery found.
func (m *Machine[R, S]) Recovery() RecoveryInfo { return m.info }

// Close seals the log.
func (m *Machine[R, S]) Close() error { return m.log.Close() }
