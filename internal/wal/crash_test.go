package wal_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"soc/internal/wal"
	"soc/internal/wal/waltest"
)

// crashTenant is machine_test.go's tenant with the machine it runs under.
type crashTenant struct {
	m  *wal.Machine[string, []string]
	tn *tenant
}

// listCase is the log's own crash case: n appends to the tenant, a segment
// per record and a snapshot every 3, so n ≥ 7 leaves the image a
// waltest.Case needs. handler makes the machine's handler, so a test can
// break it.
func listCase(n int, handler func(*tenant) wal.Handler[string, []string]) waltest.Case[crashTenant, []string] {
	return waltest.Case[crashTenant, []string]{
		Open: func(fs wal.FS) (crashTenant, error) {
			tn := &tenant{}
			m, err := wal.OpenMachine(fs, wal.Options{SegmentBytes: 30}, 3, handler(tn))
			return crashTenant{m, tn}, err
		},
		Script: func(c crashTenant, ack func(error, []string)) error {
			for i := 1; i <= n; i++ {
				// Offer the snapshot before the append, so the last record is
				// always after it; vary the lengths, so frame boundaries land
				// on odd offsets.
				c.m.MaybeSnapshot()
				ack(c.m.Append(fmt.Sprintf("record-%03d-%s", i, "xxxxx"[:i%5])), c.tn.state())
			}
			return nil
		},
		Check: func(c crashTenant, want []string) error {
			if got := c.tn.state(); !slices.Equal(got, want) {
				return fmt.Errorf("recovered %v, want %v", got, want)
			}
			return nil
		},
	}
}

// The log's crash-point corpus is listCase over WAL_CRASH_RECORDS appends
// (default 8; `make crash` raises it for a denser sweep).
func crashCase(t *testing.T) waltest.Case[crashTenant, []string] {
	return listCase(waltest.EnvInt(t, "WAL_CRASH_RECORDS", 8, 7), (*tenant).handler)
}

func TestCrashPointCorpusTruncation(t *testing.T) { waltest.Run(t, crashCase(t), waltest.Cut) }

func TestCrashPointCorpusBitFlip(t *testing.T) { waltest.Run(t, crashCase(t), waltest.Flip) }

func TestCrashPointCorpusPowerCut(t *testing.T) { waltest.Run(t, crashCase(t), waltest.PowerCut) }

// TestCrashHarnessSweepsSnapshots: a Restore that drops a key from the
// fallback snapshot generation shows only when the newest snapshot is
// damaged, so only a sweep that damages snapshot files fails it.
func TestCrashHarnessSweepsSnapshots(t *testing.T) {
	waltest.Run(t, listCase(8, (*tenant).handler), waltest.Cut, waltest.Flip, waltest.PowerCut)
	broken := listCase(8, func(tn *tenant) wal.Handler[string, []string] {
		h := tn.handler()
		restore := h.Restore
		h.Restore = func(s []string) error {
			if len(s) == 3 { // the snapshot at 3, the fallback once 6 exists
				s = s[1:]
			}
			return restore(s)
		}
		return h
	})
	for _, s := range []waltest.Sweep{waltest.Cut, waltest.Flip} {
		if err := broken.Sweep(s); err == nil || !strings.Contains(err.Error(), ".snap@") {
			t.Errorf("%s sweep over a Restore that drops a key: err = %v, want a failure on a snapshot file", s, err)
		}
	}
}
