package registry

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"soc/internal/wal"
	"soc/internal/wal/waltest"
)

// registryCase is the durable registry's crash-point corpus: publishes,
// heartbeats, unpublishes and a two-record eviction, every image of which
// must open to exactly the directory of its acked prefix.
func registryCase() waltest.Case[*DurableRegistry, []Entry] {
	now, advance := simClock(time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC))
	return waltest.Case[*DurableRegistry, []Entry]{
		Open: func(fs wal.FS) (*DurableRegistry, error) {
			return OpenDurable(fs, DurableOptions{SnapshotEvery: 3, WAL: wal.Options{SegmentBytes: 64}}, WithClock(now), WithLease(time.Hour))
		},
		Script: func(d *DurableRegistry, ack func(error, []Entry)) error {
			for _, name := range []string{"Alpha", "Beta", "Gamma", "Delta"} {
				ack(d.Publish(testEntry(name)), d.List(false))
			}
			advance(10 * time.Minute)
			ack(d.Heartbeat("Beta"), d.List(false))
			ack(d.Unpublish("Delta"), d.List(false))
			advance(10 * time.Minute)
			ack(d.Publish(testEntry("Epsilon")), d.List(false))
			advance(10 * time.Minute)
			ack(d.Heartbeat("Alpha"), d.List(false))
			ack(d.Publish(testEntry("Zeta")), d.List(false))
			ack(d.Unpublish("Gamma"), d.List(false))
			advance(55 * time.Minute) // Beta and Epsilon lapse; Alpha and Zeta stay live
			before := d.List(false)
			if evicted := d.Evict(0); !slices.Equal(evicted, []string{"Beta", "Epsilon"}) {
				return fmt.Errorf("Evict = %v, want [Beta Epsilon]", evicted)
			}
			// One unpublish record per evicted name: the state between them
			// is an acked prefix too.
			ack(nil, slices.DeleteFunc(before, func(e Entry) bool { return e.Name == "Beta" }))
			ack(nil, d.List(false))
			advance(time.Minute)
			ack(d.Heartbeat("Alpha"), d.List(false))
			ack(d.Publish(testEntry("Eta")), d.List(false))
			return nil
		},
		Check: func(d *DurableRegistry, want []Entry) error {
			if got := d.List(false); !slices.EqualFunc(got, want, entriesEqual) {
				return fmt.Errorf("recovered %+v, want the acked prefix %+v (recovery %s)", got, want, d.Recovery())
			}
			return nil
		},
	}
}

func TestCrashRegistryTruncation(t *testing.T) { waltest.Run(t, registryCase(), waltest.Cut) }

func TestCrashRegistryBitFlip(t *testing.T) { waltest.Run(t, registryCase(), waltest.Flip) }

func TestCrashRegistryPowerCut(t *testing.T) { waltest.Run(t, registryCase(), waltest.PowerCut) }
