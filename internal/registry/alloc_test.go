//go:build !race

package registry

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"soc/internal/wal"
)

// TestSearchAllocCeiling pins the per-query allocation budget of a
// ranked keyword lookup. Before the inverted index, every query
// re-tokenized the whole corpus (tens of allocations per entry); with
// the index, query cost is bounded by the matching postings.
func TestSearchAllocCeiling(t *testing.T) {
	r := New()
	for i := 0; i < 50; i++ {
		err := r.Publish(Entry{
			Name:       fmt.Sprintf("Service%d", i),
			Namespace:  "urn:x",
			Doc:        fmt.Sprintf("sample keyword service number %d for testing", i),
			Category:   "testing/sample",
			Endpoint:   "http://example.invalid",
			Operations: []string{"DoWork", "GetStatus"},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		matches, err := r.Search("keyword status", 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(matches) != 5 {
			t.Fatalf("got %d matches", len(matches))
		}
	})
	// Budget: the scores map, the match slice (50 entries match), and
	// sort machinery — but nothing proportional to corpus tokenization.
	// Measured 12, given 10 %.
	if allocs > 13 {
		t.Errorf("Search allocates %.1f/op, ceiling 13", allocs)
	}
}

// TestMutationAllocCeiling pins what a write costs on a 2,000-entry
// directory. A mutation changes only the entry and the postings it
// touches, so a lease renewal allocates nothing and a re-registration
// allocates only for its own entry: the copy, its tokens and its
// term-frequency vector — nothing that grows with the directory.
func TestMutationAllocCeiling(t *testing.T) {
	r := New()
	for i := 0; i < 2000; i++ {
		if err := r.Publish(testEntry(fmt.Sprintf("Svc%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	heartbeat := testing.AllocsPerRun(100, func() {
		if err := r.Heartbeat("Svc1000"); err != nil {
			t.Fatal(err)
		}
	})
	if heartbeat != 0 {
		t.Errorf("Heartbeat allocates %.1f/op at 2,000 entries, want 0", heartbeat)
	}
	e := testEntry("Svc1000")
	publish := testing.AllocsPerRun(100, func() {
		if err := r.Publish(e); err != nil {
			t.Fatal(err)
		}
	})
	// Measured 29, given 10 %.
	if publish > 32 {
		t.Errorf("re-registering Publish allocates %.1f/op at 2,000 entries, ceiling 32", publish)
	}
}

// TestRecoverAllocCeiling pins recovery as linear in the directory:
// reopening a durable directory of 2,000 entries allocates at most 1.5×
// the bytes per restored entry of a 500-entry one. A recovery that
// rebuilt or copied the directory per restored entry would grow the
// per-entry figure with the directory. Measured 0.96×.
func TestRecoverAllocCeiling(t *testing.T) {
	small, large := reopenBytesPerEntry(t, 500), reopenBytesPerEntry(t, 2000)
	if large > 1.5*small {
		t.Errorf("reopening allocates %.0f B per entry at 2,000 entries, %.0f B at 500 (%.2f×, ceiling 1.5×)",
			large, small, large/small)
	}
}

// reopenBytesPerEntry seeds a durable MemFS directory with n entries,
// closes it, and returns the bytes allocated per entry by reopening it.
func reopenBytesPerEntry(t *testing.T, n int) float64 {
	t.Helper()
	fs := wal.NewMemFS(1)
	now, _ := simClock(time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC))
	d, err := OpenDurable(fs, DurableOptions{}, WithClock(now))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := d.Publish(testEntry(fmt.Sprintf("Svc%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d, err = OpenDurable(fs, DurableOptions{}, WithClock(now))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Len(); got != n {
		t.Fatalf("reopened %d entries, want %d", got, n)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}
