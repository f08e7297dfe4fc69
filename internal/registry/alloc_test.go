//go:build !race

package registry

import (
	"fmt"
	"testing"
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
