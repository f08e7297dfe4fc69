//go:build !race

package respcache

import (
	"fmt"
	"net/http"
	"testing"
	"time"
)

// TestHitAllocCeiling: a warm hit — shard pick, lookup, expiry check,
// LRU touch, hit count — allocates nothing, across a spread of keys so
// every shard is visited. Measured 0.
func TestHitAllocCeiling(t *testing.T) {
	c := New(256, time.Hour)
	entry := &Entry{Status: 200, Header: http.Header{"Content-Type": {"application/json"}}, Body: []byte(`{"ok":true}`)}
	fill := func() (*Entry, bool) { return entry, true }
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("op\x00key-%d", i)
		c.Do(keys[i], fill)
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		i++
		if e, hit := c.Do(keys[i%len(keys)], fill); !hit || e == nil {
			t.Fatal("expected warm hit")
		}
	})
	if allocs > 0 {
		t.Errorf("a cache hit allocates %.1f/op, want 0", allocs)
	}
}
