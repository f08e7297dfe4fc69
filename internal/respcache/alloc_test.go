//go:build !race

package respcache

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
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

// TestMissAllocCeiling: a miss whose fill records its response through a
// Recorder — one header set, one body write — and whose landing evicts
// from a full shard allocates only what the cache keeps: the recorder
// with the entry inside it, its header map and the map's slots, the
// header's value, the body, the key's one string and the miss's one
// record. Measured 7.
func TestMissAllocCeiling(t *testing.T) {
	const capacity = 8 // one shard
	c := New(capacity, time.Hour)
	ctx := context.Background()
	const prefix = "Svc.Op\x00n="
	key := make([]byte, 0, 64)
	n := 0
	next := func() []byte {
		n++
		key = strconv.AppendInt(append(key[:0], prefix...), int64(n), 10)
		return key
	}
	body := []byte(`{"steps":111}`)
	fill := func() (*Entry, bool) {
		rec := NewRecorder()
		rec.Header().Set("Content-Type", "application/json")
		rec.WriteHeader(http.StatusOK)
		_, _ = rec.Write(body)
		return rec.Entry(), true
	}
	for i := 0; i < capacity; i++ {
		c.DoContext(ctx, next(), fill)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if e, hit := c.DoContext(ctx, next(), fill); hit || e.Status != http.StatusOK {
			t.Fatal("expected a filled miss")
		}
	})
	if got := c.Len(); got != capacity {
		t.Fatalf("Len = %d after the misses, want the full shard's %d", got, capacity)
	}
	if allocs > 7 {
		t.Errorf("a cache miss that fills and evicts allocates %.2f/op, want ≤ 7", allocs)
	}
}
