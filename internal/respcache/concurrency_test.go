package respcache

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"soc/internal/vtime"
)

// TestCacheConcurrentMixed hammers every public entry point from
// concurrent goroutines — hits, misses, replacing puts, invalidation,
// stats and length reads — so the race detector sees the full sharded
// locking protocol (read-locked gets with atomic recency stamps, write
// locked inserts, lock-free counters) in one schedule.
func TestCacheConcurrentMixed(t *testing.T) {
	c := New(256, time.Hour)
	var ops atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("k%d", (g*500+i)%64)
				e, _ := c.Do(key, func() (*Entry, bool) {
					return &Entry{Status: 200, Header: http.Header{}, Body: []byte(key)}, true
				})
				if string(e.Body) != key {
					t.Errorf("Do(%q) returned body %q", key, e.Body)
					return
				}
				ops.Add(1)
				switch i % 7 {
				case 3:
					c.Invalidate(key)
				case 5:
					c.Len()
					c.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
	hits, misses := c.Stats()
	if hits+misses != ops.Load() {
		t.Errorf("hits %d + misses %d != %d Do calls", hits, misses, ops.Load())
	}
}

// TestCacheLRUBoundUnderChurn inserts far more distinct keys than the
// capacity from concurrent goroutines and checks the sharded LRU never
// exceeds its global bound — per-shard eviction must add up.
func TestCacheLRUBoundUnderChurn(t *testing.T) {
	const capacity = 128
	c := New(capacity, 0)
	if len(c.shards) < 2 {
		t.Fatalf("capacity %d got %d shards, want a sharded cache", capacity, len(c.shards))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < capacity*10; i++ {
				key := fmt.Sprintf("g%d-k%d", g, i)
				c.Do(key, func() (*Entry, bool) {
					return &Entry{Status: 200, Body: []byte("x")}, true
				})
			}
		}(g)
	}
	wg.Wait()
	if n := c.Len(); n > capacity {
		t.Errorf("cache holds %d entries past capacity %d", n, capacity)
	}
}

// TestCacheSingleflightStampede aims many concurrent misses for one key
// at a slow fill: exactly one fill must run, and every collapsed caller
// must receive its entry.
func TestCacheSingleflightStampede(t *testing.T) {
	c := New(64, time.Hour)
	var fills atomic.Int32
	release := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e, _ := c.Do("hot", func() (*Entry, bool) {
				fills.Add(1)
				<-release
				return &Entry{Status: 200, Body: []byte("filled")}, true
			})
			if string(e.Body) != "filled" {
				t.Errorf("collapsed caller got %q", e.Body)
			}
		}()
	}
	// Let the stampede pile onto the flight before releasing the fill.
	for c.Len() == 0 && fills.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if n := fills.Load(); n != 1 {
		t.Errorf("fill ran %d times, want 1", n)
	}
}

// TestCacheConcurrentExpiry advances a virtual clock while readers and
// writers run: expired reads must come back as misses and refills must
// land, with the race detector watching the clock's reads against its
// advances and the in-flight gets.
func TestCacheConcurrentExpiry(t *testing.T) {
	c := New(64, time.Minute)
	clock := vtime.NewVirtual(time.Unix(0, 0))
	ctx := vtime.WithClock(context.Background(), clock)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			clock.Advance(time.Second)
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				c.DoContext(ctx, []byte("aging"), func() (*Entry, bool) {
					return &Entry{Status: 200, Body: []byte("v")}, true
				})
			}
		}()
	}
	wg.Wait()
}
