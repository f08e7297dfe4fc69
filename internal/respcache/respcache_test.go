package respcache

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"soc/internal/vtime"
)

func entry(body string) *Entry {
	return &Entry{Status: http.StatusOK, Header: http.Header{"Content-Type": {"text/plain"}}, Body: []byte(body)}
}

func TestCacheHitAndMiss(t *testing.T) {
	c := New(4, time.Minute)
	calls := 0
	fill := func() (*Entry, bool) { calls++; return entry("v"), true }

	e, hit := c.Do("k", fill)
	if hit || string(e.Body) != "v" || calls != 1 {
		t.Fatalf("first Do: hit=%v body=%q calls=%d", hit, e.Body, calls)
	}
	e, hit = c.Do("k", fill)
	if !hit || string(e.Body) != "v" || calls != 1 {
		t.Fatalf("second Do: hit=%v body=%q calls=%d", hit, e.Body, calls)
	}
	if h, m := c.Stats(); h != 1 || m != 1 {
		t.Errorf("stats = %d hits %d misses, want 1/1", h, m)
	}
}

func TestCacheTTLExpiry(t *testing.T) {
	clock := vtime.NewVirtual(time.Unix(0, 0))
	ctx := vtime.WithClock(context.Background(), clock)
	c := New(4, time.Minute)
	calls := 0
	fill := func() (*Entry, bool) { calls++; return entry("v"), true }

	c.DoContext(ctx, []byte("k"), fill)
	clock.Advance(59 * time.Second)
	if _, hit := c.DoContext(ctx, []byte("k"), fill); !hit {
		t.Fatal("entry expired before TTL")
	}
	clock.Advance(2 * time.Second) // past the minute
	if _, hit := c.DoContext(ctx, []byte("k"), fill); hit {
		t.Fatal("entry survived past TTL")
	}
	if calls != 2 {
		t.Fatalf("calls = %d, want 2", calls)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := New(3, 0) // no TTL: only the LRU bound evicts
	fill := func(v string) func() (*Entry, bool) {
		return func() (*Entry, bool) { return entry(v), true }
	}
	for i := 0; i < 3; i++ {
		c.Do(fmt.Sprintf("k%d", i), fill("v"))
	}
	c.Do("k0", fill("v")) // touch k0 so k1 is now least recent
	c.Do("k3", fill("v")) // evicts k1
	if c.Len() != 3 {
		t.Fatalf("len = %d, want capacity 3", c.Len())
	}
	evicted := false
	c.Do("k1", func() (*Entry, bool) { evicted = true; return entry("refilled"), true })
	if !evicted {
		t.Error("k1 still cached; want LRU eviction")
	}
	if _, hit := c.Do("k0", fill("v")); !hit {
		t.Error("recently used k0 was evicted")
	}
}

func TestCacheSingleflight(t *testing.T) {
	c := New(4, time.Minute)
	var calls atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	const waiters = 16

	var wg sync.WaitGroup
	results := make([]*Entry, waiters+1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		results[0], _ = c.Do("k", func() (*Entry, bool) {
			calls.Add(1)
			close(started)
			<-release
			return entry("once"), true
		})
	}()
	<-started
	for i := 1; i <= waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e, hit := c.Do("k", func() (*Entry, bool) {
				calls.Add(1)
				return entry("again"), true
			})
			if !hit {
				t.Errorf("waiter %d: not collapsed into flight", i)
			}
			results[i] = e
		}(i)
	}
	// Give waiters a moment to join the flight, then let it finish.
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()

	if n := calls.Load(); n != 1 {
		t.Fatalf("fill ran %d times for concurrent identical requests, want 1", n)
	}
	for i, e := range results {
		if string(e.Body) != "once" {
			t.Fatalf("result %d = %q, want the single flight's response", i, e.Body)
		}
	}
}

// TestCachePanickingFillReleasesWaiters: a fill that panics must not
// wedge its key. The panic reaches the filling caller, every collapsed
// waiter wakes and serves itself, nothing is cached, and the next caller
// fills afresh.
func TestCachePanickingFillReleasesWaiters(t *testing.T) {
	c := New(4, time.Minute)
	started := make(chan struct{})
	release := make(chan struct{})
	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		c.Do("k", func() (*Entry, bool) {
			close(started)
			<-release
			panic("fill failed")
		})
	}()
	<-started
	const waiters = 8
	type result struct {
		e   *Entry
		hit bool
	}
	results := make(chan result, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			e, hit := c.Do("k", func() (*Entry, bool) { return entry("own"), false })
			results <- result{e, hit}
		}()
	}
	// Give waiters a moment to join the flight, then let it panic.
	time.Sleep(10 * time.Millisecond)
	close(release)

	deadline := time.After(5 * time.Second)
	select {
	case v := <-panicked:
		if v != "fill failed" {
			t.Fatalf("filling caller recovered %v, want the fill's panic", v)
		}
	case <-deadline:
		t.Fatal("filling caller never returned")
	}
	for i := 0; i < waiters; i++ {
		select {
		case r := <-results:
			if r.hit || string(r.e.Body) != "own" {
				t.Fatalf("waiter got hit=%v body %q, want its own uncached response", r.hit, r.e.Body)
			}
		case <-deadline:
			t.Fatalf("%d of %d waiters still parked on the panicked flight", waiters-i, waiters)
		}
	}
	if _, hit := c.Do("k", func() (*Entry, bool) { return entry("v"), true }); hit {
		t.Fatal("a panicked fill left an entry behind")
	}
	if h, m := c.Stats(); h != 0 || m != waiters+2 {
		t.Errorf("stats = %d hits %d misses, want 0/%d", h, m, waiters+2)
	}
}

func TestCacheDoesNotStoreErrors(t *testing.T) {
	c := New(4, time.Minute)
	calls := 0
	errFill := func() (*Entry, bool) {
		calls++
		return &Entry{Status: http.StatusInternalServerError, Body: []byte("boom")}, false
	}
	e, _ := c.Do("k", errFill)
	if e.Status != http.StatusInternalServerError {
		t.Fatalf("status = %d", e.Status)
	}
	if _, hit := c.Do("k", errFill); hit {
		t.Fatal("error response was cached")
	}
	if calls != 2 {
		t.Fatalf("calls = %d, want 2", calls)
	}
}

// DoContext only reads its key: after a miss fills, the caller may
// overwrite the bytes it passed, and the entry still answers the key it
// was stored under, and only that key.
func TestKeyBytesAreCopiedOnFill(t *testing.T) {
	c := New(4, time.Minute)
	ctx := context.Background()
	key := []byte("Calc.Square\x00n=1")
	if _, hit := c.DoContext(ctx, key, func() (*Entry, bool) { return entry("1"), true }); hit {
		t.Fatal("first lookup hit")
	}
	copy(key, "Calc.Square\x00n=2")
	e, hit := c.DoContext(ctx, []byte("Calc.Square\x00n=1"), func() (*Entry, bool) { return entry("refilled"), true })
	if !hit || string(e.Body) != "1" {
		t.Fatalf("the stored key = %q after its caller's buffer changed: hit=%v body=%q", "Calc.Square\x00n=1", hit, e.Body)
	}
	filled := false
	e, hit = c.DoContext(ctx, key, func() (*Entry, bool) { filled = true; return entry("4"), true })
	if hit || !filled || string(e.Body) != "4" {
		t.Fatalf("the overwritten key answered from the cache: hit=%v body=%q", hit, e.Body)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}

// TestCachedHeaderAppendReallocates: the entry a Recorder hands over
// keeps the recorder's own header values, clipped to their length, and
// WriteTo aliases them into each response. An append on the response
// side — to a value the handler built with room to spare — reallocates,
// so neither the cached entry nor another response that replayed it
// changes.
func TestCachedHeaderAppendReallocates(t *testing.T) {
	c := New(4, time.Minute)
	fill := func() (*Entry, bool) {
		rec := NewRecorder()
		v := make([]string, 1, 4)
		v[0] = "a"
		rec.Header()["X-Tag"] = v
		_, _ = rec.Write([]byte("v"))
		return rec.Entry(), true
	}
	c.Do("k", fill)
	var replies []http.Header
	for _, extra := range []string{"b", "c"} {
		e, hit := c.Do("k", fill)
		if !hit {
			t.Fatal("expected a hit")
		}
		w := httptest.NewRecorder()
		e.WriteTo(w)
		w.Header().Add("X-Tag", extra)
		replies = append(replies, w.Header())
		if got := e.Header["X-Tag"]; len(got) != 1 || cap(got) != 1 || got[0] != "a" {
			t.Fatalf("cached X-Tag = %q (cap %d) after a response appended %q, want [a] (cap 1)", got, cap(got), extra)
		}
	}
	if got := replies[0]["X-Tag"]; len(got) != 2 || got[1] != "b" {
		t.Errorf("first response's X-Tag = %q after the second appended, want [a b]", got)
	}
}
