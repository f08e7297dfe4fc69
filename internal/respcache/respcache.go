// Package respcache is the generalization of the paper's Caching service
// into transport middleware: a bounded, TTL'd LRU of rendered HTTP
// responses for idempotent operations, with singleflight collapse so a
// stampede of identical requests costs exactly one handler invocation.
//
// The cache stores complete responses (status, headers, body) under an
// opaque key the caller derives from the operation identity and its
// canonicalized parameters; see soc/internal/host for the keying rules.
//
// Internally the cache is lock-striped into power-of-two shards (one
// shard for small capacities, so tiny caches keep exact global LRU
// order). The hit path takes only a shard read-lock and records recency
// with an atomic touch sequence, so concurrent hits never serialize on a
// write lock; eviction resolves the least-recent touch at insert time.
package respcache

import (
	"context"
	"hash/maphash"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"soc/internal/vtime"
)

// Entry is one cached response.
type Entry struct {
	Status int
	Header http.Header
	Body   []byte
}

// WriteTo replays the entry to w. Header value slices are aliased, not
// copied — they are treated as immutable once cached (Recorder.Entry
// clips each to its length, so an append on the response side
// reallocates rather than mutating the shared cache entry).
func (e *Entry) WriteTo(w http.ResponseWriter) {
	dst := w.Header()
	for k, v := range e.Header {
		dst[k] = v
	}
	w.WriteHeader(e.Status)
	_, _ = w.Write(e.Body)
}

// record is one miss, from the fill that opens it to the eviction that
// drops it: one allocation per miss.
//
// While fill runs the record sits in shard.flights. Waiters block on wg
// and then read entry and filled; the filler writes them before wg.Done,
// so the WaitGroup's happens-before edge makes the read safe. filled
// stays false when fill panicked: there is no entry to share.
//
// land then moves a record asked to be stored into shard.items. From
// there on entry is never written again — a replacing put swaps the map
// value for the new record — so a waiter still holding this one reads
// what it was given. expires is written under the shard write lock
// before the record enters the map; touched is bumped by readers holding
// just the read lock, so it is atomic.
type record struct {
	wg      sync.WaitGroup
	entry   *Entry
	store   bool
	filled  bool
	expires time.Time
	touched atomic.Uint64
}

// shard is one lock stripe: its own items, flights, counters, and LRU
// clock. Recency is a per-shard atomic sequence stamped on every access;
// eviction (only on insert past capacity) scans the shard for the
// minimum stamp — shards are small, so the scan is a handful of loads.
type shard struct {
	mu       sync.RWMutex
	capacity int
	items    map[string]*record
	flights  map[string]*record
	seq      atomic.Uint64
	hits     atomic.Uint64
	misses   atomic.Uint64
}

// Cache is a TTL'd LRU response cache with singleflight fill, safe for
// concurrent use.
type Cache struct {
	shards []*shard
	mask   uint64
	ttl    time.Duration
	seed   maphash.Seed
}

// shardCount picks the power-of-two stripe count for a capacity: roughly
// one shard per eight entries, capped at 16. Small caches get a single
// shard and therefore exact global LRU order.
func shardCount(capacity int) int {
	n := 1
	for n*2 <= capacity/8 && n < 16 {
		n *= 2
	}
	return n
}

// New returns a cache holding at most capacity entries for at most ttl
// each. capacity <= 0 panics; ttl <= 0 means entries never expire (the
// LRU bound still applies, per shard).
func New(capacity int, ttl time.Duration) *Cache {
	if capacity <= 0 {
		panic("respcache: capacity must be positive")
	}
	n := shardCount(capacity)
	c := &Cache{
		shards: make([]*shard, n),
		mask:   uint64(n - 1),
		ttl:    ttl,
		seed:   maphash.MakeSeed(),
	}
	base, extra := capacity/n, capacity%n
	for i := range c.shards {
		cap := base
		if i < extra {
			cap++
		}
		c.shards[i] = &shard{
			capacity: cap,
			items:    make(map[string]*record),
			flights:  make(map[string]*record),
		}
	}
	return c
}

// shardFor picks key's stripe. A key hashes alike whether it is held as a
// string or as bytes.
func shardFor[K string | []byte](c *Cache, key K) *shard {
	if c.mask == 0 {
		return c.shards[0]
	}
	var h uint64
	switch k := any(key).(type) {
	case string:
		h = maphash.String(c.seed, k)
	case []byte:
		h = maphash.Bytes(c.seed, k)
	}
	return c.shards[h&c.mask]
}

// Len reports the number of cached entries (including any expired ones
// not yet evicted by insertion pressure).
func (c *Cache) Len() int {
	n := 0
	for _, s := range c.shards {
		s.mu.RLock()
		n += len(s.items)
		s.mu.RUnlock()
	}
	return n
}

// Stats reports cumulative hits (served without invoking fill, whether
// from a fresh entry or a joined flight) and misses.
func (c *Cache) Stats() (hits, misses uint64) {
	for _, s := range c.shards {
		hits += s.hits.Load()
		misses += s.misses.Load()
	}
	return hits, misses
}

// get returns the fresh entry for key under the shard read lock, stamping
// its recency. Expired entries read as misses and are left for insertion
// pressure (or a replacing put) to clear — deleting here would need the
// write lock the hit path exists to avoid.
func get[K string | []byte](s *shard, key K, clk vtime.Clock, ttl time.Duration) (*Entry, bool) {
	it, ok := s.items[string(key)]
	if !ok {
		return nil, false
	}
	if ttl > 0 && !clk.Now().Before(it.expires) {
		return nil, false
	}
	it.touched.Store(s.seq.Add(1))
	return it.entry, true
}

// put stores the landed record r under key, with the shard write lock
// held, and evicts least-recently-touched items past the shard capacity
// (expired items lose ties by construction: they haven't been touched
// recently). A record already under key is replaced, not written into:
// whoever still holds it keeps reading the entry it was given.
func (s *shard) put(key string, r *record, clk vtime.Clock, ttl time.Duration) {
	r.expires = clk.Now().Add(ttl)
	r.touched.Store(s.seq.Add(1))
	s.items[key] = r
	for len(s.items) > s.capacity {
		var coldKey string
		coldSeq := uint64(1<<64 - 1)
		for k, cand := range s.items {
			if t := cand.touched.Load(); t <= coldSeq {
				coldKey, coldSeq = k, t
			}
		}
		delete(s.items, coldKey)
	}
}

// Do is DoContext on the wall clock, for a key held as a string.
//
// Neither Do nor DoContext is inlined into its caller: a call from another
// package straight to the generic do has no escape summary, so every
// caller's fill closure would move to the heap.
//
//go:noinline
func (c *Cache) Do(key string, fill func() (*Entry, bool)) (e *Entry, hit bool) {
	return do(c, context.Background(), key, fill)
}

// DoContext returns the response for key, filling on a miss. Entries
// age on ctx's clock (vtime.ClockFrom). fill's second result says
// whether to store the response (non-cacheable responses — errors, for
// example — are still returned to every collapsed waiter, just not
// kept). hit reports whether fill was NOT invoked by this call: either
// the entry was fresh in cache, or an identical in-flight request
// produced it. A fill that panics releases its key on the way out —
// nothing is cached, and each collapsed waiter runs fill itself — and
// the panic goes on to the caller.
//
// key is only read, and only during the call: a hit looks it up as it
// is, and a miss copies it into the string its record is stored under.
// The caller may reuse its bytes as soon as DoContext returns.
//
//go:noinline
func (c *Cache) DoContext(ctx context.Context, key []byte, fill func() (*Entry, bool)) (e *Entry, hit bool) {
	return do(c, ctx, key, fill)
}

func do[K string | []byte](c *Cache, ctx context.Context, key K, fill func() (*Entry, bool)) (*Entry, bool) {
	s := shardFor(c, key)
	clk := vtime.ClockFrom(ctx)

	// Fast path: a fresh entry or a joinable flight needs only the
	// shard read lock, so concurrent hits don't serialize.
	s.mu.RLock()
	if e, ok := get(s, key, clk, c.ttl); ok {
		s.mu.RUnlock()
		s.hits.Add(1)
		return e, true
	}
	if f, ok := s.flights[string(key)]; ok {
		s.mu.RUnlock()
		return s.join(f, fill)
	}
	s.mu.RUnlock()

	// Slow path: take the write lock and re-check, since another miss
	// may have filled or opened a flight in the window.
	s.mu.Lock()
	if e, ok := get(s, key, clk, c.ttl); ok {
		s.mu.Unlock()
		s.hits.Add(1)
		return e, true
	}
	if f, ok := s.flights[string(key)]; ok {
		s.mu.Unlock()
		return s.join(f, fill)
	}
	// The miss's one copy of the key and its one record, stored under
	// that key as the flight and then as the item.
	owned := string(key)
	r := &record{}
	r.wg.Add(1)
	s.flights[owned] = r
	s.misses.Add(1)
	s.mu.Unlock()

	defer s.land(owned, r, clk, c.ttl)
	r.entry, r.store = fill()
	r.filled = true
	return r.entry, false
}

// land closes key's flight on every exit from its fill, a panic
// included: it moves a record whose fill returned and asked to keep its
// entry into the items, then wakes the waiters.
func (s *shard) land(key string, r *record, clk vtime.Clock, ttl time.Duration) {
	s.mu.Lock()
	delete(s.flights, key)
	if r.filled && r.store && r.entry != nil {
		s.put(key, r, clk, ttl)
	}
	s.mu.Unlock()
	r.wg.Done()
}

// join waits for another caller's fill of the same key and returns its
// entry as a hit. When that fill panicked there is no entry: the waiter
// runs fill itself, uncached.
func (s *shard) join(r *record, fill func() (*Entry, bool)) (*Entry, bool) {
	r.wg.Wait()
	if r.filled {
		s.hits.Add(1)
		return r.entry, true
	}
	s.misses.Add(1)
	e, _ := fill()
	return e, false
}

// Recorder is an http.ResponseWriter that captures the response for
// caching while it is produced, into the entry it hands over.
type Recorder struct {
	entry       Entry
	wroteHeader bool
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{entry: Entry{Status: http.StatusOK, Header: make(http.Header)}}
}

// Header implements http.ResponseWriter.
func (r *Recorder) Header() http.Header { return r.entry.Header }

// WriteHeader implements http.ResponseWriter; like the real writer, only
// the first call sticks.
func (r *Recorder) WriteHeader(status int) {
	if r.wroteHeader || status <= 0 {
		return
	}
	r.entry.Status = status
	r.wroteHeader = true
}

// Write implements http.ResponseWriter.
func (r *Recorder) Write(p []byte) (int, error) {
	r.entry.Body = append(r.entry.Body, p...)
	return len(p), nil
}

// Entry hands over the recorded response: the recorder's own entry, not
// a copy, so the recorder must not be written to afterwards. Each header
// value slice is clipped to its length in place, which is what lets
// Entry.WriteTo alias them: an append on the response side reallocates.
func (r *Recorder) Entry() *Entry {
	for k, v := range r.entry.Header {
		r.entry.Header[k] = slices.Clip(v)
	}
	return &r.entry
}
