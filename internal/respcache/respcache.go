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

// cloneHeader deep-copies h with exactly-sized value slices, so the
// stored slices can later be aliased into response headers append-safely
// (any append reallocates instead of scribbling on the cached copy).
func cloneHeader(h http.Header) http.Header {
	out := make(http.Header, len(h))
	for k, v := range h {
		vv := make([]string, len(v))
		copy(vv, v)
		out[k] = vv
	}
	return out
}

// WriteTo replays the entry to w. Header value slices are aliased, not
// copied — they are treated as immutable once cached (Recorder.Entry
// stores exactly-sized copies, so an append on the response side
// reallocates rather than mutating the shared cache entry).
func (e *Entry) WriteTo(w http.ResponseWriter) {
	dst := w.Header()
	for k, v := range e.Header {
		dst[k] = v
	}
	w.WriteHeader(e.Status)
	_, _ = w.Write(e.Body)
}

// flight is one in-progress fill. Waiters block on wg and then read
// entry; the publisher writes entry and filled before wg.Done, so the
// WaitGroup's happens-before edge makes the read safe. filled stays
// false when fill panicked: there is no entry to share.
type flight struct {
	wg     sync.WaitGroup
	entry  *Entry
	store  bool
	filled bool
}

// item is one cached entry inside a shard. entry and expires are written
// only under the shard write lock; touched is bumped by readers holding
// just the read lock, so it is atomic.
type item struct {
	entry   *Entry
	expires time.Time
	touched atomic.Uint64
}

// shard is one lock stripe: its own map, flights, counters, and LRU
// clock. Recency is a per-shard atomic sequence stamped on every access;
// eviction (only on insert past capacity) scans the shard for the
// minimum stamp — shards are small, so the scan is a handful of loads.
type shard struct {
	mu       sync.RWMutex
	capacity int
	items    map[string]*item
	flights  map[string]*flight
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
			items:    make(map[string]*item),
			flights:  make(map[string]*flight),
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

// put inserts (or replaces) the entry under the shard write lock and
// evicts least-recently-touched items past the shard capacity (expired
// items lose ties by construction: they haven't been touched recently).
func (s *shard) put(key string, e *Entry, clk vtime.Clock, ttl time.Duration) {
	expires := clk.Now().Add(ttl)
	if it, ok := s.items[key]; ok {
		it.entry, it.expires = e, expires
		it.touched.Store(s.seq.Add(1))
		return
	}
	it := &item{entry: e, expires: expires}
	it.touched.Store(s.seq.Add(1))
	s.items[key] = it
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
// is, and a miss copies it into the string its flight and entry are
// stored under. The caller may reuse its bytes as soon as DoContext
// returns.
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
	// The one copy of the key: the flight and the entry keep it.
	owned := string(key)
	f := &flight{}
	f.wg.Add(1)
	s.flights[owned] = f
	s.misses.Add(1)
	s.mu.Unlock()

	defer s.land(owned, f, clk, c.ttl)
	f.entry, f.store = fill()
	f.filled = true
	return f.entry, false
}

// land closes key's flight on every exit from its fill, a panic
// included: it stores what a fill that returned asked to keep, then
// wakes the waiters.
func (s *shard) land(key string, f *flight, clk vtime.Clock, ttl time.Duration) {
	s.mu.Lock()
	delete(s.flights, key)
	if f.filled && f.store && f.entry != nil {
		s.put(key, f.entry, clk, ttl)
	}
	s.mu.Unlock()
	f.wg.Done()
}

// join waits for another caller's fill of the same key and returns its
// entry as a hit. When that fill panicked there is no entry: the waiter
// runs fill itself, uncached.
func (s *shard) join(f *flight, fill func() (*Entry, bool)) (*Entry, bool) {
	f.wg.Wait()
	if f.filled {
		s.hits.Add(1)
		return f.entry, true
	}
	s.misses.Add(1)
	e, _ := fill()
	return e, false
}

// Invalidate drops the entry for key, if present.
func (c *Cache) Invalidate(key string) {
	s := shardFor(c, key)
	s.mu.Lock()
	delete(s.items, key)
	s.mu.Unlock()
}

// Shards reports the stripe count, for tests asserting the sharding
// policy.
func (c *Cache) Shards() int { return len(c.shards) }

// Recorder is an http.ResponseWriter that captures the response for
// caching while it is produced.
type Recorder struct {
	status      int
	header      http.Header
	body        []byte
	wroteHeader bool
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{status: http.StatusOK, header: make(http.Header)}
}

// Header implements http.ResponseWriter.
func (r *Recorder) Header() http.Header { return r.header }

// WriteHeader implements http.ResponseWriter; like the real writer, only
// the first call sticks.
func (r *Recorder) WriteHeader(status int) {
	if r.wroteHeader || status <= 0 {
		return
	}
	r.status = status
	r.wroteHeader = true
}

// Write implements http.ResponseWriter.
func (r *Recorder) Write(p []byte) (int, error) {
	r.body = append(r.body, p...)
	return len(p), nil
}

// Entry snapshots the recorded response.
func (r *Recorder) Entry() *Entry {
	return &Entry{Status: r.status, Header: cloneHeader(r.header), Body: r.body}
}
