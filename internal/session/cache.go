package session

import (
	"container/list"
	"context"
	"errors"
	"sync"
	"time"

	"soc/internal/vtime"
)

// Cache is the web-data cache of the course's state-management unit: LRU
// eviction, per-entry TTL, dependency keys for grouped invalidation (the
// ASP.NET "cache dependency" pattern), and hit/miss accounting for the
// state-management experiment. Entries age on the clock of the context
// each Put and Get is handed.
type Cache struct {
	mu       sync.Mutex
	capacity int
	ttl      time.Duration
	order    *list.List // front = most recent
	items    map[string]*list.Element
	byDep    map[string]map[string]bool // dependency → keys
	hits     uint64
	misses   uint64
}

type cacheItem struct {
	key     string
	value   any
	expires time.Time
	deps    []string
}

// CacheOption configures a Cache.
type CacheOption func(*Cache)

// WithCacheTTL sets the default entry TTL (default 5 minutes).
func WithCacheTTL(d time.Duration) CacheOption { return func(c *Cache) { c.ttl = d } }

// NewCache returns an LRU+TTL cache with the given capacity.
func NewCache(capacity int, opts ...CacheOption) (*Cache, error) {
	if capacity <= 0 {
		return nil, errors.New("session: cache capacity must be positive")
	}
	c := &Cache{
		capacity: capacity,
		ttl:      5 * time.Minute,
		order:    list.New(),
		items:    make(map[string]*list.Element),
		byDep:    make(map[string]map[string]bool),
	}
	for _, o := range opts {
		o(c)
	}
	return c, nil
}

// Put stores a value under key with the default TTL and optional
// dependency keys.
func (c *Cache) Put(ctx context.Context, key string, value any, deps ...string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.removeLocked(el)
	}
	for c.order.Len() >= c.capacity {
		c.removeLocked(c.order.Back())
	}
	item := &cacheItem{key: key, value: value, expires: vtime.Now(ctx).Add(c.ttl), deps: deps}
	el := c.order.PushFront(item)
	c.items[key] = el
	for _, d := range deps {
		if c.byDep[d] == nil {
			c.byDep[d] = make(map[string]bool)
		}
		c.byDep[d][key] = true
	}
}

// Get returns the cached value and whether it was present and fresh.
func (c *Cache) Get(ctx context.Context, key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, false
	}
	item := el.Value.(*cacheItem)
	if vtime.Now(ctx).After(item.expires) {
		c.removeLocked(el)
		c.misses++
		return nil, false
	}
	c.order.MoveToFront(el)
	c.hits++
	return item.value, true
}

// GetOrCompute returns the cached value or computes, stores, and returns
// it. Concurrent computations of the same key may race; last write wins —
// acceptable for idempotent loads.
func (c *Cache) GetOrCompute(ctx context.Context, key string, compute func() (any, error), deps ...string) (any, error) {
	if v, ok := c.Get(ctx, key); ok {
		return v, nil
	}
	v, err := compute()
	if err != nil {
		return nil, err
	}
	c.Put(ctx, key, v, deps...)
	return v, nil
}

// Invalidate removes one key.
func (c *Cache) Invalidate(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.removeLocked(el)
	}
}

// InvalidateDependency removes every entry depending on dep, returning
// how many were dropped.
func (c *Cache) InvalidateDependency(dep string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := c.byDep[dep]
	n := 0
	for key := range keys {
		if el, ok := c.items[key]; ok {
			c.removeLocked(el)
			n++
		}
	}
	delete(c.byDep, dep)
	return n
}

func (c *Cache) removeLocked(el *list.Element) {
	item := el.Value.(*cacheItem)
	c.order.Remove(el)
	delete(c.items, item.key)
	for _, d := range item.deps {
		if set := c.byDep[d]; set != nil {
			delete(set, item.key)
			if len(set) == 0 {
				delete(c.byDep, d)
			}
		}
	}
}

// Len reports the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Stats reports hit/miss counters.
func (c *Cache) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// HitRatio is hits/(hits+misses), 0 when unused.
func (c *Cache) HitRatio() float64 {
	h, m := c.Stats()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}
