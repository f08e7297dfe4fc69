// Package registry implements the service broker of the SOA triangle
// (provider → broker ← client): a directory where providers publish
// service entries and clients discover them. It supplies the pieces the
// paper's §V describes for the ASU repository and service search engine:
// a category taxonomy, a keyword inverted index with TF-IDF ranking,
// liveness leases with heartbeats (addressing the "services are often
// offline or removed without notice" complaint about free directories),
// and a REST API with a matching client.
package registry

import (
	"errors"
	"fmt"
	"math"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInvalid reports a malformed entry or query.
var ErrInvalid = errors.New("registry: invalid input")

// ErrNotFound reports a missing entry.
var ErrNotFound = errors.New("registry: not found")

// Entry is one published service.
type Entry struct {
	// Name uniquely identifies the service in the registry.
	Name string `json:"name"`
	// Namespace is the service's XML namespace.
	Namespace string `json:"namespace"`
	// Doc is the human description, indexed for keyword search.
	Doc string `json:"doc"`
	// Category is a slash-separated taxonomy path, e.g. "security/encryption".
	Category string `json:"category"`
	// Endpoint is the base URL where the service is hosted.
	Endpoint string `json:"endpoint"`
	// Bindings lists supported protocols, e.g. ["soap", "rest"].
	Bindings []string `json:"bindings"`
	// Operations lists operation names, indexed for search.
	Operations []string `json:"operations"`
	// Provider identifies who published the entry.
	Provider string `json:"provider"`
	// Published is when the entry was first registered.
	Published time.Time `json:"published"`
	// LeaseExpires is when the entry's lease lapses; expired entries
	// are reported unavailable and eventually evicted.
	LeaseExpires time.Time `json:"leaseExpires"`
}

// Available reports whether the entry's lease is current at t.
func (e *Entry) Available(t time.Time) bool { return t.Before(e.LeaseExpires) }

// snapshot is one immutable registry state. Readers load it atomically
// and never take a lock; writers build a copied successor under wmu and
// publish it with one atomic store (RCU). Entries and posting maps are
// shared structurally between snapshots — a write copies only the outer
// maps and the inner values it touches, and nothing reachable from a
// published snapshot is ever mutated again.
type snapshot struct {
	entries map[string]*Entry
	// index is the inverted keyword index: token → entry name →
	// normalized term frequency. It is maintained incrementally on
	// Publish/Unpublish/Evict so Search never re-tokenizes the corpus;
	// liveness is filtered at query time (a lapsed lease hides an entry
	// without touching the index).
	index map[string]map[string]float64
	// docTF remembers each entry's term-frequency vector so its postings
	// can be removed when the entry changes or leaves.
	docTF map[string]map[string]float64
	// minLease is the earliest lease expiry across entries. While the
	// query clock is before it, every entry is live and search skips all
	// per-entry liveness checks (the common steady-state fast path).
	minLease time.Time
}

// Registry is an in-memory service directory, safe for concurrent use.
// Lookups are lock-free snapshot reads; publishes serialize on a writer
// mutex and never block a reader.
type Registry struct {
	wmu   sync.Mutex
	snap  atomic.Pointer[snapshot]
	lease time.Duration
	now   func() time.Time
}

// Option configures a Registry.
type Option func(*Registry)

// WithLease sets the lease duration (default 5 minutes).
func WithLease(d time.Duration) Option { return func(r *Registry) { r.lease = d } }

// WithClock sets the time source, for deterministic tests.
func WithClock(now func() time.Time) Option { return func(r *Registry) { r.now = now } }

// New returns an empty registry.
func New(opts ...Option) *Registry {
	r := &Registry{
		lease: 5 * time.Minute,
		now:   time.Now,
	}
	r.snap.Store(&snapshot{
		entries: map[string]*Entry{},
		index:   map[string]map[string]float64{},
		docTF:   map[string]map[string]float64{},
	})
	for _, o := range opts {
		o(r)
	}
	return r
}

// load returns the current immutable snapshot.
func (r *Registry) load() *snapshot { return r.snap.Load() }

// cloneForWrite copies the current snapshot's outer maps. The caller must
// hold wmu, mutate only via the snapshot's copy-on-write helpers (or by
// installing fresh *Entry values), and install the result with publish.
func (r *Registry) cloneForWrite() *snapshot {
	old := r.snap.Load()
	ns := &snapshot{
		entries: make(map[string]*Entry, len(old.entries)+1),
		index:   make(map[string]map[string]float64, len(old.index)),
		docTF:   make(map[string]map[string]float64, len(old.docTF)),
	}
	for k, v := range old.entries {
		ns.entries[k] = v
	}
	for k, v := range old.index {
		ns.index[k] = v
	}
	for k, v := range old.docTF {
		ns.docTF[k] = v
	}
	return ns
}

// publish recomputes the snapshot's lease horizon and installs it as the
// current state. The caller must hold wmu.
func (r *Registry) publish(ns *snapshot) {
	first := true
	for _, e := range ns.entries {
		if first || e.LeaseExpires.Before(ns.minLease) {
			ns.minLease = e.LeaseExpires
			first = false
		}
	}
	r.snap.Store(ns)
}

var categoryRE = regexp.MustCompile(`^[a-z0-9-]+(/[a-z0-9-]+)*$`)

// validateEntry applies the publish-time structural checks.
func validateEntry(e Entry) error {
	if e.Name == "" || e.Endpoint == "" {
		return fmt.Errorf("%w: name and endpoint are required", ErrInvalid)
	}
	if e.Category != "" && !categoryRE.MatchString(e.Category) {
		return fmt.Errorf("%w: bad category %q", ErrInvalid, e.Category)
	}
	return nil
}

// Publish registers (or re-registers) an entry and grants a fresh lease.
func (r *Registry) Publish(e Entry) error {
	if err := validateEntry(e); err != nil {
		return err
	}
	r.wmu.Lock()
	defer r.wmu.Unlock()
	now := r.now()
	ns := r.cloneForWrite()
	if old, ok := ns.entries[e.Name]; ok {
		e.Published = old.Published
	} else {
		e.Published = now
	}
	e.LeaseExpires = now.Add(r.lease)
	copied := e
	ns.entries[e.Name] = &copied
	ns.indexEntry(&copied)
	r.publish(ns)
	return nil
}

// indexEntry (re)computes the entry's term-frequency vector and installs
// its postings, copying each touched posting map (never mutating one
// shared with a published snapshot).
func (s *snapshot) indexEntry(e *Entry) {
	s.unindex(e.Name)
	toks := docTokens(e)
	tf := make(map[string]float64, len(toks))
	for _, t := range toks {
		tf[t]++
	}
	norm := float64(len(toks))
	for t := range tf {
		tf[t] /= norm
	}
	s.docTF[e.Name] = tf
	for t, v := range tf {
		old := s.index[t]
		post := make(map[string]float64, len(old)+1)
		for n, pv := range old {
			post[n] = pv
		}
		post[e.Name] = v
		s.index[t] = post
	}
}

// unindex removes the entry's postings, copying each touched posting map.
func (s *snapshot) unindex(name string) {
	tf, ok := s.docTF[name]
	if !ok {
		return
	}
	for t := range tf {
		old := s.index[t]
		if len(old) <= 1 {
			delete(s.index, t)
			continue
		}
		post := make(map[string]float64, len(old)-1)
		for n, v := range old {
			if n != name {
				post[n] = v
			}
		}
		s.index[t] = post
	}
	delete(s.docTF, name)
}

// prepare resolves what Publish would install for e — validation,
// Published preservation for re-registrations, a fresh lease — without
// mutating the registry. It is the write-ahead half of a durable publish:
// the resolved entry is logged first and then installed verbatim via
// restore, so log replay reproduces the exact same state.
func (r *Registry) prepare(e Entry) (Entry, error) {
	if err := validateEntry(e); err != nil {
		return Entry{}, err
	}
	s := r.load()
	now := r.now()
	if old, ok := s.entries[e.Name]; ok {
		e.Published = old.Published
	} else {
		e.Published = now
	}
	e.LeaseExpires = now.Add(r.lease)
	return e, nil
}

// restore installs an entry verbatim — Published and LeaseExpires
// included — and rebuilds its index postings. It is the replay primitive
// of the durable registry: restoring the same entry always produces the
// same state, which keeps crash recovery deterministic.
func (r *Registry) restore(e Entry) error {
	if err := validateEntry(e); err != nil {
		return err
	}
	r.wmu.Lock()
	defer r.wmu.Unlock()
	ns := r.cloneForWrite()
	copied := e
	ns.entries[e.Name] = &copied
	ns.indexEntry(&copied)
	r.publish(ns)
	return nil
}

// setLease pins an entry's lease expiry to an exact instant — the replay
// primitive behind durable heartbeats.
func (r *Registry) setLease(name string, t time.Time) error {
	return r.updateEntry(name, func(e *Entry) { e.LeaseExpires = t })
}

// Heartbeat renews the lease of an entry.
func (r *Registry) Heartbeat(name string) error {
	r.wmu.Lock()
	defer r.wmu.Unlock()
	expires := r.now().Add(r.lease)
	return r.updateEntryLocked(name, func(e *Entry) { e.LeaseExpires = expires })
}

// updateEntry applies fn to a copy of the named entry and publishes the
// resulting snapshot (postings are unaffected: indexed fields never
// change through this path).
func (r *Registry) updateEntry(name string, fn func(*Entry)) error {
	r.wmu.Lock()
	defer r.wmu.Unlock()
	return r.updateEntryLocked(name, fn)
}

func (r *Registry) updateEntryLocked(name string, fn func(*Entry)) error {
	ns := r.cloneForWrite()
	e, ok := ns.entries[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	copied := *e
	fn(&copied)
	ns.entries[name] = &copied
	r.publish(ns)
	return nil
}

// Unpublish removes an entry.
func (r *Registry) Unpublish(name string) error {
	r.wmu.Lock()
	defer r.wmu.Unlock()
	ns := r.cloneForWrite()
	if _, ok := ns.entries[name]; !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	delete(ns.entries, name)
	ns.unindex(name)
	r.publish(ns)
	return nil
}

// Get returns the entry by name.
func (r *Registry) Get(name string) (Entry, error) {
	e, ok := r.load().entries[name]
	if !ok {
		return Entry{}, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return *e, nil
}

// List returns all entries sorted by name. When liveOnly, lapsed leases
// are filtered out.
func (r *Registry) List(liveOnly bool) []Entry {
	s := r.load()
	now := r.now()
	out := make([]Entry, 0, len(s.entries))
	for _, e := range s.entries {
		if liveOnly && !e.Available(now) {
			continue
		}
		out = append(out, *e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ByCategory returns live entries whose category equals or falls under the
// given taxonomy prefix ("security" matches "security/encryption").
func (r *Registry) ByCategory(prefix string) []Entry {
	var out []Entry
	for _, e := range r.List(true) {
		if e.Category == prefix || strings.HasPrefix(e.Category, prefix+"/") {
			out = append(out, e)
		}
	}
	return out
}

// Categories returns the sorted distinct categories of live entries.
func (r *Registry) Categories() []string {
	seen := map[string]bool{}
	for _, e := range r.List(true) {
		if e.Category != "" {
			seen[e.Category] = true
		}
	}
	out := make([]string, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// Evict removes entries whose lease lapsed more than grace ago; it returns
// the evicted names.
func (r *Registry) Evict(grace time.Duration) []string {
	r.wmu.Lock()
	defer r.wmu.Unlock()
	now := r.now()
	var evicted []string
	ns := r.cloneForWrite()
	for name, e := range ns.entries {
		if now.Sub(e.LeaseExpires) > grace {
			delete(ns.entries, name)
			ns.unindex(name)
			evicted = append(evicted, name)
		}
	}
	if len(evicted) > 0 {
		r.publish(ns)
	}
	sort.Strings(evicted)
	return evicted
}

// Match is one ranked search result.
type Match struct {
	Entry Entry   `json:"entry"`
	Score float64 `json:"score"`
}

var tokenRE = regexp.MustCompile(`[a-z0-9]+`)

func tokenize(s string) []string {
	return tokenRE.FindAllString(strings.ToLower(s), -1)
}

// docTokens returns the searchable token multiset of an entry.
func docTokens(e *Entry) []string {
	var parts []string
	parts = append(parts, tokenize(e.Name)...)
	parts = append(parts, tokenize(camelSplit(e.Name))...)
	parts = append(parts, tokenize(e.Doc)...)
	parts = append(parts, tokenize(strings.ReplaceAll(e.Category, "/", " "))...)
	for _, op := range e.Operations {
		parts = append(parts, tokenize(camelSplit(op))...)
	}
	return parts
}

// camelSplit breaks CamelCase identifiers into words so "ShoppingCart"
// matches the query "cart".
func camelSplit(s string) string {
	var b strings.Builder
	for i, r := range s {
		if i > 0 && r >= 'A' && r <= 'Z' {
			b.WriteByte(' ')
		}
		b.WriteRune(r)
	}
	return b.String()
}

// Search ranks live entries against the query with TF-IDF cosine-like
// scoring and returns matches in descending score order. Empty queries
// are invalid. Scoring walks the inverted index postings for the query
// tokens only — the corpus is never re-tokenized per query — and full
// entries are materialized only for the top `limit` results, after
// ranking.
func (r *Registry) Search(query string, limit int) ([]Match, error) {
	qTokens := tokenize(query)
	if len(qTokens) == 0 {
		return nil, fmt.Errorf("%w: empty query", ErrInvalid)
	}
	s := r.load()
	ranked := s.searchScored(qTokens, r.now())
	sortScored(ranked)
	if limit > 0 && len(ranked) > limit {
		ranked = ranked[:limit]
	}
	if len(ranked) == 0 {
		return nil, nil
	}
	matches := make([]Match, len(ranked))
	for i, sc := range ranked {
		matches[i] = Match{Entry: *s.entries[sc.name], Score: sc.score}
	}
	return matches, nil
}

// scored is a ranked result before entry materialization: copying a full
// Entry per candidate is the dominant cost of a wide search, so ranking
// carries only (name, score) and the caller copies the survivors.
type scored struct {
	name  string
	score float64
}

// sortScored orders by score descending, name ascending — the Search
// result contract.
func sortScored(ranked []scored) {
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].score != ranked[j].score {
			return ranked[i].score > ranked[j].score
		}
		return ranked[i].name < ranked[j].name
	})
}

// searchScored scores live entries against the query tokens, unsorted.
// Term frequencies come from the index as built at publish time; document
// frequency and corpus size are computed over live entries at query time,
// keeping scores identical to a full scan of the live corpus. When the
// snapshot's lease horizon says every entry is live (the steady state),
// all per-entry liveness checks collapse to map-length reads.
func (s *snapshot) searchScored(qTokens []string, now time.Time) []scored {
	if len(s.entries) == 0 {
		return nil
	}
	allLive := now.Before(s.minLease)
	n := len(s.entries)
	if !allLive {
		n = 0
		for _, e := range s.entries {
			if e.Available(now) {
				n++
			}
		}
		if n == 0 {
			return nil
		}
	}
	nf := float64(n)
	var scores map[string]float64
	for _, q := range qTokens {
		post := s.index[q]
		if len(post) == 0 {
			continue
		}
		df := len(post)
		if !allLive {
			df = 0
			for name := range post {
				if e, ok := s.entries[name]; ok && e.Available(now) {
					df++
				}
			}
			if df == 0 {
				continue
			}
		}
		idf := math.Log(1 + nf/float64(df))
		if scores == nil {
			scores = make(map[string]float64, len(post))
		}
		if allLive {
			for name, tf := range post {
				scores[name] += tf * idf
			}
		} else {
			for name, tf := range post {
				if e, ok := s.entries[name]; ok && e.Available(now) {
					scores[name] += tf * idf
				}
			}
		}
	}
	if len(scores) == 0 {
		return nil
	}
	out := make([]scored, 0, len(scores))
	for name, sc := range scores {
		out = append(out, scored{name: name, score: sc})
	}
	return out
}

// Len reports the number of entries (including lapsed ones).
func (r *Registry) Len() int {
	return len(r.load().entries)
}
