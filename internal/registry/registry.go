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

// Registry is an in-memory service directory, safe for concurrent use.
// One RWMutex guards the directory: lookups share the read lock, and a
// mutation takes the write lock and changes only the entry and the
// postings it touches.
type Registry struct {
	mu      sync.RWMutex
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
		entries: map[string]*Entry{},
		index:   map[string]map[string]float64{},
		docTF:   map[string]map[string]float64{},
		lease:   5 * time.Minute,
		now:     time.Now,
	}
	for _, o := range opts {
		o(r)
	}
	return r
}

// resetHorizon recomputes the lease horizon after a mutation. The caller
// must hold the write lock.
func (r *Registry) resetHorizon() {
	r.minLease = time.Time{}
	first := true
	for _, e := range r.entries {
		if first || e.LeaseExpires.Before(r.minLease) {
			r.minLease = e.LeaseExpires
			first = false
		}
	}
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
	r.mu.Lock()
	defer r.mu.Unlock()
	r.install(r.resolve(e))
	return nil
}

// resolve stamps e with what a publish grants now: the Published time of
// an entry it re-registers (or now, for a new one) and a fresh lease. The
// caller must hold the lock.
func (r *Registry) resolve(e Entry) Entry {
	now := r.now()
	if old, ok := r.entries[e.Name]; ok {
		e.Published = old.Published
	} else {
		e.Published = now
	}
	e.LeaseExpires = now.Add(r.lease)
	return e
}

// install puts e in the directory as given and replaces its postings. The
// caller must hold the write lock.
func (r *Registry) install(e Entry) {
	r.entries[e.Name] = &e
	r.indexEntry(&e)
	r.resetHorizon()
}

// indexEntry (re)computes the entry's term-frequency vector and installs
// its postings.
func (r *Registry) indexEntry(e *Entry) {
	r.unindex(e.Name)
	toks := docTokens(e)
	tf := make(map[string]float64, len(toks))
	for _, t := range toks {
		tf[t]++
	}
	norm := float64(len(toks))
	for t := range tf {
		tf[t] /= norm
	}
	r.docTF[e.Name] = tf
	for t, v := range tf {
		post := r.index[t]
		if post == nil {
			post = map[string]float64{}
			r.index[t] = post
		}
		post[e.Name] = v
	}
}

// unindex removes the entry's postings.
func (r *Registry) unindex(name string) {
	for t := range r.docTF[name] {
		post := r.index[t]
		delete(post, name)
		if len(post) == 0 {
			delete(r.index, t)
		}
	}
	delete(r.docTF, name)
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
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.resolve(e), nil
}

// restore installs an entry verbatim — Published and LeaseExpires
// included — and rebuilds its index postings. It is the replay primitive
// of the durable registry: restoring the same entry always produces the
// same state, which keeps crash recovery deterministic.
func (r *Registry) restore(e Entry) error {
	if err := validateEntry(e); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.install(e)
	return nil
}

// setLease pins an entry's lease expiry to an exact instant — the replay
// primitive behind durable heartbeats.
func (r *Registry) setLease(name string, t time.Time) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.renew(name, t)
}

// Heartbeat renews the lease of an entry.
func (r *Registry) Heartbeat(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.renew(name, r.now().Add(r.lease))
}

// renew moves the named entry's lease expiry to t. Indexed fields never
// change through this path, so the postings stay as they are. The caller
// must hold the write lock.
func (r *Registry) renew(name string, t time.Time) error {
	e, ok := r.entries[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	e.LeaseExpires = t
	r.resetHorizon()
	return nil
}

// Unpublish removes an entry.
func (r *Registry) Unpublish(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.entries[name]; !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	delete(r.entries, name)
	r.unindex(name)
	r.resetHorizon()
	return nil
}

// Get returns the entry by name.
func (r *Registry) Get(name string) (Entry, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[name]
	if !ok {
		return Entry{}, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return *e, nil
}

// List returns all entries sorted by name. When liveOnly, lapsed leases
// are filtered out.
func (r *Registry) List(liveOnly bool) []Entry {
	r.mu.RLock()
	now := r.now()
	out := make([]Entry, 0, len(r.entries))
	for _, e := range r.entries {
		if liveOnly && !e.Available(now) {
			continue
		}
		out = append(out, *e)
	}
	r.mu.RUnlock()
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
//
//soclint:ignore unreached ROADMAP 22(a) and 15: the evict-lost-on-restart hook of the bug zoo and the churn loops sweep lapsed leases with it
func (r *Registry) Evict(grace time.Duration) []string {
	r.mu.Lock()
	now := r.now()
	var evicted []string
	for name, e := range r.entries {
		if now.Sub(e.LeaseExpires) > grace {
			delete(r.entries, name)
			r.unindex(name)
			evicted = append(evicted, name)
		}
	}
	if len(evicted) > 0 {
		r.resetHorizon()
	}
	r.mu.Unlock()
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
	r.mu.RLock()
	defer r.mu.RUnlock()
	ranked := r.searchScored(qTokens, r.now())
	sortScored(ranked)
	if limit > 0 && len(ranked) > limit {
		ranked = ranked[:limit]
	}
	if len(ranked) == 0 {
		return nil, nil
	}
	matches := make([]Match, len(ranked))
	for i, sc := range ranked {
		matches[i] = Match{Entry: *r.entries[sc.name], Score: sc.score}
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
// lease horizon says every entry is live (the steady state), all
// per-entry liveness checks collapse to map-length reads. The caller must
// hold the read lock.
func (r *Registry) searchScored(qTokens []string, now time.Time) []scored {
	if len(r.entries) == 0 {
		return nil
	}
	allLive := now.Before(r.minLease)
	n := len(r.entries)
	if !allLive {
		n = 0
		for _, e := range r.entries {
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
		post := r.index[q]
		if len(post) == 0 {
			continue
		}
		df := len(post)
		if !allLive {
			df = 0
			for name := range post {
				if e, ok := r.entries[name]; ok && e.Available(now) {
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
				if e, ok := r.entries[name]; ok && e.Available(now) {
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
