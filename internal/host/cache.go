package host

import (
	"bytes"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"

	"soc/internal/callplane"
	"soc/internal/respcache"
	"soc/internal/rest"
	"soc/internal/soap"
	"soc/internal/telemetry"
	"soc/internal/xmlkit"
)

// maxCacheableBody bounds how much of a request body the cache keyer will
// buffer; larger requests bypass the cache rather than pin memory.
const maxCacheableBody = 1 << 20

// UseResponseCache installs the idempotent-response cache as router
// middleware and returns the cache for inspection and invalidation.
//
// Only invocation traffic is considered — REST invoke (GET or POST) and
// the SOAP endpoint — and only for operations explicitly declared
// Idempotent in their core.Operation. The key is the operation identity
// plus its canonicalized parameters plus the negotiated response format:
//
//   - GET invoke: query parameters (minus "format") sorted by name;
//   - POST invoke: the JSON body in canonical form (object keys sorted,
//     numbers in one spelling, no whitespace — see canonicalJSON), so
//     {"a":1,"b":2} and {"b":2,"a":1.0} share an entry;
//   - SOAP: the envelope's operation and its parameters sorted by name
//     (whitespace and parameter order in the envelope don't split keys).
//
// Only 200 responses are stored; error responses are returned to every
// collapsed waiter but never cached. Mutations don't flow through keyed
// routes, so there is no write-path invalidation: staleness is bounded
// by the TTL, and Invalidate is available for explicit busts.
func (h *Host) UseResponseCache(capacity int, ttl time.Duration) *respcache.Cache {
	c := respcache.New(capacity, ttl)
	h.Use(h.cacheMiddleware(c))
	return c
}

func (h *Host) cacheMiddleware(c *respcache.Cache) rest.Middleware {
	return func(next rest.HandlerFunc) rest.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request, p rest.Params) {
			k := keyerPool.Get().(*cacheKeyer)
			defer k.release(r)
			key, opKey, ok := h.cacheKey(k, r, p)
			if !ok {
				next(w, r, p)
				return
			}
			entry, hit := c.DoContext(r.Context(), key, func() (*respcache.Entry, bool) {
				rec := respcache.NewRecorder()
				// Mark the miss so the dispatch span downstream annotates
				// itself "respcache=miss".
				next(rec, r.WithContext(telemetry.MarkCacheMiss(r.Context())), p)
				e := rec.Entry()
				return e, e.Status == http.StatusOK
			})
			if hit {
				// Direct canonical-key assignment of a shared value slice:
				// Header.Set canonicalizes and allocates a fresh []string on
				// every hit, which is measurable on the replay path. The
				// shared slices are full (len == cap), so a handler appending
				// to one reallocates instead of mutating it.
				w.Header()["X-Cache"] = xCacheHit
				// A hit is a zero-duration cached span in the caller's
				// trace — and deliberately NOT a latency sample: cached
				// answers would flatter every latency-derived QoS score.
				sc, _ := telemetry.FromHTTPHeader(r.Header)
				h.tracer.Event(sc, telemetry.KindCache, opKey, "respcache", "hit")
				h.instr.RecordCached(opKey)
			} else {
				w.Header()["X-Cache"] = xCacheMiss
			}
			entry.WriteTo(w)
		}
	}
}

// cacheKey derives the cache key for cacheable requests, plus the
// operation key ("Service.Operation") for cache-hit instrumentation. ok
// is false for anything that must bypass the cache: non-invocation
// routes, unknown or non-idempotent operations, unparseable bodies,
// oversized bodies.
func (h *Host) cacheKey(k *cacheKeyer, r *http.Request, p rest.Params) (key, opKey string, ok bool) {
	name := p["name"]
	if name == "" {
		return "", "", false
	}
	m, ok := h.mount(name)
	if !ok {
		return "", "", false
	}
	if opName := p["op"]; opName != "" {
		return h.invokeKey(k, r, m, opName)
	}
	if r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/soap") {
		return h.soapKey(k, r, m)
	}
	return "", "", false
}

func (h *Host) invokeKey(k *cacheKeyer, r *http.Request, m *mounted, opName string) (string, string, bool) {
	if !m.idempotent[opName] {
		return "", "", false
	}
	b := k.canon.buf[:0]
	b = append(b, r.Method...)
	b = append(b, 0)
	b = append(b, rest.Negotiate(r)...)
	b = append(b, 0)
	b = append(b, m.metricKey(opName)...)
	b = append(b, 0)
	switch r.Method {
	case http.MethodGet:
		// Parse the raw query into sorted pairs directly: building a full
		// url.Values map per request was the hottest call on the cache-hit
		// path. Semantics match the map form — first value per key wins,
		// keys sorted, "format" excluded (it is already the negotiated
		// component above).
		var qbuf [8]queryPair
		pairs := parseQueryPairs(qbuf[:0], r.URL.RawQuery)
		sortPairs(pairs)
		prev := ""
		for i, kv := range pairs {
			if kv.k == "format" || (i > 0 && kv.k == prev) {
				continue
			}
			prev = kv.k
			b = append(b, kv.k...)
			b = append(b, 1)
			b = append(b, kv.v...)
			b = append(b, 0)
		}
		k.canon.buf = b
	case http.MethodPost:
		body, ok := k.swapBody(r)
		if !ok {
			return "", "", false
		}
		k.canon.buf = b
		if !k.canon.canonicalJSON(body) {
			return "", "", false // let the handler produce the error response
		}
	default:
		return "", "", false
	}
	return string(k.canon.buf), m.metricKey(opName), true
}

func (h *Host) soapKey(k *cacheKeyer, r *http.Request, m *mounted) (string, string, bool) {
	body, ok := k.swapBody(r)
	if !ok {
		return "", "", false
	}
	// Only an idempotent operation pays for a decoded message: the
	// operation's name is learnt without one. The decoded name is checked
	// again, so what is cached never rests on the two scans agreeing.
	if !m.idempotent[string(soapOperation(body))] {
		return "", "", false
	}
	msg, err := soap.DecodeBytes(body)
	if err != nil || !m.idempotent[msg.Operation] {
		return "", "", false
	}
	var b strings.Builder
	b.WriteString("SOAP\x00")
	b.WriteString(m.metricKey(msg.Operation))
	b.WriteByte(0)
	keys := make([]string, 0, len(msg.Params))
	for k := range msg.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte(1)
		b.WriteString(msg.Params[k])
		b.WriteByte(0)
	}
	return b.String(), m.metricKey(msg.Operation), true
}

// soapOperation returns the local name of the first child element of the
// envelope's Body — the operation soap.DecodeBytes reports for a message
// it accepts — and stops at that start tag. It returns nil where there is
// none to find, which DecodeBytes rejects too. The name aliases body.
func soapOperation(body []byte) []byte {
	s := xmlkit.AcquireScanner(body)
	defer xmlkit.ReleaseScanner(s)
	inBody := false
	for {
		kind, err := s.Next()
		switch {
		case err != nil || kind == xmlkit.NoToken:
			return nil
		case kind == xmlkit.EndToken && inBody:
			return nil // an empty Body
		case kind != xmlkit.StartToken:
		case inBody:
			return s.LocalName()
		case s.Depth() == 1:
			if string(s.LocalName()) != "Envelope" {
				return nil
			}
		case string(s.LocalName()) == "Body":
			inBody = true
		default:
			// A Header or a foreign sibling of Body: skip its subtree.
			for depth := s.Depth() - 1; s.Depth() > depth; {
				if kind, err := s.Next(); err != nil || kind == xmlkit.NoToken {
					return nil
				}
			}
		}
	}
}

// cacheKeyer is the pooled working memory of one request's key
// derivation: the key under construction (and the canonicaliser's
// stack), and the request body read to derive it, which it then replays
// to the inner handler as the request's Body. Its lifetime is the cache
// middleware's call: release gives everything back.
type cacheKeyer struct {
	canon  jsonCanon
	body   *callplane.Buffer // nil unless swapBody ran
	replay bytes.Reader      // over body.B
}

var keyerPool = sync.Pool{New: func() any { return new(cacheKeyer) }}

// swapBody reads the request body (bounded), closes it, and replaces it
// with the keyer so the inner handler can read the same bytes again.
func (k *cacheKeyer) swapBody(r *http.Request) ([]byte, bool) {
	if r.Body == nil {
		return nil, false
	}
	k.body = callplane.GetBuffer()
	err := k.body.Fill(r.Body, maxCacheableBody+1)
	_ = r.Body.Close()
	k.replay.Reset(k.body.B)
	r.Body = k
	if err != nil || len(k.body.B) > maxCacheableBody {
		return nil, false
	}
	return k.body.B, true
}

func (k *cacheKeyer) Read(p []byte) (int, error) { return k.replay.Read(p) }

// Close does nothing: the bytes go back when the middleware returns.
func (k *cacheKeyer) Close() error { return nil }

// reset empties the keyer, keeping the key buffer's capacity.
func (k *cacheKeyer) reset() {
	if k.body != nil {
		k.body.Release()
	}
	k.body = nil
	k.replay.Reset(nil)
	k.canon.buf, k.canon.idx = k.canon.buf[:0], k.canon.idx[:0]
}

// release ends the keyer's use by the request it served.
func (k *cacheKeyer) release(r *http.Request) {
	if r.Body == k {
		r.Body = http.NoBody // the request outlives the keyer
	}
	k.reset()
	if cap(k.canon.buf) <= maxPooledKey {
		keyerPool.Put(k)
	}
}

// maxPooledKey keeps one huge body's key from pinning memory in the pool.
const maxPooledKey = 64 << 10

// Shared X-Cache header values, assigned by canonical key so the hit
// path never pays Header.Set's canonicalization or slice allocation.
var (
	xCacheHit  = []string{"HIT"}
	xCacheMiss = []string{"MISS"}
)

// queryPair is one raw-query key/value, unescaped.
type queryPair struct{ k, v string }

// sortPairs orders pairs by key with a stable insertion sort — queries
// have a handful of parameters, and sort.SliceStable's reflection costs
// more than the sort itself at that size. Stability keeps the first
// parsed value first among duplicate keys.
func sortPairs(pairs []queryPair) {
	for i := 1; i < len(pairs); i++ {
		for j := i; j > 0 && pairs[j].k < pairs[j-1].k; j-- {
			pairs[j], pairs[j-1] = pairs[j-1], pairs[j]
		}
	}
}

// parseQueryPairs splits a raw query into unescaped key/value pairs
// appended to dst, mirroring url.ParseQuery's tolerant semantics — pairs
// containing semicolons or invalid escapes are skipped, a pair without
// '=' reads as an empty value — without allocating a url.Values map.
// Unescaping runs only for tokens that actually contain escapes. Callers
// pass a stack-backed dst so typical queries never touch the heap.
func parseQueryPairs(dst []queryPair, raw string) []queryPair {
	pairs := dst
	for raw != "" {
		var pair string
		if i := strings.IndexByte(raw, '&'); i >= 0 {
			pair, raw = raw[:i], raw[i+1:]
		} else {
			pair, raw = raw, ""
		}
		if pair == "" || strings.IndexByte(pair, ';') >= 0 {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		if strings.ContainsAny(k, "%+") {
			ku, err := url.QueryUnescape(k)
			if err != nil {
				continue
			}
			k = ku
		}
		if strings.ContainsAny(v, "%+") {
			vu, err := url.QueryUnescape(v)
			if err != nil {
				continue
			}
			v = vu
		}
		pairs = append(pairs, queryPair{k: k, v: v})
	}
	return pairs
}
