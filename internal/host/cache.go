package host

import (
	"bytes"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"soc/internal/callplane"
	"soc/internal/respcache"
	"soc/internal/rest"
	"soc/internal/soap"
	"soc/internal/telemetry"
)

// maxCacheableBody bounds how much of a request body the cache keyer will
// buffer; larger requests bypass the cache rather than pin memory.
const maxCacheableBody = 1 << 20

// UseResponseCache installs the idempotent-response cache in front of
// the host's dispatch and returns the cache, for its Stats and Len. It
// sits innermost, after the mount lookup and inside every middleware
// installed with Use; a second call replaces the cache.
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
// routes, so there is no invalidation: staleness is bounded by the TTL.
func (h *Host) UseResponseCache(capacity int, ttl time.Duration) *respcache.Cache {
	c := respcache.New(capacity, ttl)
	h.cache = c
	return c
}

// serve answers an invocation of the mounted service m — through the
// response cache when the host has one and the request is cacheable. It
// reads the request once: a SOAP envelope is decoded here, into the keyer,
// and the trace parent is parsed here, from the X-Soc-Trace header or,
// when there is none, from the envelope's SocTrace entry; the cache, the
// dispatch and the answer all take them from there.
func (h *Host) serve(w http.ResponseWriter, r *http.Request, p rest.Params, m *mounted) {
	k := keyerPool.Get().(*cacheKeyer)
	defer k.release(r)
	var req *soap.Message
	tp := r.Header.Get(telemetry.HeaderName)
	if _, isREST := p["op"]; !isREST {
		k.body = callplane.GetBuffer()
		if !m.soapSrv.ReadRequest(w, r, k.body, &k.soap) {
			return
		}
		req = &k.soap
		if tp == "" {
			tp = req.Header[telemetry.SOAPHeaderName]
		}
	}
	sc, _ := telemetry.ParseTraceParent(tp)
	if h.cache == nil {
		h.invoke(w, r, p, m, sc, req)
		return
	}
	key, opKey, ok := h.cacheKey(k, r, p, m, req)
	if !ok {
		h.invoke(w, r, p, m, sc, req)
		return
	}
	entry, hit := h.cache.DoContext(r.Context(), key, func() (*respcache.Entry, bool) {
		rec := respcache.NewRecorder()
		inner := r
		if !sc.Valid() || sc.Sampled {
			// Mark the miss so the dispatch span downstream annotates
			// itself "respcache=miss"; an unsampled trace has no span.
			inner = r.WithContext(telemetry.MarkCacheMiss(r.Context()))
		}
		h.invoke(rec, inner, p, m, sc, req)
		e := rec.Entry()
		return e, e.Status == http.StatusOK
	})
	if hit {
		// Direct canonical-key assignment of a shared value slice:
		// Header.Set canonicalizes and allocates a fresh []string on
		// every hit, which is measurable on the replay path. The shared
		// slices are full (len == cap), so a handler appending to one
		// reallocates instead of mutating it.
		w.Header()["X-Cache"] = xCacheHit
		// A hit is a zero-duration cached span in the caller's trace —
		// and deliberately NOT a latency sample: cached answers would
		// flatter every latency-derived QoS score.
		h.tracer.Event(r.Context(), sc, telemetry.KindCache, opKey, "respcache", "hit")
		h.instr.RecordCached(opKey)
	} else {
		w.Header()["X-Cache"] = xCacheMiss
	}
	entry.WriteTo(w)
}

// cacheKey derives the cache key for a cacheable invocation of m — of
// the decoded envelope req on SOAP — plus the operation key
// ("Service.Operation") for cache-hit instrumentation. The key is k's own
// buffer, valid until k is released. ok is false for anything that must
// bypass the cache: non-idempotent operations, unparseable bodies,
// oversized bodies.
func (h *Host) cacheKey(k *cacheKeyer, r *http.Request, p rest.Params, m *mounted, req *soap.Message) (key []byte, opKey string, ok bool) {
	if req != nil {
		return h.soapKey(k, m, req)
	}
	return h.invokeKey(k, r, m, p["op"])
}

func (h *Host) invokeKey(k *cacheKeyer, r *http.Request, m *mounted, opName string) ([]byte, string, bool) {
	if !m.idempotent[opName] {
		return nil, "", false
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
			return nil, "", false
		}
		k.canon.buf = b
		if !k.canon.canonicalJSON(body) {
			return nil, "", false // let the handler produce the error response
		}
	default:
		return nil, "", false
	}
	return k.canon.buf, m.metricKey(opName), true
}

// soapKey is the key of the envelope req: its operation and its
// parameters sorted by name — each with the value the decode kept, the
// last of a repeated one — so that whitespace and parameter order in the
// envelope do not split keys.
func (h *Host) soapKey(k *cacheKeyer, m *mounted, req *soap.Message) ([]byte, string, bool) {
	if !m.idempotent[req.Operation] {
		return nil, "", false
	}
	var pbuf [8]soap.Param
	params := pbuf[:0]
	for _, name := range req.ParamOrder {
		params = append(params, soap.Param{Name: name, Value: req.Params[name]})
	}
	b := append(k.canon.buf[:0], "SOAP\x00"...)
	b = append(b, m.metricKey(req.Operation)...)
	b = append(b, 0)
	for _, p := range soap.SortParams(params) {
		b = append(b, p.Name...)
		b = append(b, 1)
		b = append(b, p.Value...)
		b = append(b, 0)
	}
	k.canon.buf = b
	return b, m.metricKey(req.Operation), true
}

// cacheKeyer is the pooled working memory of one request's reading: the
// request body — a SOAP envelope, decoded into soap, or a POST invoke's
// JSON, which it replays to the inner handler as the request's Body — and
// the key under construction (and the canonicaliser's stack). Its
// lifetime is serve's call: release gives everything back.
type cacheKeyer struct {
	canon  jsonCanon
	body   *callplane.Buffer // nil unless swapBody or the SOAP read ran
	replay bytes.Reader      // over body.B
	// readErr is what cut swapBody's read of the request body short;
	// the replay ends in it instead of io.EOF.
	readErr error
	soap    soap.Message // decoded from body on SOAP
}

var keyerPool = sync.Pool{New: func() any { return new(cacheKeyer) }}

// swapBody reads the request body (bounded), closes it, and replaces it
// with the keyer so the inner handler can read the same bytes again —
// and, when the read failed, the same error after them.
func (k *cacheKeyer) swapBody(r *http.Request) ([]byte, bool) {
	if r.Body == nil {
		return nil, false
	}
	k.body = callplane.GetBuffer()
	k.readErr = k.body.Fill(r.Body, maxCacheableBody+1)
	_ = r.Body.Close()
	k.replay.Reset(k.body.B)
	r.Body = k
	if k.readErr != nil || len(k.body.B) > maxCacheableBody {
		return nil, false
	}
	return k.body.B, true
}

func (k *cacheKeyer) Read(p []byte) (int, error) {
	n, err := k.replay.Read(p)
	if err == io.EOF && k.readErr != nil {
		err = k.readErr
	}
	return n, err
}

// Close does nothing: the bytes go back when the middleware returns.
func (k *cacheKeyer) Close() error { return nil }

// reset empties the keyer, keeping the key buffer's capacity.
func (k *cacheKeyer) reset() {
	if k.body != nil {
		k.body.Release()
	}
	k.body, k.readErr = nil, nil
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
