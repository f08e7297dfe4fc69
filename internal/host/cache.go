package host

import (
	"fmt"
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
// is the one place that reads the request and decides its binding: a
// SOAP envelope is decoded into the keyer, a POST invoke's JSON body is
// read into the keyer's buffer, and a GET invoke's query is parsed into
// the keyer's sorted arguments. The trace parent is parsed here too, from
// the X-Soc-Trace header or, when there is none, from the envelope's
// SocTrace entry. The cache, the dispatch and the answer all take them
// from there; nothing after serve reads r.Body or r.URL.Query().
func (h *Host) serve(w http.ResponseWriter, r *http.Request, p rest.Params, m *mounted) {
	k := keyerPool.Get().(*cacheKeyer)
	defer k.release()
	var req *soap.Message
	tp := r.Header.Get(telemetry.HeaderName)
	_, isREST := p["op"]
	switch {
	case !isREST:
		k.body = callplane.GetBuffer()
		if !m.soapSrv.ReadRequest(w, r, k.body, &k.soap) {
			return
		}
		req = &k.soap
		if tp == "" {
			tp = req.Header[telemetry.SOAPHeaderName]
		}
	case r.Method == http.MethodPost:
		if err := k.readBody(r.Body); err != nil {
			rest.WriteError(w, r, http.StatusBadRequest, "body: %v", err)
			return
		}
	default:
		k.query = queryArgs(k.qbuf[:0], r.URL.RawQuery)
	}
	sc, _ := telemetry.ParseTraceParent(tp)
	if h.cache == nil {
		h.invoke(w, r, p, m, sc, k, req)
		return
	}
	key, opKey, ok := h.cacheKey(k, r, p, m, req)
	if !ok {
		h.invoke(w, r, p, m, sc, k, req)
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
		h.invoke(rec, inner, p, m, sc, k, req)
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
// the decoded envelope req on SOAP, else of what serve read into k — plus
// the operation key ("Service.Operation") for cache-hit instrumentation.
// The key is k's own buffer, valid until k is released. ok is false for
// anything that must bypass the cache: non-idempotent operations and
// bodies that are not JSON.
func (h *Host) cacheKey(k *cacheKeyer, r *http.Request, p rest.Params, m *mounted, req *soap.Message) (key []byte, opKey string, ok bool) {
	if req != nil {
		return h.soapKey(k, m, req)
	}
	return h.invokeKey(k, r, m, p["op"])
}

// invokeKey is the key of a REST invoke: a POST's JSON body in canonical
// form, or a GET's arguments as serve sorted them — the negotiated format
// is already a component of its own.
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
	k.canon.buf = b
	if k.body != nil {
		if !k.canon.canonicalJSON(k.body.B) {
			return nil, "", false // let the dispatch produce the error response
		}
	} else {
		for _, kv := range k.query {
			b = append(b, kv.k...)
			b = append(b, 1)
			b = append(b, kv.v...)
			b = append(b, 0)
		}
		k.canon.buf = b
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

// cacheKeyer is the pooled working memory of one invocation's reading:
// what serve read — a SOAP envelope, decoded into soap, a POST invoke's
// JSON body, or a GET invoke's arguments — and the key under construction
// (and the canonicaliser's stack). Its lifetime is serve's call: release
// gives everything back.
type cacheKeyer struct {
	canon jsonCanon
	body  *callplane.Buffer // the envelope or the POST body; nil on a GET
	soap  soap.Message      // decoded from body on SOAP
	query []queryPair       // a GET's arguments, in qbuf unless there are more
	qbuf  [8]queryPair
}

var keyerPool = sync.Pool{New: func() any { return new(cacheKeyer) }}

// maxInvokeBody bounds a POST invoke body.
const maxInvokeBody = 1 << 20

// readBody reads a POST invoke's body into the keyer's buffer: all of
// it, or an error — the read's own, or one naming the bound once more
// than maxInvokeBody bytes have arrived.
func (k *cacheKeyer) readBody(body io.Reader) error {
	k.body = callplane.GetBuffer()
	if err := k.body.Fill(body, maxInvokeBody+1); err != nil {
		return err
	}
	if len(k.body.B) > maxInvokeBody {
		return fmt.Errorf("larger than %d bytes", maxInvokeBody)
	}
	return nil
}

// reset empties the keyer, keeping the key buffer's capacity.
func (k *cacheKeyer) reset() {
	if k.body != nil {
		k.body.Release()
	}
	clear(k.query) // the strings point into the request
	k.body, k.query = nil, nil
	k.canon.buf, k.canon.idx = k.canon.buf[:0], k.canon.idx[:0]
}

// release ends the keyer's use by the request it served.
func (k *cacheKeyer) release() {
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

// queryArgs parses a GET invoke's raw query into its arguments, appended
// to dst: sorted by name, the first value of each name, and "format" left
// out — what url.ParseQuery's map holds at [name][0], without the map.
func queryArgs(dst []queryPair, raw string) []queryPair {
	pairs := parseQueryPairs(dst, raw)
	sortPairs(pairs)
	args := pairs[:0]
	for i, kv := range pairs {
		if kv.k == "format" || (i > 0 && kv.k == pairs[i-1].k) {
			continue
		}
		args = append(args, kv)
	}
	return args
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
