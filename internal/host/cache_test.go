package host

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"testing/quick"
	"time"

	"soc/internal/core"
	"soc/internal/respcache"
	"soc/internal/soap"
	"soc/internal/telemetry"
	"soc/internal/vtime"
)

// newCachedHost builds a host with one idempotent and one non-idempotent
// operation, both counting invocations, plus the response cache.
func newCachedHost(t *testing.T, capacity int, ttl time.Duration) (*Host, *atomic.Int64, *atomic.Int64, *respcache.Cache) {
	t.Helper()
	var pureCalls, mutCalls atomic.Int64
	svc, err := core.NewService("Calc", "http://soc.example/calc", "test service")
	if err != nil {
		t.Fatal(err)
	}
	err = svc.AddOperation(core.Operation{
		Name:       "Square",
		Idempotent: true,
		Input:      []core.Param{{Name: "n", Type: core.Int}},
		Output:     []core.Param{{Name: "result", Type: core.Int}},
		Handler: func(_ context.Context, in core.Values) (core.Values, error) {
			pureCalls.Add(1)
			n := in.Int("n")
			return core.Values{"result": n * n}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	err = svc.AddOperation(core.Operation{
		Name:   "Bump",
		Input:  []core.Param{{Name: "n", Type: core.Int}},
		Output: []core.Param{{Name: "count", Type: core.Int}},
		Handler: func(_ context.Context, in core.Values) (core.Values, error) {
			return core.Values{"count": mutCalls.Add(1)}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	h := New()
	h.MustMount(svc)
	c := h.UseResponseCache(capacity, ttl)
	return h, &pureCalls, &mutCalls, c
}

func getInvoke(h *Host, path string) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	return w
}

func TestCacheMiddlewareHit(t *testing.T) {
	h, pure, _, _ := newCachedHost(t, 8, time.Minute)
	w1 := getInvoke(h, "/services/Calc/invoke/Square?n=7")
	w2 := getInvoke(h, "/services/Calc/invoke/Square?n=7")
	w3 := getInvoke(h, "/services/Calc/invoke/Square?n=8")
	if w1.Code != 200 || w2.Code != 200 || w3.Code != 200 {
		t.Fatalf("status codes %d/%d/%d", w1.Code, w2.Code, w3.Code)
	}
	if got := w1.Header().Get("X-Cache"); got != "MISS" {
		t.Errorf("first request X-Cache = %q, want MISS", got)
	}
	if got := w2.Header().Get("X-Cache"); got != "HIT" {
		t.Errorf("repeat request X-Cache = %q, want HIT", got)
	}
	if w1.Body.String() != w2.Body.String() {
		t.Errorf("cached body differs: %q vs %q", w1.Body.String(), w2.Body.String())
	}
	if !strings.Contains(w3.Body.String(), "64") {
		t.Errorf("distinct params served stale entry: %q", w3.Body.String())
	}
	if n := pure.Load(); n != 2 {
		t.Errorf("handler ran %d times, want 2 (n=7 cached, n=8 fresh)", n)
	}
}

// A GET invoke's arguments are the first value of each name, with
// "format" left out — the negotiated format, not an argument — and a host
// with a response cache answers as one without, on the miss and the hit.
func TestCacheGETRepeatedAndFormatParams(t *testing.T) {
	const path = "/services/Calc/invoke/Square?format=xml&n=3&n=5"
	h, pure, _, _ := newCachedHost(t, 8, time.Minute)
	miss, hit := getInvoke(h, path), getInvoke(h, path)
	h.cache = nil
	plain := getInvoke(h, path)
	for _, w := range []*httptest.ResponseRecorder{miss, hit, plain} {
		if w.Code != 200 || w.Body.String() != "<SquareResponse><result>9</result></SquareResponse>" {
			t.Errorf("X-Cache %q: status %d, body %q; want 200 and n=3 squared in XML", w.Header().Get("X-Cache"), w.Code, w.Body)
		}
	}
	if hit.Header().Get("X-Cache") != "HIT" {
		t.Error("the repeated GET was not served from the cache")
	}
	if n := pure.Load(); n != 2 {
		t.Errorf("handler ran %d times, want 2 (the miss and the uncached call)", n)
	}
}

// queryArgs against url.ParseQuery on raw queries drawn from the bytes
// that steer its parse — separators, escapes good and bad, "+", "format",
// a multi-byte rune, empty pairs: for each, the first value of each name
// but "format", sorted by name.
func TestQueryArgsMatchesParseQuery(t *testing.T) {
	tokens := []string{";", "%", "%zz", "%41", "%c3%a9", "+", "=", "&", "&&", "format", "é", "a", "b", "n", "1", ""}
	rng := rand.New(rand.NewSource(1))
	var raw strings.Builder
	for i := 0; i < 200000; i++ {
		raw.Reset()
		for j := rng.Intn(12); j > 0; j-- {
			raw.WriteString(tokens[rng.Intn(len(tokens))])
		}
		values, _ := url.ParseQuery(raw.String())
		want := []queryPair{}
		for name, vs := range values {
			if name != "format" {
				want = append(want, queryPair{name, vs[0]})
			}
		}
		sort.Slice(want, func(i, j int) bool { return want[i].k < want[j].k })
		if got := append([]queryPair{}, queryArgs(nil, raw.String())...); !reflect.DeepEqual(got, want) {
			t.Fatalf("%q:\n got %q\nwant %q", raw.String(), got, want)
		}
	}
}

func TestCacheMiddlewareTTLExpiry(t *testing.T) {
	h, pure, _, _ := newCachedHost(t, 8, time.Minute)
	// Entries age on the clock the request's context carries.
	clock := vtime.NewVirtual(time.Unix(1000, 0))
	ctx := vtime.WithClock(context.Background(), clock)
	get := func() string {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/services/Calc/invoke/Square?n=7", nil).WithContext(ctx))
		return w.Header().Get("X-Cache")
	}

	get()
	clock.Advance(30 * time.Second)
	if get() != "HIT" {
		t.Fatal("entry expired before TTL")
	}
	clock.Advance(31 * time.Second) // 61s > TTL since fill
	if get() != "MISS" {
		t.Fatal("entry served past TTL")
	}
	if n := pure.Load(); n != 2 {
		t.Errorf("handler ran %d times, want 2", n)
	}
}

// TestCacheMiddlewarePanickingOp: an idempotent operation that panics
// answers 500 through Recovery every time it is asked, and never wedges
// its cache key — the second identical request runs the handler again
// instead of parking on the first one's flight.
func TestCacheMiddlewarePanickingOp(t *testing.T) {
	var runs atomic.Int64
	svc, err := core.NewService("Fragile", "http://soc.example/fragile", "test service")
	if err != nil {
		t.Fatal(err)
	}
	err = svc.AddOperation(core.Operation{
		Name:       "Crash",
		Idempotent: true,
		Input:      []core.Param{{Name: "n", Type: core.Int}},
		Output:     []core.Param{{Name: "result", Type: core.Int}},
		Handler: func(context.Context, core.Values) (core.Values, error) {
			runs.Add(1)
			panic("handler bug")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	h := New()
	h.MustMount(svc)
	h.UseResponseCache(8, time.Minute)

	for i := 1; i <= 2; i++ {
		done := make(chan int, 1)
		go func() { done <- getInvoke(h, "/services/Fragile/invoke/Crash?n=1").Code }()
		select {
		case code := <-done:
			if code != http.StatusInternalServerError {
				t.Fatalf("request %d: status %d, want 500", i, code)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("request %d still blocked after 5s: the panicked fill wedged its key", i)
		}
	}
	if n := runs.Load(); n != 2 {
		t.Errorf("handler ran %d times, want 2", n)
	}
}

func TestCacheMiddlewareLRUBound(t *testing.T) {
	h, pure, _, _ := newCachedHost(t, 2, time.Minute)
	getInvoke(h, "/services/Calc/invoke/Square?n=1")
	getInvoke(h, "/services/Calc/invoke/Square?n=2")
	getInvoke(h, "/services/Calc/invoke/Square?n=3") // evicts n=1
	if w := getInvoke(h, "/services/Calc/invoke/Square?n=1"); w.Header().Get("X-Cache") != "MISS" {
		t.Fatal("evicted entry still served")
	}
	if n := pure.Load(); n != 4 {
		t.Errorf("handler ran %d times, want 4", n)
	}
}

func TestCacheMiddlewareNonIdempotentBypass(t *testing.T) {
	h, _, mut, _ := newCachedHost(t, 8, time.Minute)
	w1 := getInvoke(h, "/services/Calc/invoke/Bump?n=1")
	w2 := getInvoke(h, "/services/Calc/invoke/Bump?n=1")
	if w1.Code != 200 || w2.Code != 200 {
		t.Fatalf("status %d/%d", w1.Code, w2.Code)
	}
	if w1.Header().Get("X-Cache") != "" || w2.Header().Get("X-Cache") != "" {
		t.Error("non-idempotent operation went through the cache")
	}
	if n := mut.Load(); n != 2 {
		t.Errorf("handler ran %d times, want 2 (every request)", n)
	}
	if w1.Body.String() == w2.Body.String() {
		t.Error("non-idempotent responses identical; a cached replay leaked")
	}
}

func TestCacheMiddlewarePOSTCanonicalization(t *testing.T) {
	h, pure, _, _ := newCachedHost(t, 8, time.Minute)
	post := func(body string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		r := httptest.NewRequest(http.MethodPost, "/services/Calc/invoke/Square", strings.NewReader(body))
		r.Header.Set("Content-Type", "application/json")
		h.ServeHTTP(w, r)
		return w
	}
	w1 := post(`{"n": 7}`)
	w2 := post(`{ "n" : 7 }`) // same params, different serialization
	if w1.Code != 200 || w2.Code != 200 {
		t.Fatalf("status %d/%d: %s / %s", w1.Code, w2.Code, w1.Body, w2.Body)
	}
	if w2.Header().Get("X-Cache") != "HIT" {
		t.Error("canonically equal POST bodies did not share a cache entry")
	}
	if n := pure.Load(); n != 1 {
		t.Errorf("handler ran %d times, want 1", n)
	}
}

// TestCachePOSTReadErrorIsBadRequest: a POST invoke whose body read
// fails after a complete JSON object is a 400 with the read's error, on a
// host with a response cache as on one without: the host's one read of
// the body fails before the cache or the dispatch, so no handler runs on
// a body cut short.
func TestCachePOSTReadErrorIsBadRequest(t *testing.T) {
	for _, cached := range []bool{false, true} {
		h, pure, _, _ := newCachedHost(t, 8, time.Minute)
		if !cached {
			h.cache = nil
		}
		body := io.MultiReader(strings.NewReader(`{"n":3}`), iotest.ErrReader(errors.New("connection reset")))
		w := httptest.NewRecorder()
		r := httptest.NewRequest(http.MethodPost, "/services/Calc/invoke/Square", body)
		r.Header.Set("Content-Type", "application/json")
		h.ServeHTTP(w, r)
		if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "connection reset") {
			t.Errorf("cache %v: status %d, body %q; want 400 naming the read error", cached, w.Code, w.Body)
		}
		if n := pure.Load(); n != 0 {
			t.Errorf("cache %v: the handler ran %d times on a body cut short", cached, n)
		}
	}
}

func TestCacheMiddlewareSOAP(t *testing.T) {
	h, pure, _, _ := newCachedHost(t, 8, time.Minute)
	call := func() *httptest.ResponseRecorder {
		env, err := soap.Encode(soap.Message{Operation: "Square", Params: map[string]string{"n": "6"}})
		if err != nil {
			t.Fatal(err)
		}
		w := httptest.NewRecorder()
		r := httptest.NewRequest(http.MethodPost, "/services/Calc/soap", strings.NewReader(string(env)))
		r.Header.Set("Content-Type", soap.ContentType)
		h.ServeHTTP(w, r)
		return w
	}
	w1 := call()
	w2 := call()
	if w1.Code != 200 || w2.Code != 200 {
		t.Fatalf("status %d/%d: %s", w1.Code, w2.Code, w1.Body)
	}
	if w2.Header().Get("X-Cache") != "HIT" {
		t.Error("identical SOAP request not served from cache")
	}
	if !strings.Contains(w2.Body.String(), "36") {
		t.Errorf("cached SOAP body = %q", w2.Body.String())
	}
	if n := pure.Load(); n != 1 {
		t.Errorf("handler ran %d times, want 1", n)
	}
}

// A non-idempotent SOAP call is turned away on its operation's name: it
// never looks the cache up, let alone fills it.
func TestCacheMiddlewareSOAPNonIdempotentBypass(t *testing.T) {
	h, _, mut, c := newCachedHost(t, 8, time.Minute)
	env, err := soap.Encode(soap.Message{Operation: "Bump", Params: map[string]string{"n": "1"}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/services/Calc/soap", strings.NewReader(string(env))))
		if w.Code != 200 || w.Header().Get("X-Cache") != "" {
			t.Fatalf("call %d: status %d, X-Cache %q: %s", i, w.Code, w.Header().Get("X-Cache"), w.Body)
		}
		if n := mut.Load(); n != int64(i) {
			t.Fatalf("handler ran %d times after %d calls", n, i)
		}
	}
	if hits, misses := c.Stats(); hits != 0 || misses != 0 || c.Len() != 0 {
		t.Errorf("the cache saw %d hits, %d misses and holds %d entries; want none of each", hits, misses, c.Len())
	}
}

// A SOAP call whose trace rides only in its envelope's SocTrace entry, with
// no X-Soc-Trace header, is in that trace on a cache hit as on the miss:
// the hit's event joins the caller's trace when it is sampled, and there
// is none when it is not.
func TestSOAPCacheHitJoinsTheEnvelopeTrace(t *testing.T) {
	for _, sampled := range []bool{true, false} {
		h, _, _, _ := newCachedHost(t, 8, time.Minute)
		caller := telemetry.SpanContext{TraceID: telemetry.NewTraceID(), SpanID: telemetry.NewSpanID(), Sampled: sampled}
		env, err := soap.Encode(soap.Message{Operation: "Square", Params: map[string]string{"n": "6"},
			Header: map[string]string{telemetry.SOAPHeaderName: telemetry.FormatTraceParent(caller)}})
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{"MISS", "HIT"} {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/services/Calc/soap", strings.NewReader(string(env))))
			if w.Code != http.StatusOK || w.Header().Get("X-Cache") != want {
				t.Fatalf("sampled %v: status %d, X-Cache %q, want %s", sampled, w.Code, w.Header().Get("X-Cache"), want)
			}
		}
		spans := h.tracer.Snapshot()
		if !sampled {
			if len(spans) != 0 {
				t.Errorf("unsampled: the host recorded %d spans, want none: %+v", len(spans), spans)
			}
			continue
		}
		kinds := map[telemetry.Kind]int{}
		for _, sp := range spans {
			kinds[sp.Kind]++
			if sp.TraceID != caller.TraceID || sp.Parent != caller.SpanID {
				t.Errorf("sampled: %v span %q is not a child of the caller's span", sp.Kind, sp.Name)
			}
		}
		if len(spans) != 2 || kinds[telemetry.KindServer] != 1 || kinds[telemetry.KindCache] != 1 {
			t.Errorf("sampled: spans %v, want the miss's server span and the hit's cache event", kinds)
		}
	}
}

func TestCacheMiddlewareSingleflight(t *testing.T) {
	var calls atomic.Int64
	release := make(chan struct{})
	svc, err := core.NewService("Slow", "http://soc.example/slow", "")
	if err != nil {
		t.Fatal(err)
	}
	err = svc.AddOperation(core.Operation{
		Name:       "Wait",
		Idempotent: true,
		Output:     []core.Param{{Name: "ok", Type: core.Bool}},
		Handler: func(_ context.Context, _ core.Values) (core.Values, error) {
			calls.Add(1)
			<-release
			return core.Values{"ok": true}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	h := New()
	h.MustMount(svc)
	h.UseResponseCache(8, time.Minute)

	const n = 12
	var wg sync.WaitGroup
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := getInvoke(h, "/services/Slow/invoke/Wait")
			codes[i] = w.Code
		}(i)
	}
	// Let the stampede pile onto the single flight, then release it.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()

	for i, code := range codes {
		if code != 200 {
			t.Fatalf("request %d: status %d", i, code)
		}
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("stampede of %d identical requests ran the handler %d times, want 1", n, got)
	}
}

// canonicalJSONReference is how the keyer canonicalised a POST body
// before canonicalJSON: unmarshal into a map, marshal it back (map
// marshalling sorts keys). It stays as the oracle: canonicalJSON must
// bypass exactly where this fails and write exactly these bytes where it
// does not — same keys, so the same bodies share a cache entry.
func canonicalJSONReference(body []byte) ([]byte, bool) {
	var params map[string]any
	if err := json.Unmarshal(body, &params); err != nil {
		return nil, false
	}
	canon, err := json.Marshal(params)
	return canon, err == nil
}

func TestCanonicalJSONMatchesReference(t *testing.T) {
	var c jsonCanon
	canon := func(text string) (string, bool) {
		c.buf = append(c.buf[:0], "prefix\x00"...) // as invokeKey leaves it
		ok := c.canonicalJSON([]byte(text))
		if len(c.idx) != 0 && ok {
			t.Errorf("%q: member stack not unwound: %d left", text, len(c.idx))
		}
		return strings.TrimPrefix(string(c.buf), "prefix\x00"), ok
	}
	check := func(text string) bool {
		want, wantOK := canonicalJSONReference([]byte(text))
		got, gotOK := canon(text)
		if wantOK != gotOK {
			t.Errorf("%q: reference cacheable=%v, canonicalJSON cacheable=%v", text, wantOK, gotOK)
			return false
		}
		if wantOK && got != string(want) {
			t.Errorf("%q:\n got %s\nwant %s", text, got, want)
			return false
		}
		return true
	}
	for _, text := range jsonEdgeTexts {
		check(text)
	}
	prop := func(seed int64) bool {
		g := jsonGen{rand.New(rand.NewSource(seed))}
		v := g.object(0)
		a, b := g.text(v), g.text(v)
		if !check(a) || !check(b) || !check(g.damage(a)) {
			return false
		}
		// Two spellings of one value — member order, whitespace, number
		// and escape forms all redrawn — are one key exactly when they were
		// one key before. (They can differ: two keys that are distinct
		// invalid UTF-8 both decode to U+FFFD, and the later one wins.)
		ra, _ := canonicalJSONReference([]byte(a))
		rb, _ := canonicalJSONReference([]byte(b))
		ca, _ := canon(a)
		cb, _ := canon(b)
		if (ca == cb) != (string(ra) == string(rb)) {
			t.Errorf("two spellings share a key: %v, under the reference: %v\n%q → %s\n%q → %s", ca == cb, string(ra) == string(rb), a, ca, b, cb)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

// TestCacheKeySpellingsShareAnEntry drives the equivalence classes through
// the middleware itself: spellings of one body hit one entry, a different
// value misses, and bodies the reference keyer could not parse reach the
// handler uncached with their bytes intact.
func TestCacheKeySpellingsShareAnEntry(t *testing.T) {
	h, pure, _, _ := newCachedHost(t, 64, time.Minute)
	post := func(body string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		r := httptest.NewRequest(http.MethodPost, "/services/Calc/invoke/Square", strings.NewReader(body))
		r.Header.Set("Content-Type", "application/json")
		h.ServeHTTP(w, r)
		return w
	}
	for i, body := range []string{`{"n":12}`, ` { "n" : 12 } `, `{"n":12.0}`, `{"n":1.2e1}`, `{"n":120E-1}`, `{"\u006e":12}`, `{"n":99,"n":12}`} {
		w := post(body)
		want := "HIT"
		if i == 0 {
			want = "MISS"
		}
		if w.Code != 200 || w.Header().Get("X-Cache") != want || !strings.Contains(w.Body.String(), "144") {
			t.Errorf("%s: %d X-Cache=%q %s, want 200 %s 144", body, w.Code, w.Header().Get("X-Cache"), w.Body, want)
		}
	}
	if w := post(`{"n":13}`); w.Header().Get("X-Cache") != "MISS" || !strings.Contains(w.Body.String(), "169") {
		t.Errorf("a different value: X-Cache=%q %s", w.Header().Get("X-Cache"), w.Body)
	}
	if got := pure.Load(); got != 2 {
		t.Errorf("handler ran %d times, want 2", got)
	}
	for _, body := range []string{`{"n":12`, `[12]`, `{"n":1e999}`} {
		if w := post(body); w.Code != http.StatusBadRequest || w.Header().Get("X-Cache") != "" {
			t.Errorf("%s: %d X-Cache=%q, want an uncached 400 from the handler", body, w.Code, w.Header().Get("X-Cache"))
		}
	}
}

// TestCacheHitsOverPooledKeys: goroutines hit and fill the response cache
// at once, each deriving its keys in a pooled keyer whose buffer the next
// request overwrites. Every answer must be its own n's square, and each
// distinct request must miss exactly once: a cache that kept a key's
// bytes instead of a copy would find its entries under keys that later
// requests rewrote, and miss again.
func TestCacheHitsOverPooledKeys(t *testing.T) {
	// Room for every key: nothing is evicted, so every repeat is a hit.
	h, _, _, c := newCachedHost(t, 1024, time.Minute)
	const workers, rounds, keys = 8, 200, 24
	distinct := map[[2]int]bool{}
	for w := 0; w < workers; w++ {
		for i := 0; i < rounds; i++ {
			distinct[[2]int{i % 2, (w*rounds + i) % keys}] = true
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				n := (w*rounds + i) % keys
				var req *http.Request
				if i%2 == 0 {
					req = httptest.NewRequest(http.MethodGet, fmt.Sprintf("/services/Calc/invoke/Square?n=%d", n), nil)
				} else {
					req = httptest.NewRequest(http.MethodPost, "/services/Calc/invoke/Square", strings.NewReader(fmt.Sprintf(`{"n":%d}`, n)))
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if want := fmt.Sprintf(`"result": %d`, n*n); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), want) {
					t.Errorf("n=%d: status %d, body %q, want %s", n, rec.Code, rec.Body.String(), want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if _, misses := c.Stats(); misses != uint64(len(distinct)) {
		t.Errorf("%d misses for %d distinct requests", misses, len(distinct))
	}
}
