package host

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"soc/internal/core"
	"soc/internal/respcache"
	"soc/internal/soap"
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

// soapOperation names the operation soap.DecodeBytes finds, for every
// envelope DecodeBytes takes — so a cacheable request keeps its key — and
// finds none in envelopes that have none to find.
func TestSOAPOperationMatchesDecode(t *testing.T) {
	const ns = `xmlns:s="http://schemas.xmlsoap.org/soap/envelope/"`
	encoded, err := soap.Encode(soap.Message{
		Operation: "Square", Namespace: "http://soc.example/calc",
		Header: map[string]string{"SocTrace": "00-ab-cd-01"}, Params: map[string]string{"n": "6"},
	})
	if err != nil {
		t.Fatal(err)
	}
	accepted, refused := 0, 0
	for _, env := range []string{
		string(encoded),
		`<s:Envelope ` + ns + `><s:Body><Square><n>6</n></Square></s:Body></s:Envelope>`,
		`<?xml version="1.0"?><!-- c --><Envelope> <Header><Body><Wrong/></Body></Header> <Other><Body><Wrong/></Body></Other>
			<Body> text <!-- c --> <c:Square xmlns:c="urn:c"/> </Body></Envelope>`,
		`<Envelope><Header/><Body><Square/></Body></Envelope>`,
		`<Envelope><Body><Body><Square/></Body></Body></Envelope>`,
		`<Envelope><Body><Square/><Bump/></Body></Envelope>`, // two children: refused, whatever the first is
		`<Envelope><Body><Fault><faultcode>Client</faultcode></Fault></Body></Envelope>`,
		`<Envelope><Body></Body></Envelope>`,
		`<Envelope><Body/></Envelope>`,
		`<Envelope><Header><Square/></Header></Envelope>`,
		`<Envelope></Envelope>`,
		`<Body><Square/></Body>`,
		`<Envelope><Body><Square>`,
		`<Envelope><Header><a></Header><Body><Square/></Body></Envelope>`,
		`<Envelope><Body><Square></Bump></Body></Envelope>`,
		``, `not xml`, `<`,
	} {
		got := string(soapOperation([]byte(env)))
		msg, err := soap.DecodeBytes([]byte(env))
		switch {
		case err == nil && got != msg.Operation:
			t.Errorf("%s:\n soapOperation = %q, DecodeBytes found %q", env, got, msg.Operation)
		case err == nil:
			accepted++
		case got == "":
			refused++
		}
	}
	// The corpus must reach both answers, or the loop above proves nothing.
	if accepted < 5 || refused < 8 {
		t.Errorf("corpus: %d envelopes accepted, %d found without an operation", accepted, refused)
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
