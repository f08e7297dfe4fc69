package session

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"soc/internal/vtime"
)

func TestSessionLifecycle(t *testing.T) {
	ctx := context.Background()
	m := NewManager()
	s := m.Create(ctx)
	if s.ID == "" || m.Len() != 1 {
		t.Fatalf("create: %+v", s)
	}
	s.Set("user", "ada")
	s.Set("count", 3)
	got, err := m.Get(ctx, s.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.GetString("user") != "ada" {
		t.Errorf("user = %q", got.GetString("user"))
	}
	if v, ok := got.Get("count"); !ok || v != 3 {
		t.Errorf("count = %v", v)
	}
	keys := got.Keys()
	if len(keys) != 2 || keys[0] != "count" {
		t.Errorf("keys = %v", keys)
	}
	got.Delete("count")
	if _, ok := got.Get("count"); ok {
		t.Error("delete failed")
	}
	m.Destroy(s.ID)
	if _, err := m.Get(ctx, s.ID); !errors.Is(err, ErrNoSession) {
		t.Errorf("after destroy: %v", err)
	}
}

func TestSessionExpiry(t *testing.T) {
	clock := vtime.NewVirtual(time.Unix(0, 0))
	ctx := vtime.WithClock(context.Background(), clock)
	m := NewManager(WithTTL(time.Minute))
	s := m.Create(ctx)
	clock.Advance(30 * time.Second)
	if _, err := m.Get(ctx, s.ID); err != nil {
		t.Fatalf("mid-ttl: %v", err)
	}
	// Sliding window: the Get above renewed to +90s.
	clock.Advance(59 * time.Second)
	if _, err := m.Get(ctx, s.ID); err != nil {
		t.Fatalf("slid window: %v", err)
	}
	clock.Advance(2 * time.Minute)
	if _, err := m.Get(ctx, s.ID); !errors.Is(err, ErrNoSession) {
		t.Errorf("expired: %v", err)
	}
}

func TestSweep(t *testing.T) {
	clock := vtime.NewVirtual(time.Unix(0, 0))
	ctx := vtime.WithClock(context.Background(), clock)
	m := NewManager(WithTTL(time.Minute))
	m.Create(ctx)
	m.Create(ctx)
	keep := m.Create(ctx)
	clock.Advance(2 * time.Minute)
	_ = keep // expired too; renew impossible now
	if n := m.Sweep(ctx); n != 3 {
		t.Errorf("swept %d, want 3", n)
	}
	if m.Len() != 0 {
		t.Errorf("len = %d", m.Len())
	}
}

func TestFromRequestCookieFlow(t *testing.T) {
	m := NewManager()
	// First request: no cookie → create + Set-Cookie.
	w := httptest.NewRecorder()
	r := httptest.NewRequest("GET", "/", nil)
	s1 := m.FromRequest(w, r)
	cookies := w.Result().Cookies()
	if len(cookies) != 1 || cookies[0].Name != "SOCSESSION" || cookies[0].Value != s1.ID {
		t.Fatalf("cookies = %v", cookies)
	}
	if !cookies[0].HttpOnly {
		t.Error("cookie not HttpOnly")
	}
	// Second request with the cookie: same session.
	r2 := httptest.NewRequest("GET", "/", nil)
	r2.AddCookie(&http.Cookie{Name: "SOCSESSION", Value: s1.ID})
	w2 := httptest.NewRecorder()
	s2 := m.FromRequest(w2, r2)
	if s2.ID != s1.ID {
		t.Error("session not resumed")
	}
	if len(w2.Result().Cookies()) != 0 {
		t.Error("cookie re-set on resume")
	}
	// Bogus cookie: new session.
	r3 := httptest.NewRequest("GET", "/", nil)
	r3.AddCookie(&http.Cookie{Name: "SOCSESSION", Value: "forged"})
	w3 := httptest.NewRecorder()
	s3 := m.FromRequest(w3, r3)
	if s3.ID == "forged" || s3.ID == s1.ID {
		t.Error("forged session accepted")
	}
}

func TestViewStateRoundTrip(t *testing.T) {
	vs, err := NewViewState([]byte("0123456789abcdef"))
	if err != nil {
		t.Fatal(err)
	}
	state := map[string]string{"page": "signup", "step": "2"}
	token, err := vs.Encode(state)
	if err != nil {
		t.Fatal(err)
	}
	got, err := vs.Decode(token)
	if err != nil {
		t.Fatal(err)
	}
	if got["page"] != "signup" || got["step"] != "2" {
		t.Errorf("got = %v", got)
	}
}

func TestViewStateTamperDetection(t *testing.T) {
	vs, _ := NewViewState([]byte("0123456789abcdef"))
	token, _ := vs.Encode(map[string]string{"role": "user"})
	// Flip a payload byte.
	parts := strings.SplitN(token, ".", 2)
	raw := []byte(parts[0])
	raw[0] ^= 1
	if _, err := vs.Decode(string(raw) + "." + parts[1]); !errors.Is(err, ErrTampered) {
		t.Errorf("payload tamper: %v", err)
	}
	// Wrong key.
	other, _ := NewViewState([]byte("fedcba9876543210"))
	if _, err := other.Decode(token); !errors.Is(err, ErrTampered) {
		t.Errorf("wrong key: %v", err)
	}
	// Garbage tokens.
	for _, bad := range []string{"", "nodot", "a.b", "!!!.!!!"} {
		if _, err := vs.Decode(bad); !errors.Is(err, ErrTampered) {
			t.Errorf("Decode(%q): %v", bad, err)
		}
	}
}

func TestViewStateKeyValidation(t *testing.T) {
	if _, err := NewViewState([]byte("short")); err == nil {
		t.Error("short key accepted")
	}
}

func TestViewStateProperty(t *testing.T) {
	vs, _ := NewViewState([]byte("0123456789abcdef"))
	prop := func(k, v string) bool {
		token, err := vs.Encode(map[string]string{k: v})
		if err != nil {
			return false
		}
		got, err := vs.Decode(token)
		return err == nil && got[k] == v
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestAppState(t *testing.T) {
	a := NewAppState()
	a.Set("visits", 0)
	for i := 0; i < 10; i++ {
		a.Update("visits", func(cur any) any { return cur.(int) + 1 })
	}
	if v, _ := a.Get("visits"); v != 10 {
		t.Errorf("visits = %v", v)
	}
	if _, ok := a.Get("ghost"); ok {
		t.Error("missing key found")
	}
}

func TestCacheBasics(t *testing.T) {
	ctx := context.Background()
	c, err := NewCache(3)
	if err != nil {
		t.Fatal(err)
	}
	c.Put(ctx, "a", 1)
	c.Put(ctx, "b", 2)
	if v, ok := c.Get(ctx, "a"); !ok || v != 1 {
		t.Errorf("a = %v,%v", v, ok)
	}
	if _, ok := c.Get(ctx, "zzz"); ok {
		t.Error("phantom hit")
	}
	h, m := c.Stats()
	if h != 1 || m != 1 {
		t.Errorf("stats = %d/%d", h, m)
	}
	if c.HitRatio() != 0.5 {
		t.Errorf("ratio = %v", c.HitRatio())
	}
}

func TestCacheLRUEviction(t *testing.T) {
	ctx := context.Background()
	c, _ := NewCache(2)
	c.Put(ctx, "a", 1)
	c.Put(ctx, "b", 2)
	c.Get(ctx, "a")    // a is now most recent
	c.Put(ctx, "c", 3) // evicts b
	if _, ok := c.Get(ctx, "b"); ok {
		t.Error("b survived eviction")
	}
	if _, ok := c.Get(ctx, "a"); !ok {
		t.Error("a evicted despite recency")
	}
	if c.Len() != 2 {
		t.Errorf("len = %d", c.Len())
	}
}

func TestCacheTTL(t *testing.T) {
	clock := vtime.NewVirtual(time.Unix(0, 0))
	ctx := vtime.WithClock(context.Background(), clock)
	c, _ := NewCache(10, WithCacheTTL(time.Minute))
	c.Put(ctx, "k", "v")
	clock.Advance(30 * time.Second)
	if _, ok := c.Get(ctx, "k"); !ok {
		t.Error("fresh entry missed")
	}
	clock.Advance(2 * time.Minute)
	if _, ok := c.Get(ctx, "k"); ok {
		t.Error("stale entry served")
	}
}

func TestCacheDependencyInvalidation(t *testing.T) {
	ctx := context.Background()
	c, _ := NewCache(10)
	c.Put(ctx, "user:1:profile", "p1", "user:1")
	c.Put(ctx, "user:1:orders", "o1", "user:1", "orders")
	c.Put(ctx, "user:2:profile", "p2", "user:2")
	if n := c.InvalidateDependency("user:1"); n != 2 {
		t.Errorf("invalidated %d, want 2", n)
	}
	if _, ok := c.Get(ctx, "user:1:profile"); ok {
		t.Error("dependent entry survived")
	}
	if _, ok := c.Get(ctx, "user:2:profile"); !ok {
		t.Error("unrelated entry dropped")
	}
	if n := c.InvalidateDependency("user:1"); n != 0 {
		t.Errorf("second invalidation dropped %d", n)
	}
}

func TestCacheInvalidateSingle(t *testing.T) {
	ctx := context.Background()
	c, _ := NewCache(10)
	c.Put(ctx, "k", 1)
	c.Invalidate("k")
	if _, ok := c.Get(ctx, "k"); ok {
		t.Error("invalidated entry served")
	}
	c.Invalidate("never-existed") // must not panic
}

func TestCacheGetOrCompute(t *testing.T) {
	ctx := context.Background()
	c, _ := NewCache(10)
	calls := 0
	load := func() (any, error) { calls++; return "value", nil }
	for i := 0; i < 3; i++ {
		v, err := c.GetOrCompute(ctx, "k", load)
		if err != nil || v != "value" {
			t.Fatalf("GetOrCompute: %v %v", v, err)
		}
	}
	if calls != 1 {
		t.Errorf("compute ran %d times", calls)
	}
	boom := errors.New("load failed")
	if _, err := c.GetOrCompute(ctx, "bad", func() (any, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Errorf("err = %v", err)
	}
}

func TestCacheReplaceKeepsCapacity(t *testing.T) {
	ctx := context.Background()
	c, _ := NewCache(2)
	c.Put(ctx, "a", 1)
	c.Put(ctx, "a", 2) // replace, not grow
	c.Put(ctx, "b", 3)
	if c.Len() != 2 {
		t.Errorf("len = %d", c.Len())
	}
	if v, _ := c.Get(ctx, "a"); v != 2 {
		t.Errorf("a = %v", v)
	}
}

func TestCacheValidation(t *testing.T) {
	if _, err := NewCache(0); err == nil {
		t.Error("capacity 0 accepted")
	}
}
