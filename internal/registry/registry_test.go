package registry

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func seedEntries() []Entry {
	return []Entry{
		{Name: "Encryption", Doc: "AES encryption and decryption service", Category: "security/encryption",
			Endpoint: "http://venus/enc", Bindings: []string{"soap", "rest"}, Operations: []string{"Encrypt", "Decrypt"}},
		{Name: "ShoppingCart", Doc: "stateful shopping cart for web stores", Category: "commerce",
			Endpoint: "http://venus/cart", Bindings: []string{"rest"}, Operations: []string{"AddItem", "RemoveItem", "Checkout"}},
		{Name: "Mortgage", Doc: "mortgage application approval with credit score check", Category: "finance/lending",
			Endpoint: "http://venus/mortgage", Bindings: []string{"rest"}, Operations: []string{"Apply", "CheckStatus"}},
		{Name: "ImageVerifier", Doc: "captcha image generation to verify humans", Category: "security/captcha",
			Endpoint: "http://venus/captcha", Bindings: []string{"rest"}, Operations: []string{"NewChallenge", "Verify"}},
	}
}

func seeded(t *testing.T, opts ...Option) *Registry {
	t.Helper()
	r := New(opts...)
	for _, e := range seedEntries() {
		if err := r.Publish(e); err != nil {
			t.Fatalf("Publish(%s): %v", e.Name, err)
		}
	}
	return r
}

func TestPublishValidation(t *testing.T) {
	r := New()
	if err := r.Publish(Entry{}); !errors.Is(err, ErrInvalid) {
		t.Errorf("empty entry: %v", err)
	}
	if err := r.Publish(Entry{Name: "X", Endpoint: "http://x", Category: "Bad Category!"}); !errors.Is(err, ErrInvalid) {
		t.Errorf("bad category: %v", err)
	}
	if err := r.Publish(Entry{Name: "X", Endpoint: "http://x", Category: "a/b-c/d2"}); err != nil {
		t.Errorf("good category rejected: %v", err)
	}
}

func TestPublishPreservesFirstPublishedTime(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	r := New(WithClock(clock))
	_ = r.Publish(Entry{Name: "A", Endpoint: "http://a"})
	first, _ := r.Get("A")
	now = now.Add(time.Hour)
	_ = r.Publish(Entry{Name: "A", Endpoint: "http://a2"})
	second, _ := r.Get("A")
	if !second.Published.Equal(first.Published) {
		t.Errorf("published changed on re-publish: %v vs %v", second.Published, first.Published)
	}
	if second.Endpoint != "http://a2" {
		t.Errorf("endpoint not updated")
	}
}

func TestGetListUnpublish(t *testing.T) {
	r := seeded(t)
	e, err := r.Get("Mortgage")
	if err != nil || e.Category != "finance/lending" {
		t.Errorf("Get: %+v %v", e, err)
	}
	if _, err := r.Get("Ghost"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing Get: %v", err)
	}
	if got := r.List(true); len(got) != 4 || got[0].Name != "Encryption" {
		t.Errorf("List = %v", got)
	}
	if err := r.Unpublish("Mortgage"); err != nil {
		t.Fatal(err)
	}
	if err := r.Unpublish("Mortgage"); !errors.Is(err, ErrNotFound) {
		t.Errorf("double unpublish: %v", err)
	}
	if entryCount(r) != 3 {
		t.Errorf("Len = %d", entryCount(r))
	}
}

func TestLeaseExpiryAndHeartbeat(t *testing.T) {
	now := time.Unix(0, 0)
	r := New(WithClock(func() time.Time { return now }), WithLease(time.Minute))
	_ = r.Publish(Entry{Name: "A", Endpoint: "http://a"})
	_ = r.Publish(Entry{Name: "B", Endpoint: "http://b"})
	now = now.Add(30 * time.Second)
	if err := r.Heartbeat("A"); err != nil {
		t.Fatal(err)
	}
	now = now.Add(45 * time.Second) // A alive (75s < 30+60), B lapsed (75s > 60)
	live := r.List(true)
	if len(live) != 1 || live[0].Name != "A" {
		t.Errorf("live = %v", live)
	}
	all := r.List(false)
	if len(all) != 2 {
		t.Errorf("all = %v", all)
	}
	if err := r.Heartbeat("Ghost"); !errors.Is(err, ErrNotFound) {
		t.Errorf("heartbeat missing: %v", err)
	}
}

func TestEvict(t *testing.T) {
	now := time.Unix(0, 0)
	r := New(WithClock(func() time.Time { return now }), WithLease(time.Minute))
	_ = r.Publish(Entry{Name: "A", Endpoint: "http://a"})
	_ = r.Publish(Entry{Name: "B", Endpoint: "http://b"})
	now = now.Add(2 * time.Minute)
	_ = r.Heartbeat("B")
	evicted := r.Evict(30 * time.Second)
	if len(evicted) != 1 || evicted[0] != "A" {
		t.Errorf("evicted = %v", evicted)
	}
	if entryCount(r) != 1 {
		t.Errorf("Len = %d", entryCount(r))
	}
}

func TestByCategoryAndCategories(t *testing.T) {
	r := seeded(t)
	sec := r.ByCategory("security")
	if len(sec) != 2 {
		t.Errorf("security = %v", sec)
	}
	enc := r.ByCategory("security/encryption")
	if len(enc) != 1 || enc[0].Name != "Encryption" {
		t.Errorf("security/encryption = %v", enc)
	}
	if got := r.ByCategory("sec"); got != nil {
		t.Errorf("prefix must be taxonomy-path based, got %v", got)
	}
	cats := r.Categories()
	if len(cats) != 4 || cats[0] != "commerce" {
		t.Errorf("categories = %v", cats)
	}
}

func TestSearchRanking(t *testing.T) {
	r := seeded(t)
	matches, err := r.Search("encryption", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 || matches[0].Entry.Name != "Encryption" {
		t.Errorf("encryption query = %v", matches)
	}
	// CamelCase splitting: "cart" must find ShoppingCart.
	matches, err = r.Search("cart", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 || matches[0].Entry.Name != "ShoppingCart" {
		t.Errorf("cart query = %v", matches)
	}
	// Operation names are indexed.
	matches, _ = r.Search("checkout", 0)
	if len(matches) != 1 || matches[0].Entry.Name != "ShoppingCart" {
		t.Errorf("checkout query = %v", matches)
	}
	// Multi-term query.
	matches, _ = r.Search("credit score mortgage", 0)
	if len(matches) == 0 || matches[0].Entry.Name != "Mortgage" {
		t.Errorf("multi-term = %v", matches)
	}
	if _, err := r.Search("", 0); !errors.Is(err, ErrInvalid) {
		t.Errorf("empty query: %v", err)
	}
	if _, err := r.Search("!!!", 0); !errors.Is(err, ErrInvalid) {
		t.Errorf("no-token query: %v", err)
	}
}

func TestSearchLimitAndOrder(t *testing.T) {
	r := seeded(t)
	matches, err := r.Search("service image verify security", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) > 2 {
		t.Errorf("limit ignored: %d", len(matches))
	}
	for i := 1; i < len(matches); i++ {
		if matches[i].Score > matches[i-1].Score {
			t.Errorf("not sorted: %v", matches)
		}
	}
}

func TestSearchSkipsLapsedEntries(t *testing.T) {
	now := time.Unix(0, 0)
	r := New(WithClock(func() time.Time { return now }), WithLease(time.Minute))
	_ = r.Publish(Entry{Name: "Encryption", Doc: "encryption", Endpoint: "http://e"})
	now = now.Add(2 * time.Minute)
	matches, err := r.Search("encryption", 0)
	if err != nil || len(matches) != 0 {
		t.Errorf("lapsed entry surfaced: %v %v", matches, err)
	}
}

func TestAPIEndToEnd(t *testing.T) {
	reg := New()
	ts := httptest.NewServer(NewAPI(reg))
	defer ts.Close()
	c := NewClient(ts.URL)
	ctx := context.Background()

	for _, e := range seedEntries() {
		if err := c.Publish(ctx, e); err != nil {
			t.Fatalf("Publish: %v", err)
		}
	}
	var list []Entry
	err := c.do(ctx, "List", http.MethodGet, "/registry/services", nil, &list)
	if err != nil || len(list) != 4 {
		t.Fatalf("List: %d %v", len(list), err)
	}
	e, err := c.Get(ctx, "ShoppingCart")
	if err != nil || e.Category != "commerce" {
		t.Errorf("Get: %+v %v", e, err)
	}
	if err := c.Heartbeat(ctx, "ShoppingCart"); err != nil {
		t.Errorf("Heartbeat: %v", err)
	}
	matches, err := c.Search(ctx, "captcha", 5)
	if err != nil || len(matches) == 0 || matches[0].Entry.Name != "ImageVerifier" {
		t.Errorf("Search: %v %v", matches, err)
	}
	if err := c.Unpublish(ctx, "Mortgage"); err != nil {
		t.Errorf("Unpublish: %v", err)
	}
	if _, err := c.Get(ctx, "Mortgage"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get after unpublish: %v", err)
	}
	if err := c.Heartbeat(ctx, "Ghost"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Heartbeat ghost: %v", err)
	}
	if err := c.Publish(ctx, Entry{Name: "", Endpoint: ""}); !errors.Is(err, ErrInvalid) {
		t.Errorf("invalid publish: %v", err)
	}
	if _, err := c.Search(ctx, "", 0); !errors.Is(err, ErrInvalid) {
		t.Errorf("empty search: %v", err)
	}
}

func TestConcurrentPublishSearch(t *testing.T) {
	r := seeded(t)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			_ = r.Publish(Entry{Name: "Churn", Doc: "temporary churn service", Endpoint: "http://c"})
			_ = r.Unpublish("Churn")
		}
	}()
	for i := 0; i < 200; i++ {
		if _, err := r.Search("service", 0); err != nil {
			t.Fatalf("Search during churn: %v", err)
		}
	}
	<-done
}

// A registry answer one byte over the client's 4 MiB bound is refused
// with an error naming the bound — the client used to decode whatever
// the peer sent, however long — and one of exactly the bound decodes.
func TestClientBoundsTheResponse(t *testing.T) {
	const bound = 4 << 20
	answer := func(size int) *Client {
		body := `{"name":"Big","doc":"` + strings.Repeat("x", size-len(`{"name":"Big","doc":""}`)) + `"}`
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_, _ = io.WriteString(w, body)
		}))
		t.Cleanup(ts.Close)
		return NewClient(ts.URL)
	}
	ctx := context.Background()
	if _, err := answer(bound+1).Get(ctx, "Big"); err == nil || !strings.Contains(err.Error(), "exceeds 4194304 bytes") {
		t.Errorf("4 MiB + 1: err = %v, want … exceeds 4194304 bytes", err)
	}
	e, err := answer(bound).Get(ctx, "Big")
	if err != nil || len(e.Doc) != bound-len(`{"name":"Big","doc":""}`) {
		t.Errorf("4 MiB: err = %v, %d doc bytes decoded", err, len(e.Doc))
	}
}

// entryCount is the number of entries r holds, lapsed ones included.
func entryCount(r *Registry) int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.entries)
}
