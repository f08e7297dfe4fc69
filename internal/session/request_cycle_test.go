package session

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"soc/internal/vtime"
)

// These tests pin the full request-cycle behavior of the session layer:
// state set during one HTTP request is visible in the next request that
// presents the same cookie, distinct clients never share state, and a
// session survives concurrent mutation under the race detector.

// visitHandler counts visits and accumulates a per-session cart string —
// a miniature of the Figure 4 shopping-cart webapp.
func visitHandler(m *Manager) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s := m.FromRequest(w, r)
		visits, _ := s.Get("visits")
		n, _ := visits.(int)
		s.Set("visits", n+1)
		if item := r.URL.Query().Get("add"); item != "" {
			s.Set("cart", s.GetString("cart")+item+";")
		}
		fmt.Fprintf(w, "%d|%s", n+1, s.GetString("cart"))
	})
}

func TestStatePersistsAcrossRequests(t *testing.T) {
	m := NewManager()
	srv := httptest.NewServer(visitHandler(m))
	defer srv.Close()

	jar := &singleCookie{}
	get := func(path string) string {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, srv.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		jar.apply(req)
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		jar.capture(resp)
		buf := make([]byte, 256)
		n, _ := resp.Body.Read(buf)
		return string(buf[:n])
	}

	if got := get("/?add=widget"); got != "1|widget;" {
		t.Fatalf("first request: %q", got)
	}
	if got := get("/?add=gadget"); got != "2|widget;gadget;" {
		t.Fatalf("second request lost state: %q", got)
	}
	if got := get("/"); got != "3|widget;gadget;" {
		t.Fatalf("third request: %q", got)
	}
	if m.Len() != 1 {
		t.Fatalf("%d sessions for one client, want 1", m.Len())
	}
}

func TestDistinctClientsGetDistinctSessions(t *testing.T) {
	m := NewManager()
	srv := httptest.NewServer(visitHandler(m))
	defer srv.Close()

	for i := 0; i < 3; i++ {
		// No cookie sent: every bare request is a new client.
		resp, err := srv.Client().Get(srv.URL + "/?add=item" + strconv.Itoa(i))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	if m.Len() != 3 {
		t.Fatalf("%d sessions for 3 cookie-less clients, want 3", m.Len())
	}
}

func TestSessionConcurrentMutation(t *testing.T) {
	m := NewManager()
	s := m.Create(context.Background())
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			key := "k" + strconv.Itoa(w)
			for i := 0; i < 100; i++ {
				s.Set(key, i)
				if _, ok := s.Get(key); !ok {
					t.Errorf("worker %d lost its key", w)
					return
				}
				s.Keys()
			}
		}(w)
	}
	wg.Wait()
	if got := len(s.Keys()); got != workers {
		t.Fatalf("%d keys after concurrent writes, want %d", got, workers)
	}
}

func TestExpiredSessionReplacedInRequestCycle(t *testing.T) {
	clock := vtime.NewVirtual(time.Unix(0, 0))
	m := NewManager(WithTTL(time.Minute))
	// Every request the server reads carries the virtual clock.
	srv := httptest.NewUnstartedServer(visitHandler(m))
	srv.Config.BaseContext = func(net.Listener) context.Context {
		return vtime.WithClock(context.Background(), clock)
	}
	srv.Start()
	defer srv.Close()

	jar := &singleCookie{}
	do := func() string {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, srv.URL+"/?add=x", nil)
		if err != nil {
			t.Fatal(err)
		}
		jar.apply(req)
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		jar.capture(resp)
		buf := make([]byte, 64)
		n, _ := resp.Body.Read(buf)
		return string(buf[:n])
	}

	if got := do(); got != "1|x;" {
		t.Fatalf("first request: %q", got)
	}
	clock.Advance(2 * time.Minute) // session TTL elapses
	if got := do(); got != "1|x;" {
		t.Fatalf("expired session kept its state: %q", got)
	}
}

// singleCookie is a minimal cookie jar for one session cookie.
type singleCookie struct{ cookie *http.Cookie }

func (j *singleCookie) apply(req *http.Request) {
	if j.cookie != nil {
		req.AddCookie(j.cookie)
	}
}

func (j *singleCookie) capture(resp *http.Response) {
	for _, c := range resp.Cookies() {
		j.cookie = c
	}
}
