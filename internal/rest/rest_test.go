package rest

import (
	"bytes"
	"context"
	"encoding/json"
	"encoding/xml"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func doReq(t *testing.T, h http.Handler, method, path string, body string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	var rdr *strings.Reader
	if body == "" {
		rdr = strings.NewReader("")
	} else {
		rdr = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rdr)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func TestRouterLiteralAndParams(t *testing.T) {
	rt := NewRouter()
	if err := rt.GET("/services", func(w http.ResponseWriter, r *http.Request, p Params) {
		w.Write([]byte("list"))
	}); err != nil {
		t.Fatal(err)
	}
	if err := rt.GET("/services/{name}/ops/{op}", func(w http.ResponseWriter, r *http.Request, p Params) {
		w.Write([]byte(p["name"] + ":" + p["op"]))
	}); err != nil {
		t.Fatal(err)
	}
	if got := doReq(t, rt, "GET", "/services", "", nil).Body.String(); got != "list" {
		t.Errorf("literal route = %q", got)
	}
	if got := doReq(t, rt, "GET", "/services/cart/ops/add", "", nil).Body.String(); got != "cart:add" {
		t.Errorf("param route = %q", got)
	}
}

func TestRouterWildcard(t *testing.T) {
	rt := NewRouter()
	_ = rt.GET("/files/*", func(w http.ResponseWriter, r *http.Request, p Params) {
		w.Write([]byte(p["*"]))
	})
	if got := doReq(t, rt, "GET", "/files/a/b/c.txt", "", nil).Body.String(); got != "a/b/c.txt" {
		t.Errorf("wildcard = %q", got)
	}
	if got := doReq(t, rt, "GET", "/files/", "", nil).Body.String(); got != "" {
		t.Errorf("empty wildcard = %q", got)
	}
}

func TestRouterRoot(t *testing.T) {
	rt := NewRouter()
	_ = rt.GET("/", func(w http.ResponseWriter, r *http.Request, p Params) {
		w.Write([]byte("home"))
	})
	if got := doReq(t, rt, "GET", "/", "", nil).Body.String(); got != "home" {
		t.Errorf("root = %q", got)
	}
	if code := doReq(t, rt, "GET", "/other", "", nil).Code; code != http.StatusNotFound {
		t.Errorf("unmatched = %d", code)
	}
}

func TestRouterNotFoundAndMethodNotAllowed(t *testing.T) {
	rt := NewRouter()
	_ = rt.GET("/a", func(w http.ResponseWriter, r *http.Request, p Params) {})
	_ = rt.Handle(http.MethodPut, "/a", func(w http.ResponseWriter, r *http.Request, p Params) {})
	w := doReq(t, rt, "POST", "/a", "", nil)
	if w.Code != http.StatusMethodNotAllowed {
		t.Errorf("code = %d", w.Code)
	}
	allow := w.Header().Get("Allow")
	if !strings.Contains(allow, "GET") || !strings.Contains(allow, "PUT") {
		t.Errorf("Allow = %q", allow)
	}
	if doReq(t, rt, "GET", "/missing", "", nil).Code != http.StatusNotFound {
		t.Error("not-found not returned")
	}
	called := false
	rt.NotFound = func(w http.ResponseWriter, r *http.Request) { called = true; w.WriteHeader(418) }
	if doReq(t, rt, "GET", "/missing", "", nil).Code != 418 || !called {
		t.Error("custom NotFound not used")
	}
}

func TestRouterRegistrationErrors(t *testing.T) {
	rt := NewRouter()
	h := func(w http.ResponseWriter, r *http.Request, p Params) {}
	if err := rt.GET("/a", nil); err == nil {
		t.Error("nil handler accepted")
	}
	if err := rt.GET("no-slash", h); err == nil {
		t.Error("pattern without leading slash accepted")
	}
	if err := rt.GET("/a/*/b", h); err == nil {
		t.Error("mid-pattern wildcard accepted")
	}
	if err := rt.GET("/a/{}/b", h); err == nil {
		t.Error("empty parameter accepted")
	}
	if err := rt.GET("/a//b", h); err == nil {
		t.Error("empty segment accepted")
	}
	if err := rt.GET("/dup", h); err != nil {
		t.Fatal(err)
	}
	if err := rt.GET("/dup", h); err == nil {
		t.Error("duplicate route accepted")
	}
	if err := rt.Handle("", "/x", h); err == nil {
		t.Error("empty method accepted")
	}
}

func TestRoutesListing(t *testing.T) {
	rt := NewRouter()
	h := func(w http.ResponseWriter, r *http.Request, p Params) {}
	_ = rt.GET("/b", h)
	_ = rt.POST("/a", h)
	got := rt.Routes()
	if len(got) != 2 || got[0] != "GET /b" || got[1] != "POST /a" {
		t.Errorf("Routes = %v", got)
	}
}

func TestNegotiate(t *testing.T) {
	cases := []struct {
		accept, query, want string
	}{
		{"", "", "json"},
		{"application/json", "", "json"},
		{"application/xml", "", "xml"},
		{"text/xml", "", "xml"},
		{"text/html, application/xml;q=0.9", "", "xml"},
		{"application/xml", "format=json", "json"},
		{"application/json", "format=xml", "xml"},
		{"*/*", "", "json"},
	}
	for _, c := range cases {
		url := "/x"
		if c.query != "" {
			url += "?" + c.query
		}
		r := httptest.NewRequest("GET", url, nil)
		if c.accept != "" {
			r.Header.Set("Accept", c.accept)
		}
		if got := Negotiate(r); got != c.want {
			t.Errorf("Negotiate(accept=%q query=%q) = %q, want %q", c.accept, c.query, got, c.want)
		}
	}
}

type payload struct {
	XMLName xml.Name `json:"-" xml:"payload"`
	Name    string   `json:"name" xml:"name"`
	N       int      `json:"n" xml:"n"`
}

func TestWriteResponseJSONAndXML(t *testing.T) {
	rt := NewRouter()
	_ = rt.GET("/p", func(w http.ResponseWriter, r *http.Request, p Params) {
		WriteResponse(w, r, http.StatusCreated, payload{Name: "x", N: 3})
	})
	w := doReq(t, rt, "GET", "/p", "", nil)
	if w.Code != http.StatusCreated || !strings.Contains(w.Header().Get("Content-Type"), "json") {
		t.Errorf("json resp: %d %q", w.Code, w.Header().Get("Content-Type"))
	}
	var pj payload
	if err := json.Unmarshal(w.Body.Bytes(), &pj); err != nil || pj.Name != "x" || pj.N != 3 {
		t.Errorf("json body: %v %+v", err, pj)
	}
	w = doReq(t, rt, "GET", "/p", "", map[string]string{"Accept": "application/xml"})
	if !strings.Contains(w.Header().Get("Content-Type"), "xml") {
		t.Errorf("xml content type = %q", w.Header().Get("Content-Type"))
	}
	var px payload
	if err := xml.Unmarshal(w.Body.Bytes(), &px); err != nil || px.Name != "x" || px.N != 3 {
		t.Errorf("xml body: %v %+v (%s)", err, px, w.Body.String())
	}
}

func TestWriteError(t *testing.T) {
	rt := NewRouter()
	_ = rt.GET("/e", func(w http.ResponseWriter, r *http.Request, p Params) {
		WriteError(w, r, http.StatusBadRequest, "bad %s", "thing")
	})
	w := doReq(t, rt, "GET", "/e", "", nil)
	if w.Code != http.StatusBadRequest {
		t.Errorf("code = %d", w.Code)
	}
	var prob Problem
	if err := json.Unmarshal(w.Body.Bytes(), &prob); err != nil {
		t.Fatal(err)
	}
	if prob.Status != 400 || prob.Detail != "bad thing" {
		t.Errorf("problem = %+v", prob)
	}
}

func TestReadJSON(t *testing.T) {
	r := httptest.NewRequest("POST", "/x", strings.NewReader(`{"name":"a","n":1}`))
	var p payload
	if err := ReadJSON(r, &p, 0); err != nil || p.Name != "a" {
		t.Errorf("ReadJSON: %v %+v", err, p)
	}
	r = httptest.NewRequest("POST", "/x", strings.NewReader(`{"unknown":true}`))
	if err := ReadJSON(r, &p, 0); err == nil {
		t.Error("unknown field accepted")
	}
	r = httptest.NewRequest("POST", "/x", strings.NewReader(strings.Repeat("x", 100)))
	if err := ReadJSON(r, &p, 10); err == nil {
		t.Error("oversized body accepted")
	}
}

func TestRecoveryMiddleware(t *testing.T) {
	rt := NewRouter()
	rt.Use(Recovery())
	_ = rt.GET("/boom", func(w http.ResponseWriter, r *http.Request, p Params) {
		panic("exploded")
	})
	w := doReq(t, rt, "GET", "/boom", "", nil)
	if w.Code != http.StatusInternalServerError {
		t.Errorf("code = %d", w.Code)
	}
	if !strings.Contains(w.Body.String(), "exploded") {
		t.Errorf("body = %q", w.Body.String())
	}
}

func TestLoggingMiddleware(t *testing.T) {
	var buf bytes.Buffer
	logger := log.New(&buf, "", 0)
	rt := NewRouter()
	rt.Use(Logging(logger))
	_ = rt.GET("/ok", func(w http.ResponseWriter, r *http.Request, p Params) {
		w.WriteHeader(http.StatusAccepted)
	})
	doReq(t, rt, "GET", "/ok", "", nil)
	line := buf.String()
	if !strings.Contains(line, "GET /ok") || !strings.Contains(line, "202") {
		t.Errorf("log line = %q", line)
	}
}

func TestBearerAuth(t *testing.T) {
	rt := NewRouter()
	rt.Use(BearerAuth(func(tok string) (string, bool) {
		if tok == "secret" {
			return "alice", true
		}
		return "", false
	}))
	_ = rt.GET("/me", func(w http.ResponseWriter, r *http.Request, p Params) {
		who, _ := Principal(r)
		w.Write([]byte(who))
	})
	if code := doReq(t, rt, "GET", "/me", "", nil).Code; code != http.StatusUnauthorized {
		t.Errorf("no token: %d", code)
	}
	if code := doReq(t, rt, "GET", "/me", "", map[string]string{"Authorization": "Bearer wrong"}).Code; code != http.StatusUnauthorized {
		t.Errorf("bad token: %d", code)
	}
	w := doReq(t, rt, "GET", "/me", "", map[string]string{"Authorization": "Bearer secret"})
	if w.Code != http.StatusOK || w.Body.String() != "alice" {
		t.Errorf("good token: %d %q", w.Code, w.Body.String())
	}
}

func TestRateLimit(t *testing.T) {
	rt := NewRouter()
	rt.Use(RateLimit(2, 0.0001)) // effectively no refill during the test
	_ = rt.GET("/r", func(w http.ResponseWriter, r *http.Request, p Params) {})
	if doReq(t, rt, "GET", "/r", "", nil).Code != http.StatusOK {
		t.Error("first request limited")
	}
	if doReq(t, rt, "GET", "/r", "", nil).Code != http.StatusOK {
		t.Error("second request limited")
	}
	if doReq(t, rt, "GET", "/r", "", nil).Code != http.StatusTooManyRequests {
		t.Error("third request not limited")
	}
}

func TestTimeoutMiddleware(t *testing.T) {
	rt := NewRouter()
	rt.Use(Timeout(20 * time.Millisecond))
	_ = rt.GET("/slow", func(w http.ResponseWriter, r *http.Request, p Params) {
		select {
		case <-r.Context().Done():
			return // honor cancellation without writing
		case <-time.After(2 * time.Second):
			w.Write([]byte("too late"))
		}
	})
	_ = rt.GET("/fast", func(w http.ResponseWriter, r *http.Request, p Params) {
		w.Write([]byte("quick"))
	})
	w := doReq(t, rt, "GET", "/slow", "", nil)
	if w.Code != http.StatusServiceUnavailable {
		t.Errorf("slow code = %d", w.Code)
	}
	w = doReq(t, rt, "GET", "/fast", "", nil)
	if w.Code != http.StatusOK || w.Body.String() != "quick" {
		t.Errorf("fast = %d %q", w.Code, w.Body.String())
	}
}

func TestRequestID(t *testing.T) {
	rt := NewRouter()
	rt.Use(RequestID())
	_ = rt.GET("/x", func(w http.ResponseWriter, r *http.Request, p Params) {})
	w1 := doReq(t, rt, "GET", "/x", "", nil)
	w2 := doReq(t, rt, "GET", "/x", "", nil)
	id1, id2 := w1.Header().Get("X-Request-ID"), w2.Header().Get("X-Request-ID")
	if id1 == "" || id1 == id2 {
		t.Errorf("ids = %q, %q", id1, id2)
	}
}

func TestMiddlewareOrder(t *testing.T) {
	var order []string
	mk := func(name string) Middleware {
		return func(next HandlerFunc) HandlerFunc {
			return func(w http.ResponseWriter, r *http.Request, p Params) {
				order = append(order, name)
				next(w, r, p)
			}
		}
	}
	rt := NewRouter()
	rt.Use(mk("outer"), mk("inner"))
	_ = rt.GET("/x", func(w http.ResponseWriter, r *http.Request, p Params) {
		order = append(order, "handler")
	})
	doReq(t, rt, "GET", "/x", "", nil)
	if strings.Join(order, ",") != "outer,inner,handler" {
		t.Errorf("order = %v", order)
	}
}

func TestPrincipalAbsent(t *testing.T) {
	r := httptest.NewRequest("GET", "/", nil)
	if _, ok := Principal(r.WithContext(context.Background())); ok {
		t.Error("principal present on bare request")
	}
}
