package rest

import (
	"encoding/json"
	"encoding/xml"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"soc/internal/telemetry"
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
	if allow != "GET, PUT" {
		t.Errorf("Allow = %q, want the sorted methods", allow)
	}
	w = doReq(t, rt, "GET", "/missing", "", nil)
	if w.Code != http.StatusNotFound || w.Body.String() != "404 page not found\n" {
		t.Errorf("unmatched path: %d %q, want http.NotFound's answer", w.Code, w.Body.String())
	}
	if w.Header().Get("Allow") != "" {
		t.Errorf("404 carries Allow %q", w.Header().Get("Allow"))
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
	if err := ReadJSON(r, &p); err != nil || p.Name != "a" {
		t.Errorf("ReadJSON: %v %+v", err, p)
	}
	r = httptest.NewRequest("POST", "/x", strings.NewReader(`{"unknown":true}`))
	if err := ReadJSON(r, &p); err == nil {
		t.Error("unknown field accepted")
	}
	// A valid document one byte past the 1 MiB limit: the decoder reads
	// into the limit before the object closes.
	big := `{"name":"` + strings.Repeat("a", 1<<20-len(`{"name":"`+`"}`)+1) + `"}`
	r = httptest.NewRequest("POST", "/x", strings.NewReader(big))
	var maxErr *http.MaxBytesError
	if err := ReadJSON(r, &p); !errors.As(err, &maxErr) || maxErr.Limit != 1<<20 {
		t.Errorf("body over 1 MiB: err = %v, want a 1 MiB MaxBytesError", err)
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

// TestRecoveryRepanicsAbort pins Recovery's pass-through: a handler
// aborting with http.ErrAbortHandler, bare or wrapped, re-panics through
// Recovery so net/http kills the connection, and no 500 is written.
func TestRecoveryRepanicsAbort(t *testing.T) {
	for _, abort := range []error{http.ErrAbortHandler, fmt.Errorf("drop: %w", http.ErrAbortHandler)} {
		h := Recovery()(func(w http.ResponseWriter, r *http.Request, p Params) { panic(abort) })
		w := httptest.NewRecorder()
		func() {
			defer func() {
				if rec := recover(); rec != abort {
					t.Errorf("panic(%v): Recovery re-panicked with %v", abort, rec)
				}
			}()
			h(w, httptest.NewRequest("GET", "/drop", nil), nil)
		}()
		if w.Code != http.StatusOK || w.Body.Len() != 0 {
			t.Errorf("panic(%v): wrote %d %q, want nothing", abort, w.Code, w.Body.String())
		}
	}
}

// caller is the client span a traced request arrives under.
var caller = telemetry.SpanContext{TraceID: telemetry.TraceID{1, 2, 3}, SpanID: telemetry.SpanID{4, 5, 6}, Sampled: true}

// TestTracing checks Tracing's server span: parented on the caller's
// span from X-Soc-Trace, named "METHOD /path", annotated with the binding
// and, on an error answer, the status.
func TestTracing(t *testing.T) {
	tr := telemetry.NewSamplingTracer(16, 1)
	rt := NewRouter()
	rt.Use(Tracing(tr))
	_ = rt.GET("/svc/{op}", func(w http.ResponseWriter, r *http.Request, p Params) {
		if telemetry.SpanContextOf(r.Context()).TraceID != caller.TraceID {
			t.Error("handler context left the caller's trace")
		}
		if p["op"] == "missing" {
			WriteError(w, r, http.StatusNotFound, "no such op")
		}
	})

	for _, c := range []struct {
		path string
		want []telemetry.Annotation
	}{
		{"/svc/add", []telemetry.Annotation{{Key: "binding", Value: "rest"}}},
		{"/svc/missing", []telemetry.Annotation{{Key: "binding", Value: "rest"}, {Key: "status", Value: "404"}}},
	} {
		cursor := tr.Recorded()
		doReq(t, rt, "GET", c.path, "", map[string]string{telemetry.HeaderName: telemetry.FormatTraceParent(caller)})
		spans, _, _ := tr.Since(cursor)
		if len(spans) != 1 {
			t.Fatalf("GET %s recorded %d spans, want 1", c.path, len(spans))
		}
		sp := spans[0]
		if sp.TraceID != caller.TraceID || sp.Parent != caller.SpanID {
			t.Errorf("GET %s: span in trace %s under %s, want %s under %s", c.path, sp.TraceID, sp.Parent, caller.TraceID, caller.SpanID)
		}
		if sp.Name != "GET "+c.path || sp.Kind != telemetry.KindServer {
			t.Errorf("GET %s: span %q kind %s", c.path, sp.Name, sp.Kind)
		}
		if got := sp.Annotations(); !slices.Equal(got, c.want) {
			t.Errorf("GET %s: annotations %v, want %v", c.path, got, c.want)
		}
	}

	unsampled := caller
	unsampled.Sampled = false
	cursor := tr.Recorded()
	doReq(t, rt, "GET", "/svc/add", "", map[string]string{telemetry.HeaderName: telemetry.FormatTraceParent(unsampled)})
	if spans, _, _ := tr.Since(cursor); len(spans) != 0 {
		t.Errorf("unsampled trace recorded %d spans", len(spans))
	}
}

func TestTracingNilTracer(t *testing.T) {
	rt := NewRouter()
	rt.Use(Tracing(nil))
	_ = rt.GET("/x", func(w http.ResponseWriter, r *http.Request, p Params) {
		w.WriteHeader(http.StatusAccepted)
	})
	if code := doReq(t, rt, "GET", "/x", "", nil).Code; code != http.StatusAccepted {
		t.Errorf("code = %d, want the handler's 202", code)
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
