// Package rest is the RESTful service substrate of CSE446's "RESTful
// service development" unit: a small router with path parameters, JSON/XML
// content negotiation, and a composable middleware chain (recovery,
// logging, authentication, rate limiting).
package rest

import (
	"encoding/json"
	"encoding/xml"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
)

// ErrRoute reports an invalid route registration.
var ErrRoute = errors.New("rest: invalid route")

// Params holds path parameters extracted from the matched route pattern.
type Params map[string]string

// HandlerFunc is a REST handler with extracted path parameters. The map is
// the router's, recycled once the handler returns: a handler that keeps
// parameters past its own return copies them.
type HandlerFunc func(w http.ResponseWriter, r *http.Request, p Params)

// paramsPool recycles the Params maps of parameterized routes.
var paramsPool = sync.Pool{New: func() any { return make(Params, 4) }}

func releaseParams(p Params) {
	if p == nil {
		return
	}
	clear(p)
	paramsPool.Put(p)
}

// Middleware wraps a handler with cross-cutting behavior.
type Middleware func(next HandlerFunc) HandlerFunc

// segment is one piece of a route pattern.
type segment struct {
	literal string
	param   string // non-empty for {name} segments
	wild    bool   // true for a trailing *
}

type route struct {
	method   string
	segments []segment
	handler  HandlerFunc
	pattern  string
	// wrapped is handler with the router's middleware chain precompiled
	// around it (rebuilt by Use/Handle, not per request).
	wrapped HandlerFunc
}

// Router dispatches requests by method and path pattern. Patterns use
// {name} for single-segment parameters and a trailing * for a catch-all
// (bound to the parameter "*").
type Router struct {
	routes     []route
	middleware []Middleware
	// NotFound handles unmatched paths; nil uses http.NotFound.
	NotFound http.HandlerFunc
	// MethodNotAllowed handles matched paths with wrong methods; nil
	// writes a 405 with an Allow header.
	MethodNotAllowed func(w http.ResponseWriter, r *http.Request, allowed []string)
}

// NewRouter returns an empty router.
func NewRouter() *Router { return &Router{} }

// Use appends middleware, applied to every route in registration order
// (the first Use is the outermost wrapper). The middleware chain is
// recompiled here — not per request — so dispatch stays allocation-free.
// Use must not race ServeHTTP; register middleware before serving.
func (rt *Router) Use(mw ...Middleware) {
	rt.middleware = append(rt.middleware, mw...)
	for i := range rt.routes {
		rt.routes[i].wrapped = rt.compile(rt.routes[i].handler)
	}
}

// compile wraps h in the current middleware chain, outermost first.
func (rt *Router) compile(h HandlerFunc) HandlerFunc {
	for i := len(rt.middleware) - 1; i >= 0; i-- {
		h = rt.middleware[i](h)
	}
	return h
}

// Handle registers a handler for a method and pattern.
func (rt *Router) Handle(method, pattern string, h HandlerFunc) error {
	if h == nil {
		return fmt.Errorf("%w: nil handler for %s %s", ErrRoute, method, pattern)
	}
	if method == "" || !strings.HasPrefix(pattern, "/") {
		return fmt.Errorf("%w: %q %q", ErrRoute, method, pattern)
	}
	segs, err := parsePattern(pattern)
	if err != nil {
		return err
	}
	for _, existing := range rt.routes {
		if existing.method == method && existing.pattern == pattern {
			return fmt.Errorf("%w: duplicate %s %s", ErrRoute, method, pattern)
		}
	}
	rt.routes = append(rt.routes, route{
		method: method, segments: segs, handler: h, pattern: pattern,
		wrapped: rt.compile(h),
	})
	return nil
}

// GET, POST, PUT and DELETE are Handle shorthands.
func (rt *Router) GET(pattern string, h HandlerFunc) error {
	return rt.Handle(http.MethodGet, pattern, h)
}
func (rt *Router) POST(pattern string, h HandlerFunc) error {
	return rt.Handle(http.MethodPost, pattern, h)
}
func (rt *Router) PUT(pattern string, h HandlerFunc) error {
	return rt.Handle(http.MethodPut, pattern, h)
}
func (rt *Router) DELETE(pattern string, h HandlerFunc) error {
	return rt.Handle(http.MethodDelete, pattern, h)
}

func parsePattern(pattern string) ([]segment, error) {
	parts := strings.Split(strings.Trim(pattern, "/"), "/")
	if pattern == "/" {
		return nil, nil
	}
	segs := make([]segment, 0, len(parts))
	for i, p := range parts {
		switch {
		case p == "*":
			if i != len(parts)-1 {
				return nil, fmt.Errorf("%w: * must be final in %q", ErrRoute, pattern)
			}
			segs = append(segs, segment{wild: true})
		case strings.HasPrefix(p, "{") && strings.HasSuffix(p, "}"):
			name := p[1 : len(p)-1]
			if name == "" {
				return nil, fmt.Errorf("%w: empty parameter in %q", ErrRoute, pattern)
			}
			segs = append(segs, segment{param: name})
		case p == "":
			return nil, fmt.Errorf("%w: empty segment in %q", ErrRoute, pattern)
		default:
			segs = append(segs, segment{literal: p})
		}
	}
	return segs, nil
}

// match walks the path against the route's segments in place — no
// strings.Split. Parameter values are collected in a small stack buffer
// and the Params map is taken from the pool only after the whole route
// matched (static routes get nil, which reads as empty) — a near-miss
// route that binds a parameter before failing on a later segment costs
// nothing. The caller hands the map to releaseParams when done with it.
func match(rte *route, path string) (Params, bool) {
	rest := strings.Trim(path, "/")
	hasParts := rest != ""
	vals := make([]string, 0, 8) // stays on the stack for realistic patterns
	wildVal, matchedWild := "", false
	for si := range rte.segments {
		s := &rte.segments[si]
		if s.wild {
			if hasParts {
				wildVal = rest
			}
			matchedWild, hasParts = true, false
			break
		}
		if !hasParts {
			return nil, false
		}
		var part string
		if k := strings.IndexByte(rest, '/'); k >= 0 {
			part, rest = rest[:k], rest[k+1:]
		} else {
			part, rest = rest, ""
			hasParts = false
		}
		switch {
		case s.param != "":
			vals = append(vals, part)
		case s.literal != part:
			return nil, false
		}
	}
	if hasParts {
		return nil, false
	}
	if len(vals) == 0 && !matchedWild {
		return nil, true
	}
	p := paramsPool.Get().(Params)
	i := 0
	for si := range rte.segments {
		s := &rte.segments[si]
		if s.wild {
			break
		}
		if s.param != "" {
			p[s.param] = vals[i]
			i++
		}
	}
	if matchedWild {
		p["*"] = wildVal
	}
	return p, true
}

// ServeHTTP implements http.Handler. The hot loop considers only routes
// whose method matches, so a path shared across methods (GET and POST
// invoke, say) never pays for a Params map it will not dispatch with;
// the Allow set for 405 responses is recomputed on the cold path.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	for i := range rt.routes {
		rte := &rt.routes[i]
		if rte.method != r.Method {
			continue
		}
		params, ok := match(rte, r.URL.Path)
		if !ok {
			continue
		}
		rte.wrapped(w, r, params)
		releaseParams(params)
		return
	}
	var allowed []string
	for i := range rt.routes {
		rte := &rt.routes[i]
		if rte.method == r.Method {
			continue
		}
		if params, ok := match(rte, r.URL.Path); ok {
			releaseParams(params)
			allowed = append(allowed, rte.method)
		}
	}
	if len(allowed) > 0 {
		if rt.MethodNotAllowed != nil {
			rt.MethodNotAllowed(w, r, allowed)
			return
		}
		sort.Strings(allowed)
		w.Header().Set("Allow", strings.Join(allowed, ", "))
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if rt.NotFound != nil {
		rt.NotFound(w, r)
		return
	}
	http.NotFound(w, r)
}

// Routes lists registered "METHOD pattern" strings, sorted.
func (rt *Router) Routes() []string {
	out := make([]string, len(rt.routes))
	for i, r := range rt.routes {
		out[i] = r.method + " " + r.pattern
	}
	sort.Strings(out)
	return out
}

// Negotiate picks "json" or "xml" from the request's Accept header,
// defaulting to JSON. An explicit format query parameter wins. The scan
// is allocation-free: the raw query is searched for the format pair
// directly (a full url.Values parse per request was the single hottest
// call on the cached-invoke path), and the Accept header is walked in
// place.
func Negotiate(r *http.Request) string {
	if raw := r.URL.RawQuery; raw != "" {
		if f := queryFormat(raw); f == "xml" || f == "json" {
			return f
		}
	}
	accept := r.Header.Get("Accept")
	// First acceptable of our two supported types wins.
	for accept != "" {
		var part string
		if i := strings.IndexByte(accept, ','); i >= 0 {
			part, accept = accept[:i], accept[i+1:]
		} else {
			part, accept = accept, ""
		}
		if i := strings.IndexByte(part, ';'); i >= 0 {
			part = part[:i]
		}
		switch strings.TrimSpace(part) {
		case "application/xml", "text/xml":
			return "xml"
		case "application/json":
			return "json"
		}
	}
	return "json"
}

// queryFormat extracts the first format parameter value from a raw query
// string, mirroring url.ParseQuery's tolerant handling (pairs containing
// semicolons are skipped; escaped values are unescaped only when needed).
func queryFormat(raw string) string {
	for raw != "" {
		var pair string
		if i := strings.IndexByte(raw, '&'); i >= 0 {
			pair, raw = raw[:i], raw[i+1:]
		} else {
			pair, raw = raw, ""
		}
		if strings.IndexByte(pair, ';') >= 0 {
			continue
		}
		v, ok := strings.CutPrefix(pair, "format=")
		if !ok {
			continue
		}
		if strings.ContainsAny(v, "%+") {
			u, err := url.QueryUnescape(v)
			if err != nil {
				continue
			}
			v = u
		}
		return v
	}
	return ""
}

// WriteResponse encodes v in the negotiated format with the given status.
func WriteResponse(w http.ResponseWriter, r *http.Request, status int, v any) {
	switch Negotiate(r) {
	case "xml":
		w.Header().Set("Content-Type", "application/xml; charset=utf-8")
		w.WriteHeader(status)
		enc := xml.NewEncoder(w)
		enc.Indent("", "  ")
		if err := enc.Encode(v); err != nil {
			// Headers are gone; nothing more we can do but log-free
			// best effort.
			fmt.Fprintf(w, "<!-- encoding error: %v -->", err)
		}
	default:
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.WriteHeader(status)
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		//soclint:ignore errdiscard status and headers are already committed and JSON has no comment syntax to carry the failure
		_ = enc.Encode(v)
	}
}

// Problem is the error document returned by WriteError.
type Problem struct {
	XMLName xml.Name `json:"-" xml:"problem"`
	Status  int      `json:"status" xml:"status"`
	Title   string   `json:"title" xml:"title"`
	Detail  string   `json:"detail,omitempty" xml:"detail,omitempty"`
}

// WriteError writes a negotiated error document.
func WriteError(w http.ResponseWriter, r *http.Request, status int, format string, args ...any) {
	WriteResponse(w, r, status, Problem{
		Status: status,
		Title:  http.StatusText(status),
		Detail: fmt.Sprintf(format, args...),
	})
}

// ReadJSON decodes the request body as JSON into v, limited to maxBytes
// (0 means 1 MiB).
func ReadJSON(r *http.Request, v any, maxBytes int64) error {
	if maxBytes <= 0 {
		maxBytes = 1 << 20
	}
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, maxBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("rest: decoding body: %w", err)
	}
	return nil
}
