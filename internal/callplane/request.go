package callplane

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"

	"soc/internal/telemetry"
)

// NewRequest builds an outbound HTTP request bound to ctx (deadline and
// cancelation) with the context's trace stamped into the X-Soc-Trace
// header. Together with Route.NewRequest and Forward below it
// is the module's context→request construction site; the soclint
// ctxpropagate rule flags any other.
func NewRequest(ctx context.Context, method, url string, body io.Reader) (*http.Request, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return nil, err
	}
	telemetry.InjectHTTP(ctx, req.Header)
	return req, nil
}

// Buffer is a pooled byte buffer of the message plane's client half: a
// binding encodes a request into one and hands it to Route.NewRequest as
// the body, and reads a response into another. Whoever holds a Buffer
// calls Release exactly once, after which B must not be touched.
type Buffer struct{ B []byte }

var bufferPool = sync.Pool{New: func() any { return &Buffer{B: make([]byte, 0, 1024)} }}

// maxPooledBuffer keeps one huge message from pinning memory in the pool.
const maxPooledBuffer = 64 << 10

// GetBuffer returns an empty pooled buffer.
func GetBuffer() *Buffer { return bufferPool.Get().(*Buffer) }

// reset truncates the buffer, keeping its capacity.
func (b *Buffer) reset() { b.B = b.B[:0] }

// Release returns the buffer to the pool.
func (b *Buffer) Release() {
	if cap(b.B) > maxPooledBuffer {
		return
	}
	b.reset()
	bufferPool.Put(b)
}

// Fill appends r to the buffer until EOF or until limit bytes are
// held, whichever is first — io.ReadAll(io.LimitReader(r, limit)) without
// the two wrappers or a fresh slice.
func (b *Buffer) Fill(r io.Reader, limit int64) error {
	for int64(len(b.B)) < limit {
		if len(b.B) == cap(b.B) {
			b.B = append(b.B, 0)[:len(b.B)]
		}
		free := b.B[len(b.B):cap(b.B)]
		if room := limit - int64(len(b.B)); int64(len(free)) > room {
			free = free[:room]
		}
		n, err := r.Read(free)
		b.B = b.B[:len(b.B)+n]
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// MaxResponse bounds how much of one response body a client binding
// buffers: a longer answer is refused, never cut short or read forever.
const MaxResponse = 4 << 20

// FillResponse reads a response body into the buffer: all of it, or an
// error naming the bound once more than MaxResponse bytes have arrived.
func (b *Buffer) FillResponse(r io.Reader) error {
	if err := b.Fill(r, MaxResponse+1); err != nil {
		return err
	}
	if len(b.B) > MaxResponse {
		return fmt.Errorf("response exceeds %d bytes", MaxResponse)
	}
	return nil
}

// Releaser is told when a request body built here is finished with: the
// transport closed it, so no goroutine reads the bytes any more.
type Releaser interface{ Release() }

// replayBody serves a byte slice as a request body. http.Transport may
// still be writing the body after Do has returned an early response, and
// the HTTP/2 transport closes a body from another goroutine than the one
// reading it, so the bytes are given back at the first Close — never after
// Do — and Read and Close exclude each other. Close is idempotent: a
// transport may close twice, the owner hears of it once.
type replayBody struct {
	mu    sync.Mutex
	rd    bytes.Reader
	owner Releaser
}

func (rb *replayBody) Read(p []byte) (int, error) {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	return rb.rd.Read(p)
}

func (rb *replayBody) Close() error {
	rb.mu.Lock()
	owner := rb.owner
	rb.owner = nil
	rb.rd.Reset(nil)
	rb.mu.Unlock()
	if owner != nil {
		owner.Release()
	}
	return nil
}

// outbound is one request with what travels with it, in one allocation:
// the body reader, the trace header's value slice, and the context that
// carries an unsampled root's trace.
type outbound struct {
	req       http.Request
	body      replayBody
	trace     [1]string
	unsampled telemetry.Unsampled
}

// bind points o.req at a copy of tmpl bound to ctx with body as its
// payload, released to owner when the transport closes it.
func (o *outbound) bind(ctx context.Context, tmpl *http.Request, body []byte, owner Releaser) *http.Request {
	// WithContext is the only way to set a request's context; it inlines,
	// so its copy stays on the stack and this assignment is the one copy.
	o.req = *tmpl.WithContext(ctx)
	o.req.Body, o.req.GetBody, o.req.ContentLength = http.NoBody, nil, 0
	if len(body) > 0 {
		o.body.rd.Reset(body)
		o.body.owner = owner
		o.req.Body, o.req.ContentLength = &o.body, int64(len(body))
	} else if owner != nil {
		owner.Release()
	}
	return &o.req
}

// Route is what a binding client knows about one operation's requests
// before any call is made: method, parsed URL, the call's span name and
// the headers every call carries. A client builds it on the first call to
// an operation and keeps it; NewRequest then allocates only what must be
// fresh per request. A Route is immutable and safe for concurrent use.
type Route struct {
	// Name is the span name of calls over this route.
	Name string

	tmpl   http.Request
	header []routeHeader
}

// routeHeader is one static header. vals is full (len == cap) and shared
// by every request of the route: appending reallocates, nobody mutates.
type routeHeader struct {
	key  string
	vals []string
}

// NewRoute resolves a route. header lists key, value pairs.
func NewRoute(method, rawURL, name string, header ...string) (*Route, error) {
	u, err := url.Parse(rawURL)
	if err != nil {
		return nil, err
	}
	rt := &Route{Name: name, tmpl: http.Request{
		Method: method, URL: u, Host: u.Host,
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
	}}
	for i := 0; i+1 < len(header); i += 2 {
		rt.header = append(rt.header, routeHeader{
			key:  http.CanonicalHeaderKey(header[i]),
			vals: []string{header[i+1]},
		})
	}
	return rt, nil
}

// NewRequest builds a request over the route bound to ctx, with
// traceparent — the call's, from telemetry.Tracer.StartCall; "" for an
// untraced call — in the X-Soc-Trace header. When ctx carries no trace,
// the call is an unsampled root, and the request's context carries its
// trace instead, in the request's own allocation: an in-process handler
// then inherits the decision without a context value of its own. body,
// which may be nil, becomes the request body and is released when the
// transport closes it: the caller gives it up here. The request is not
// replayable (GetBody is nil), so a 307/308 redirect is returned to the
// caller, not followed. The URL and the header value slices are shared
// between requests and must be treated as read-only, as the RoundTripper
// contract already asks.
func (rt *Route) NewRequest(ctx context.Context, traceparent string, body *Buffer) *http.Request {
	o := &outbound{}
	h := make(http.Header, len(rt.header)+1)
	for _, kv := range rt.header {
		h[kv.key] = kv.vals
	}
	if traceparent != "" {
		o.trace[0] = traceparent
		h[telemetry.HeaderName] = o.trace[:]
		if !telemetry.SpanContextOf(ctx).Valid() {
			ctx = o.unsampled.Bind(ctx, traceparent)
		}
	}
	var payload []byte
	var owner Releaser
	if body != nil {
		payload, owner = body.B, body
	}
	req := o.bind(ctx, &rt.tmpl, payload, owner)
	req.Header = h
	return req
}

// Forward builds the request a proxy hop sends on: a shallow copy of the
// inbound r — URL, header map and the trace header in it are shared, not
// cloned, because neither a RoundTripper nor a Handler may mutate them —
// bound to ctx, replaying body. owner.Release is called once the
// transport has closed the body, which may be after the exchange returned.
func Forward(ctx context.Context, r *http.Request, body []byte, owner Releaser) *http.Request {
	return (&outbound{}).bind(ctx, r, body, owner)
}

// Records is a binding client's table of per-operation records (a Route,
// and whatever else the binding resolves once per operation), filled on
// the first call to each. A read takes the read lock; a fill takes the
// write lock. The zero value is ready to use.
type Records[K comparable, V any] struct {
	mu sync.RWMutex
	m  map[K]V
}

// maxRecords bounds the table: a client fed operation names from outside
// the program resolves the overflow per call instead of growing forever.
const maxRecords = 1024

// Get returns the record of key, resolving it first if the table has none.
func (t *Records[K, V]) Get(key K, resolve func(K) (V, error)) (V, error) {
	t.mu.RLock()
	v, ok := t.m[key]
	t.mu.RUnlock()
	if ok {
		return v, nil
	}
	v, err := resolve(key)
	if err != nil {
		return v, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if prior, ok := t.m[key]; ok {
		return prior, nil
	}
	if len(t.m) >= maxRecords {
		return v, nil
	}
	if t.m == nil {
		t.m = make(map[K]V)
	}
	t.m[key] = v
	return v, nil
}
