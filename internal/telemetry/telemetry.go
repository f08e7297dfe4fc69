// Package telemetry is the observability spine of the call plane: a
// W3C-traceparent-style trace context (trace ID, span ID, parent) that
// crosses service boundaries in the X-Soc-Trace HTTP header and the
// SocTrace SOAP header block, pooled span recording into a bounded ring
// buffer per host, and the shared instrument set (per-operation counters
// and latency histograms) that GET /metricz exposes. One originating call
// — through the resilient client, across retries and failover hops, into
// provider dispatch, cache lookups and workflow activities — renders as a
// single trace tree.
//
// The package is allocation-disciplined because it rides the hot message
// plane: span starts draw from a sync.Pool (reset before Put), finished
// spans are copied by value into a preallocated ring, IDs come from
// math/rand/v2 without heap traffic, and the header value is formatted
// once per span and cached.
package telemetry

import (
	"context"
	"math/rand/v2"
	"net/http"
)

// Wire names of the propagated trace context.
const (
	// HeaderName is the HTTP request header carrying the trace context,
	// formatted like a W3C traceparent: "00-<32 hex>-<16 hex>-01".
	HeaderName = "X-Soc-Trace"
	// SOAPHeaderName is the SOAP <Header> entry carrying the same value,
	// so the context survives SOAP intermediaries that drop HTTP headers.
	SOAPHeaderName = "SocTrace"
)

// TraceID identifies one end-to-end trace (16 bytes, hex on the wire).
type TraceID [16]byte

// SpanID identifies one span within a trace (8 bytes, hex on the wire).
type SpanID [8]byte

// IsZero reports an unset trace ID.
func (id TraceID) IsZero() bool { return id == TraceID{} }

// IsZero reports an unset span ID.
func (id SpanID) IsZero() bool { return id == SpanID{} }

const hexDigits = "0123456789abcdef"

func appendHex(dst []byte, b []byte) []byte {
	for _, x := range b {
		dst = append(dst, hexDigits[x>>4], hexDigits[x&0xF])
	}
	return dst
}

// String renders the trace ID as 32 lowercase hex digits.
func (id TraceID) String() string {
	return string(appendHex(make([]byte, 0, 32), id[:]))
}

// String renders the span ID as 16 lowercase hex digits.
func (id SpanID) String() string {
	return string(appendHex(make([]byte, 0, 16), id[:]))
}

// SpanContext is the propagated identity of one span: the trace it
// belongs to and its own ID (the parent of any child started under it).
type SpanContext struct {
	TraceID TraceID
	SpanID  SpanID
}

// Valid reports whether the context identifies a real span.
func (sc SpanContext) Valid() bool { return !sc.TraceID.IsZero() && !sc.SpanID.IsZero() }

// NewTraceID returns a random non-zero trace ID.
func NewTraceID() TraceID {
	var id TraceID
	for id.IsZero() {
		a, b := rand.Uint64(), rand.Uint64()
		for i := 0; i < 8; i++ {
			id[i] = byte(a >> (8 * i))
			id[8+i] = byte(b >> (8 * i))
		}
	}
	return id
}

// NewSpanID returns a random non-zero span ID.
func NewSpanID() SpanID {
	var id SpanID
	for id.IsZero() {
		a := rand.Uint64()
		for i := 0; i < 8; i++ {
			id[i] = byte(a >> (8 * i))
		}
	}
	return id
}

// traceParentLen is len("00-") + 32 + len("-") + 16 + len("-01").
const traceParentLen = 3 + 32 + 1 + 16 + 3

// AppendTraceParent appends the wire form "00-<trace>-<span>-01" to dst.
func AppendTraceParent(dst []byte, sc SpanContext) []byte {
	dst = append(dst, "00-"...)
	dst = appendHex(dst, sc.TraceID[:])
	dst = append(dst, '-')
	dst = appendHex(dst, sc.SpanID[:])
	dst = append(dst, "-01"...)
	return dst
}

// FormatTraceParent renders the wire form of the span context.
func FormatTraceParent(sc SpanContext) string {
	return string(AppendTraceParent(make([]byte, 0, traceParentLen), sc))
}

func hexNibble(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	case c >= 'A' && c <= 'F':
		return c - 'A' + 10, true
	}
	return 0, false
}

func parseHex(dst []byte, s string) bool {
	for i := range dst {
		hi, ok1 := hexNibble(s[2*i])
		lo, ok2 := hexNibble(s[2*i+1])
		if !ok1 || !ok2 {
			return false
		}
		dst[i] = hi<<4 | lo
	}
	return true
}

// ParseTraceParent parses the wire form back into a span context. It
// accepts any version prefix and trailing flags, requiring only the
// "xx-<32 hex>-<16 hex>-..." shape; zero IDs are rejected.
func ParseTraceParent(s string) (SpanContext, bool) {
	var sc SpanContext
	if len(s) < traceParentLen || s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return sc, false
	}
	if !parseHex(sc.TraceID[:], s[3:35]) || !parseHex(sc.SpanID[:], s[36:52]) {
		return sc, false
	}
	return sc, sc.Valid()
}

// FromHTTPHeader parses the X-Soc-Trace header, if present and valid.
// The parse allocates nothing, so provider hot paths call it per request.
func FromHTTPHeader(h http.Header) (SpanContext, bool) {
	v := h.Get(HeaderName)
	if v == "" {
		return SpanContext{}, false
	}
	return ParseTraceParent(v)
}

// ---- context plumbing ----

type (
	spanKey      struct{}
	tracerKey    struct{}
	cacheMissKey struct{}
)

// ContextWithSpan returns a context carrying sp as the active span.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	return context.WithValue(ctx, spanKey{}, sp)
}

// SpanFromContext returns the active span, or nil.
func SpanFromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}

// ContextWithTracer returns a context carrying a tracer, so layers
// without an explicit tracer handle (workflow activities, library code)
// can still start child spans via StartSpanFromContext.
func ContextWithTracer(ctx context.Context, t *Tracer) context.Context {
	return context.WithValue(ctx, tracerKey{}, t)
}

// TracerFromContext returns the ambient tracer, or nil.
func TracerFromContext(ctx context.Context) *Tracer {
	t, _ := ctx.Value(tracerKey{}).(*Tracer)
	return t
}

// SpanContextOf resolves the identity a child span would be parented on:
// the active span's context, or invalid. A remote parent never rides the
// context; it is passed as a value (StartSpanRemote, Tracer.Event).
func SpanContextOf(ctx context.Context) SpanContext {
	if sp := SpanFromContext(ctx); sp != nil {
		return sp.Context()
	}
	return SpanContext{}
}

// Annotate attaches a key/value annotation to the active span, if any.
func Annotate(ctx context.Context, key, value string) {
	SpanFromContext(ctx).Annotate(key, value)
}

// InjectHTTP stamps the active span's context into the X-Soc-Trace
// request header. No active span means no header: untraced calls stay
// untraced.
func InjectHTTP(ctx context.Context, h http.Header) {
	if sp := SpanFromContext(ctx); sp != nil {
		h.Set(HeaderName, sp.TraceParent())
	}
}

// MarkCacheMiss returns a context recording that the idempotent-response
// cache missed for this request, so the dispatch span downstream can
// annotate itself "respcache=miss".
func MarkCacheMiss(ctx context.Context) context.Context {
	return context.WithValue(ctx, cacheMissKey{}, true)
}

// IsCacheMiss reports whether MarkCacheMiss was applied upstream.
func IsCacheMiss(ctx context.Context) bool {
	miss, _ := ctx.Value(cacheMissKey{}).(bool)
	return miss
}

// StartSpanFromContext starts a child span on the ambient plane: the
// active span's tracer, or the context's tracer. With neither present it
// returns (nil, ctx) — a nil *Span no-ops on every method — so untraced
// call paths pay two context lookups and nothing else.
func StartSpanFromContext(ctx context.Context, kind Kind, name string) (*Span, context.Context) {
	t := TracerFromContext(ctx)
	if sp := SpanFromContext(ctx); sp != nil && sp.tracer != nil {
		t = sp.tracer
	}
	return t.StartSpan(ctx, kind, name)
}
