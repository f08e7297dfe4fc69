// Package telemetry is the observability spine of the call plane: a
// W3C-traceparent-style trace context (trace ID, span ID, sampled flag)
// that crosses service boundaries in the X-Soc-Trace HTTP header and the
// SocTrace SOAP header block, pooled span recording into a bounded ring
// buffer per host, and the shared instrument set (per-operation counters
// and latency histograms) that GET /metricz exposes. One originating call
// — through the resilient client, across retries and failover hops, into
// provider dispatch, cache lookups and workflow activities — renders as a
// single trace tree.
//
// Each trace is sampled or not, decided once by the tracer that starts its
// root (see Tracer) and carried in the traceparent's flags: "-01" sampled,
// "-00" not. Every later hop inherits the decision. A hop on an unsampled
// trace starts no span, records no event, adds nothing to its context and
// forwards the incoming traceparent unchanged; the metrics are kept for
// every request either way.
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
	// formatted like a W3C traceparent: "00-<32 hex>-<16 hex>-<flags>",
	// the flags "01" on a sampled trace and "00" on an unsampled one.
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
// belongs to, its own ID (the parent of any child started under it) and
// whether the trace is sampled.
type SpanContext struct {
	TraceID TraceID
	SpanID  SpanID
	// Sampled is the root's decision, which every later hop inherits:
	// only a sampled trace records spans and events.
	Sampled bool
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

// AppendTraceParent appends the wire form "00-<trace>-<span>-<flags>" to
// dst, the flags "01" when sc is sampled and "00" when it is not.
func AppendTraceParent(dst []byte, sc SpanContext) []byte {
	dst = append(dst, "00-"...)
	dst = appendHex(dst, sc.TraceID[:])
	dst = append(dst, '-')
	dst = appendHex(dst, sc.SpanID[:])
	if sc.Sampled {
		return append(dst, "-01"...)
	}
	return append(dst, "-00"...)
}

// FormatTraceParent renders the wire form of the span context.
func FormatTraceParent(sc SpanContext) string {
	return string(AppendTraceParent(make([]byte, 0, traceParentLen), sc))
}

// hexValue maps each byte to the value of the hex digit it is, either
// case, and every other byte to 0xff: a lookup per digit, no branch.
var hexValue = func() (t [256]byte) {
	for i := range t {
		t[i] = 0xff
	}
	for i := byte(0); i < 16; i++ {
		t["0123456789abcdef"[i]] = i
		t["0123456789ABCDEF"[i]] = i
	}
	return t
}()

// parseHex decodes the 2·len(dst) hex digits of s into dst and reports
// whether they all were hex digits.
func parseHex(dst []byte, s string) bool {
	s = s[:2*len(dst)]
	var seen byte // the OR of every digit's value: above 0x0f once one is not a digit
	for i := range dst {
		hi, lo := hexValue[s[2*i]], hexValue[s[2*i+1]]
		seen |= hi | lo
		dst[i] = hi<<4 | lo
	}
	return seen <= 0x0f
}

// ParseTraceParent parses the wire form back into a span context:
// "vv-<32 hex>-<16 hex>-ff", where the version vv is any two hex digits
// but "ff", which W3C Trace Context reserves as invalid, and bit 0 of the
// flags byte ff is the sampled flag. Anything after the flags is ignored,
// as a later version may append fields; zero IDs are rejected.
func ParseTraceParent(s string) (SpanContext, bool) {
	var sc SpanContext
	if len(s) < traceParentLen || s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return sc, false
	}
	var version, flags [1]byte
	if !parseHex(version[:], s[0:2]) || version[0] == 0xff || !parseHex(flags[:], s[53:55]) {
		return sc, false
	}
	if !parseHex(sc.TraceID[:], s[3:35]) || !parseHex(sc.SpanID[:], s[36:52]) {
		return sc, false
	}
	sc.Sampled = flags[0]&1 == 1
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
	traceKey     struct{}
	tracerKey    struct{}
	cacheMissKey struct{}
)

// A context carries the trace it runs in under traceKey: the active *Span
// on a sampled trace, an *Unsampled on an unsampled one. The innermost
// wins.

// ContextWithSpan returns a context carrying sp as the active span.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	return context.WithValue(ctx, traceKey{}, sp)
}

// SpanFromContext returns the active span, or nil.
func SpanFromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(traceKey{}).(*Span)
	return sp
}

// Unsampled is a context that carries an unsampled trace, so that nested
// calls inherit the root's decision instead of drawing their own. Its
// zero value is not a context until Bind makes it one. Embedded in an
// allocation a request makes anyway (callplane's outbound request does),
// it carries the trace at no allocation of its own.
type Unsampled struct {
	context.Context
	sc SpanContext
	tp string // the wire value; "" until a caller formats it
}

// Bind makes u a context under parent that carries the unsampled trace
// call names, and returns it.
func (u *Unsampled) Bind(parent context.Context, call CallTrace) context.Context {
	u.Context, u.sc, u.tp = parent, call.SpanContext, call.Header
	u.sc.Sampled = false
	return u
}

// Value answers traceKey with u and defers every other key to the parent.
func (u *Unsampled) Value(key any) any {
	if key == (traceKey{}) {
		return u
	}
	return u.Context.Value(key)
}

// withUnsampled returns a context carrying the unsampled trace sc: one
// allocation, the wire value formatted only if a request asks for it.
func withUnsampled(ctx context.Context, sc SpanContext) context.Context {
	sc.Sampled = false
	return &Unsampled{Context: ctx, sc: sc}
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
// the active span's context, the unsampled trace the context carries, or
// invalid. A remote parent that arrived in a header is passed as a value
// (StartSpanRemote, Tracer.Event).
func SpanContextOf(ctx context.Context) SpanContext {
	switch v := ctx.Value(traceKey{}).(type) {
	case *Span:
		return v.Context()
	case *Unsampled:
		return v.sc
	}
	return SpanContext{}
}

// CallTrace is the trace one outbound request carries: the identity its
// callee parents on, and the X-Soc-Trace value that spells it. The zero
// value is an untraced call. Tracer.StartCall returns one, so that
// callplane.Route.NewRequest gets the identity with its wire value and
// need not parse back what was just formatted.
type CallTrace struct {
	SpanContext
	Header string
}

// CallTraceOf returns the trace an outbound request made under ctx
// carries: the active span's, the unsampled trace's as it arrived, or the
// zero CallTrace for an untraced context.
func CallTraceOf(ctx context.Context) CallTrace {
	switch v := ctx.Value(traceKey{}).(type) {
	case *Span:
		return CallTrace{v.Context(), v.TraceParent()}
	case *Unsampled:
		if v.tp == "" {
			return CallTrace{v.sc, FormatTraceParent(v.sc)}
		}
		return CallTrace{v.sc, v.tp}
	}
	return CallTrace{}
}

// TraceParentOf returns the wire value an outbound request made under ctx
// carries (CallTraceOf), or "" for an untraced context.
func TraceParentOf(ctx context.Context) string { return CallTraceOf(ctx).Header }

// InjectHTTP stamps the context's trace into the X-Soc-Trace request
// header. An untraced context means no header: untraced calls stay
// untraced.
func InjectHTTP(ctx context.Context, h http.Header) {
	if tp := TraceParentOf(ctx); tp != "" {
		h.Set(HeaderName, tp)
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
