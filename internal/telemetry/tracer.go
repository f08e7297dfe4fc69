package telemetry

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Kind classifies a span by the layer that emitted it.
type Kind string

// Span kinds emitted by the stack.
const (
	KindClient   Kind = "client"   // consumer-side call or attempt
	KindServer   Kind = "server"   // provider-side dispatch
	KindInternal Kind = "internal" // in-process work
	KindCache    Kind = "cache"    // idempotent-response cache hit
	KindFault    Kind = "fault"    // injected fault (chaos runs)
	KindWorkflow Kind = "workflow" // composition engine activity
)

// MaxAnnotations bounds per-span annotations so spans stay fixed-size
// values the ring buffer can copy without allocating.
const MaxAnnotations = 6

// Annotation is one key/value note on a span.
type Annotation struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one timed unit of work in a trace. Fields are exported because
// Tracer.Snapshot returns spans by value for inspection; live spans are
// owned by the tracer's pool and must only be touched through methods.
type Span struct {
	TraceID TraceID
	SpanID  SpanID
	Parent  SpanID
	Name    string
	Kind    Kind
	// Target is the peer of a client-kind span (replica base URL).
	Target string
	// Attempt numbers retry/failover attempts, 1-based; 0 means n/a.
	Attempt int
	Start   time.Time
	// Duration is filled at End; zero-duration Cached spans mark
	// responses answered from the idempotent-response cache.
	Duration time.Duration
	Err      string
	Cached   bool

	ann  [MaxAnnotations]Annotation
	nann uint8

	tracer *Tracer
	tp     string // cached traceparent wire value
}

// Annotate attaches a note; annotations beyond MaxAnnotations are
// dropped. Safe on a nil span (untraced paths).
func (sp *Span) Annotate(key, value string) {
	if sp == nil || int(sp.nann) >= len(sp.ann) {
		return
	}
	sp.ann[sp.nann] = Annotation{Key: key, Value: value}
	sp.nann++
}

// Annotations returns the attached notes (aliasing the span's storage).
func (sp *Span) Annotations() []Annotation {
	if sp == nil {
		return nil
	}
	return sp.ann[:sp.nann]
}

// Context returns the span's propagated identity.
func (sp *Span) Context() SpanContext {
	if sp == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: sp.TraceID, SpanID: sp.SpanID}
}

// TraceParent returns the wire value for the X-Soc-Trace header and the
// SocTrace SOAP header entry, formatted once and cached on the span.
func (sp *Span) TraceParent() string {
	if sp == nil {
		return ""
	}
	if sp.tp == "" {
		sp.tp = FormatTraceParent(sp.Context())
	}
	return sp.tp
}

// End finishes the span and records it in its tracer's ring.
func (sp *Span) End() { sp.EndErr(nil) }

// EndErr finishes the span, recording err (if any) as the span error.
// The span must not be used after EndErr: it returns to the pool.
func (sp *Span) EndErr(err error) {
	if sp == nil {
		return
	}
	sp.Duration = time.Since(sp.Start)
	if err != nil {
		sp.Err = err.Error()
	}
	t := sp.tracer
	if t != nil {
		t.record(sp)
	}
	sp.reset()
	spanPool.Put(sp)
}

// reset clears the span in place before it returns to the pool.
func (sp *Span) reset() {
	*sp = Span{}
}

// spanPool recycles live spans across all tracers; every span passes
// through reset before Put.
var spanPool = sync.Pool{New: func() any { return &Span{} }}

// tracerSlot is one ring position: its own tiny mutex, the sequence
// number of the span it holds, and the span copy. Writers contend only
// when they land on the same slot, never on a tracer-wide lock.
type tracerSlot struct {
	mu   sync.Mutex
	seq  uint64
	span Span
}

// Tracer records finished spans into a bounded ring buffer: the newest
// capacity spans survive, older ones are overwritten — the per-host
// always-on flight recorder behind GET /tracez. The ring position is
// claimed with one atomic increment and each position has its own lock,
// so concurrent span ends don't serialize on a global mutex. The zero
// ring is allocated on first record, so idle tracers cost a struct. A
// nil *Tracer is valid and records nothing.
type Tracer struct {
	capacity int

	initMu sync.Mutex
	ring   atomic.Pointer[[]tracerSlot]
	// next is the total recorded count; span i (1-based) lives in slot
	// (i-1) mod capacity.
	next atomic.Uint64
}

// DefaultCapacity is the ring size used for NewTracer(0) and the
// package default tracer.
const DefaultCapacity = 1024

// NewTracer returns a tracer keeping the last capacity spans
// (capacity <= 0 means DefaultCapacity).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Tracer{capacity: capacity}
}

var defaultTracer = NewTracer(DefaultCapacity)

// Default returns the process-wide tracer that clients fall back to when
// no tracer was configured explicitly.
func Default() *Tracer { return defaultTracer }

// start acquires a pooled span with resolved parentage.
func (t *Tracer) start(kind Kind, name string, parent SpanContext) *Span {
	sp := spanPool.Get().(*Span)
	if parent.Valid() {
		sp.TraceID = parent.TraceID
		sp.Parent = parent.SpanID
	} else {
		sp.TraceID = NewTraceID()
	}
	sp.SpanID = NewSpanID()
	sp.Name = name
	sp.Kind = kind
	sp.Start = time.Now()
	sp.tracer = t
	return sp
}

// StartSpan starts a span parented on the context's active span, else a
// fresh trace. The returned context carries
// the new span, so nested calls become children and InjectHTTP can stamp
// outbound requests. On a nil tracer it returns (nil, ctx).
func (t *Tracer) StartSpan(ctx context.Context, kind Kind, name string) (*Span, context.Context) {
	if t == nil {
		return nil, ctx
	}
	sp := t.start(kind, name, SpanContextOf(ctx))
	return sp, ContextWithSpan(ctx, sp)
}

// StartSpanRemote is StartSpan with an explicit remote parent (from a
// protocol-level header); an invalid remote falls back to the context.
func (t *Tracer) StartSpanRemote(ctx context.Context, kind Kind, name string, remote SpanContext) (*Span, context.Context) {
	if t == nil {
		return nil, ctx
	}
	if !remote.Valid() {
		remote = SpanContextOf(ctx)
	}
	sp := t.start(kind, name, remote)
	return sp, ContextWithSpan(ctx, sp)
}

// Event records an already-complete zero-duration span parented on
// remote (an invalid remote starts a fresh trace) — how cache hits and
// injected faults appear in traces without a live span. Cache-kind
// events are marked Cached. Steady-state cost: zero allocations.
func (t *Tracer) Event(remote SpanContext, kind Kind, name, key, value string) {
	if t == nil {
		return
	}
	sp := Span{
		SpanID: NewSpanID(),
		Name:   name,
		Kind:   kind,
		Start:  time.Now(),
		Cached: kind == KindCache,
	}
	if remote.Valid() {
		sp.TraceID = remote.TraceID
		sp.Parent = remote.SpanID
	} else {
		sp.TraceID = NewTraceID()
	}
	if key != "" {
		sp.ann[0] = Annotation{Key: key, Value: value}
		sp.nann = 1
	}
	t.record(&sp)
}

// slots returns the ring, allocating it on first use (double-checked so
// the steady state is one atomic load).
func (t *Tracer) slots() []tracerSlot {
	if r := t.ring.Load(); r != nil {
		return *r
	}
	t.initMu.Lock()
	defer t.initMu.Unlock()
	if r := t.ring.Load(); r != nil {
		return *r
	}
	r := make([]tracerSlot, t.capacity)
	t.ring.Store(&r)
	return r
}

// record copies the finished span value into the ring: claim a sequence
// number atomically, then fill the corresponding slot under its own
// lock. A slot keeps the newest sequence it has seen, so a lapped writer
// (preempted long enough for the ring to wrap past it) never clobbers a
// newer span.
func (t *Tracer) record(sp *Span) {
	ring := t.slots()
	seq := t.next.Add(1)
	s := &ring[(seq-1)%uint64(t.capacity)]
	s.mu.Lock()
	if seq > s.seq {
		s.seq = seq
		s.span = *sp
		s.span.tracer = nil
		s.span.tp = ""
	}
	s.mu.Unlock()
}

// Snapshot returns the retained spans, oldest first (ascending record
// order).
func (t *Tracer) Snapshot() []Span {
	if t == nil {
		return nil
	}
	r := t.ring.Load()
	if r == nil {
		return nil
	}
	ring := *r
	type seqSpan struct {
		seq  uint64
		span Span
	}
	filled := make([]seqSpan, 0, len(ring))
	for i := range ring {
		s := &ring[i]
		s.mu.Lock()
		if s.seq > 0 {
			filled = append(filled, seqSpan{seq: s.seq, span: s.span})
		}
		s.mu.Unlock()
	}
	sort.Slice(filled, func(i, j int) bool { return filled[i].seq < filled[j].seq })
	out := make([]Span, len(filled))
	for i, f := range filled {
		out[i] = f.span
	}
	return out
}

// Recorded reports how many spans were ever recorded (including ones the
// ring has since overwritten).
func (t *Tracer) Recorded() uint64 {
	if t == nil {
		return 0
	}
	return t.next.Load()
}

// Reset drops all retained spans.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.initMu.Lock()
	defer t.initMu.Unlock()
	t.ring.Store(nil)
	t.next.Store(0)
}
