package telemetry

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"soc/internal/vtime"
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
// Tracer.Since and Tracer.Snapshot return finished spans by value, copied
// out of the ring; live spans are owned by the tracer's pool and must only
// be touched through methods.
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
	clock  vtime.Clock // the clock the span started on, and ends on
	tp     string      // cached traceparent wire value
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

// Context returns the span's propagated identity. Only a sampled trace
// has spans, so a span's context is always sampled.
func (sp *Span) Context() SpanContext {
	if sp == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: sp.TraceID, SpanID: sp.SpanID, Sampled: true}
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
	sp.Duration = sp.clock.Now().Sub(sp.Start)
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
// so concurrent span ends don't serialize on a global mutex. Readers walk
// the sequence numbers from a cursor (Since); the ring is allocated on
// first record and never dropped, so idle tracers cost a struct. A nil
// *Tracer is valid and records nothing.
//
// A tracer samples the traces whose root it starts, at its rate R: the
// k-th root is sampled iff splitmix64 of k, from a fixed seed, falls
// below R·2⁶⁴ — one atomic add and no lock per root. Every later hop, in
// this tracer or another, inherits the root's decision and never draws.
// The draw is deterministic, so a fixed sequence of roots samples the
// same ones on every run, and it is a hash, not every Nth: a workload
// that alternates two operations gets both traced.
type Tracer struct {
	capacity int
	sampler  sampler

	ringOnce sync.Once
	ring     []tracerSlot
	// next is the total recorded count; span i (1-based) lives in slot
	// (i-1) mod capacity.
	next atomic.Uint64
	// roots counts the roots this tracer started, sampled or not.
	roots atomic.Uint64
}

// DefaultCapacity is the ring size used for NewTracer(0) and the
// package default tracer.
const DefaultCapacity = 1024

// defaultSampleRate is the share of roots NewTracer samples; DESIGN.md
// §"Call plane" says why 1/16.
const defaultSampleRate = 1.0 / 16

// NewTracer returns a tracer keeping the last capacity spans
// (capacity <= 0 means DefaultCapacity) that samples 1 in 16 of the
// traces it roots.
func NewTracer(capacity int) *Tracer {
	return NewSamplingTracer(capacity, defaultSampleRate)
}

// NewSamplingTracer is NewTracer sampling its roots at rate: 1 samples
// every trace it starts, 0 none, and rate is clamped to [0, 1].
func NewSamplingTracer(capacity int, rate float64) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Tracer{capacity: capacity, sampler: newSampler(rate)}
}

var defaultTracer = NewTracer(DefaultCapacity)

// Default returns the process-wide tracer that clients fall back to when
// no tracer was configured explicitly.
func Default() *Tracer { return defaultTracer }

// sampler is a tracer's rate R: threshold is R·2⁶⁴ for R < 1, and every
// marks R = 1.
type sampler struct {
	threshold uint64
	every     bool
}

func newSampler(rate float64) sampler {
	switch {
	case rate >= 1:
		return sampler{every: true}
	case rate > 0:
		return sampler{threshold: uint64(math.Ldexp(rate, 64))}
	}
	return sampler{}
}

// samplerSeed fixes the draw, so that it repeats from run to run.
const samplerSeed = 0x5eed_50c0_7ace_0001

// sampled reports whether the k-th root is: the SplitMix64 finalizer of
// step k, below the threshold.
func (s sampler) sampled(k uint64) bool {
	z := samplerSeed + k*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return s.every || z^z>>31 < s.threshold
}

// sampleRoot draws the decision of the next root this tracer starts.
func (t *Tracer) sampleRoot() bool {
	return t.sampler.sampled(t.roots.Add(1))
}

// start acquires a pooled span with resolved parentage, timed on ctx's clock.
func (t *Tracer) start(ctx context.Context, kind Kind, name string, parent SpanContext) *Span {
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
	sp.clock = vtime.ClockFrom(ctx)
	sp.Start = sp.clock.Now()
	sp.tracer = t
	return sp
}

// StartSpan starts a span parented on the context's trace, else a fresh
// root. The returned context carries the new span, so nested calls become
// children and InjectHTTP can stamp outbound requests. On an unsampled
// trace it returns a nil span and ctx itself; an unsampled root returns
// a nil span and a context carrying its trace, so nested calls stay
// unsampled. On a nil tracer it returns (nil, ctx).
func (t *Tracer) StartSpan(ctx context.Context, kind Kind, name string) (*Span, context.Context) {
	return t.StartSpanRemote(ctx, kind, name, SpanContext{})
}

// StartSpanRemote is StartSpan with an explicit remote parent (from a
// protocol-level header); an invalid remote falls back to the context.
// An unsampled remote starts no span, and the context returned carries it
// — ctx itself when ctx already carries that trace.
func (t *Tracer) StartSpanRemote(ctx context.Context, kind Kind, name string, remote SpanContext) (*Span, context.Context) {
	if t == nil {
		return nil, ctx
	}
	cur := SpanContextOf(ctx)
	if !remote.Valid() {
		remote = cur
	}
	switch {
	case !remote.Valid():
		if !t.sampleRoot() {
			return nil, withUnsampled(ctx, SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID()})
		}
	case !remote.Sampled:
		if cur.TraceID == remote.TraceID && !cur.Sampled {
			return nil, ctx
		}
		return nil, withUnsampled(ctx, remote)
	}
	sp := t.start(ctx, kind, name, remote)
	return sp, ContextWithSpan(ctx, sp)
}

// StartCall starts the span of a call that sends one request, as
// StartSpan does, and returns the trace that request carries (the zero
// CallTrace when untraced). On an unsampled trace it starts no span and
// returns ctx itself. An unsampled root, unlike StartSpan's, adds nothing
// to the context either: formatting the traceparent is its one
// allocation, and callplane.Route.NewRequest carries the trace in the
// request's context.
func (t *Tracer) StartCall(ctx context.Context, kind Kind, name string) (*Span, CallTrace, context.Context) {
	parent := SpanContextOf(ctx)
	if t == nil || parent.Valid() && !parent.Sampled {
		return nil, CallTraceOf(ctx), ctx
	}
	if !parent.Valid() && !t.sampleRoot() {
		sc := SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID()}
		return nil, CallTrace{sc, FormatTraceParent(sc)}, ctx
	}
	sp := t.start(ctx, kind, name, parent)
	return sp, CallTrace{sp.Context(), sp.TraceParent()}, ContextWithSpan(ctx, sp)
}

// Event records an already-complete zero-duration span, stamped on ctx's
// clock and parented on remote — how cache hits and injected faults appear
// in traces without a live span. An unsampled remote records nothing; an
// invalid one makes the event a root, sampled like any other. Cache-kind
// events are marked Cached. Steady-state cost: zero allocations.
func (t *Tracer) Event(ctx context.Context, remote SpanContext, kind Kind, name, key, value string) {
	if t == nil || remote.Valid() && !remote.Sampled || !remote.Valid() && !t.sampleRoot() {
		return
	}
	sp := Span{
		SpanID: NewSpanID(),
		Name:   name,
		Kind:   kind,
		Start:  vtime.Now(ctx),
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

// slots returns the ring, allocating it on first use.
func (t *Tracer) slots() []tracerSlot {
	t.ringOnce.Do(func() { t.ring = make([]tracerSlot, t.capacity) })
	return t.ring
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
		s.span.clock = nil
		s.span.tp = ""
	}
	s.mu.Unlock()
}

// Since returns the spans recorded after cursor, oldest first, with the
// cursor to pass next time and the number of spans after cursor that the
// ring overwrote before they could be read: every sequence number in
// (cursor, next] is either returned or counted in lost. It stops before a
// sequence number whose writer has claimed its slot but not yet filled
// it, so a later call resumes there. Cursor 0 reads from the oldest span
// retained; a nil tracer returns (nil, cursor, 0).
func (t *Tracer) Since(cursor uint64) (spans []Span, next, lost uint64) {
	if t == nil {
		return nil, cursor, 0
	}
	end := t.next.Load()
	if end <= cursor {
		return nil, cursor, 0
	}
	// end > 0, so the ring exists: record fills it before claiming a
	// sequence number.
	ring, capacity := t.ring, uint64(t.capacity)
	seq := cursor + 1
	if end > capacity && seq <= end-capacity {
		lost = end - capacity - cursor
		seq = end - capacity + 1
	}
	spans = make([]Span, 0, end-seq+1)
	for ; seq <= end; seq++ {
		s := &ring[(seq-1)%capacity]
		s.mu.Lock()
		switch {
		case s.seq == seq:
			spans = append(spans, s.span)
		case s.seq > seq:
			lost++
		default:
			s.mu.Unlock()
			return spans, seq - 1, lost
		}
		s.mu.Unlock()
	}
	return spans, end, lost
}

// Snapshot returns the retained spans, oldest first (ascending record
// order).
func (t *Tracer) Snapshot() []Span {
	spans, _, _ := t.Since(0)
	return spans
}

// Recorded reports how many spans were ever recorded (including ones the
// ring has since overwritten).
func (t *Tracer) Recorded() uint64 {
	if t == nil {
		return 0
	}
	return t.next.Load()
}
