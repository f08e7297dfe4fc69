package cloud

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync/atomic"
	"time"

	"soc/internal/callplane"
	"soc/internal/telemetry"
)

// Replica is one live backend in the front door's rotation: a name, an
// exchange transport (in-process handler or remote base URL), and the
// lock-free instrument block the power-of-two-choices picker reads —
// in-flight count, EWMA latency, pick/outcome counters, and the draining
// flag that takes it out of rotation while existing requests finish.
type Replica struct {
	name string
	rt   http.RoundTripper
	// maxInFlight caps concurrent requests on this replica (0 = no cap);
	// this is the per-machine capacity the balancer spreads around.
	maxInFlight int

	inflight  atomic.Int64
	picks     atomic.Uint64
	completed atomic.Uint64
	failed    atomic.Uint64
	rejected  atomic.Uint64 // tryAcquire refusals: replica at capacity
	draining  atomic.Bool
	latency   telemetry.EWMA

	// DrainNotify, when set, is called with the new draining state on every
	// SetDraining flip — the hook that propagates a scale-down drain to the
	// backing machine (e.g. host.SetDraining, so its own /healthz probes go
	// 503 while it empties). Set it before the replica joins a rotation.
	DrainNotify func(bool)
}

// NewReplica builds a replica over an arbitrary exchange transport. Most
// callers want NewLocalReplica or NewHTTPReplica; harnesses that need to
// model process death inject a transport whose RoundTrip fails like a
// dead TCP peer.
func NewReplica(name string, rt http.RoundTripper, maxInFlight int) *Replica {
	return &Replica{name: name, rt: rt, maxInFlight: maxInFlight}
}

// NewLocalReplica builds a replica over an in-process handler (e.g. a
// *host.Host), exchanged through HandlerTransport.
func NewLocalReplica(name string, h http.Handler, maxInFlight int) *Replica {
	return NewReplica(name, HandlerTransport(h), maxInFlight)
}

// NewHTTPReplica builds a replica proxying to a remote base URL. client
// supplies the Transport and the Timeout of every exchange (callplane.Do:
// redirects are relayed, not followed, and Jar and CheckRedirect are not
// consulted); nil gets a 30s-timeout default.
func NewHTTPReplica(name, baseURL string, client *http.Client, maxInFlight int) (*Replica, error) {
	base, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("%w: replica %s base URL: %v", ErrConfig, name, err)
	}
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	return NewReplica(name, rebaseTransport{base: base, client: client}, maxInFlight), nil
}

// Name returns the replica's rotation name.
func (r *Replica) Name() string { return r.name }

// InFlight returns the number of requests currently on this replica.
func (r *Replica) InFlight() int64 { return r.inflight.Load() }

// Picks returns how many times the balancer has chosen this replica.
func (r *Replica) Picks() uint64 { return r.picks.Load() }

// Draining reports whether the replica is excluded from new picks.
func (r *Replica) Draining() bool { return r.draining.Load() }

// SetDraining flips the draining flag: a draining replica receives no new
// picks but keeps serving what it already holds. A DrainNotify hook, if
// set, hears about the flip so the backing machine can mirror it.
func (r *Replica) SetDraining(v bool) {
	r.draining.Store(v)
	if r.DrainNotify != nil {
		r.DrainNotify(v)
	}
}

// tryAcquire claims an in-flight slot, refusing at capacity or while
// draining.
func (r *Replica) tryAcquire() bool {
	if r.draining.Load() {
		return false
	}
	n := r.inflight.Add(1)
	if r.maxInFlight > 0 && n > int64(r.maxInFlight) {
		r.inflight.Add(-1)
		r.rejected.Add(1)
		return false
	}
	return true
}

func (r *Replica) release() { r.inflight.Add(-1) }

// score is the power-of-two-choices load estimate: EWMA latency scaled by
// queue depth (+1 so an idle replica still ranks by its latency). A
// replica with no samples yet scores near zero, which deliberately
// attracts traffic — new capacity warms up instead of idling.
func (r *Replica) score() float64 {
	ew := float64(r.latency.Value())
	if ew <= 0 {
		ew = 1
	}
	return (float64(r.inflight.Load()) + 1) * ew
}

// observe folds one completed exchange into the instruments.
func (r *Replica) observe(d time.Duration, failed bool) {
	r.latency.Observe(d)
	if failed {
		r.failed.Add(1)
	} else {
		r.completed.Add(1)
	}
}

// ReplicaStatus is one replica's row in the GET /clusterz document.
type ReplicaStatus struct {
	Name             string `json:"name"`
	State            string `json:"state"` // "healthy" or "draining"
	InFlight         int64  `json:"inFlight"`
	MaxInFlight      int    `json:"maxInFlight"`
	EWMALatencyNanos int64  `json:"ewmaLatencyNanos"`
	Picks            uint64 `json:"picks"`
	Completed        uint64 `json:"completed"`
	Failed           uint64 `json:"failed"`
	Rejected         uint64 `json:"rejected"`
}

// Status snapshots the replica's balancer-visible state.
func (r *Replica) Status() ReplicaStatus {
	state := "healthy"
	if r.draining.Load() {
		state = "draining"
	}
	return ReplicaStatus{
		Name:             r.name,
		State:            state,
		InFlight:         r.inflight.Load(),
		MaxInFlight:      r.maxInFlight,
		EWMALatencyNanos: int64(r.latency.Value()),
		Picks:            r.picks.Load(),
		Completed:        r.completed.Load(),
		Failed:           r.failed.Load(),
		Rejected:         r.rejected.Load(),
	}
}

// HandlerTransport adapts an in-process http.Handler to the RoundTripper
// exchange a Replica performs: the handler's response is buffered and
// returned as an *http.Response, so the front door treats local and
// remote replicas identically (including replaying a request against a
// different replica after a failure — nothing was written to the client).
func HandlerTransport(h http.Handler) http.RoundTripper {
	return handlerTransport{h: h}
}

type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ex := &exchange{code: http.StatusOK, buf: callplane.GetBuffer()}
	ex.resp.Header = make(http.Header)
	t.h.ServeHTTP(ex, req)
	if req.Body != nil {
		// A RoundTripper always closes the request body; for the client
		// half that is what returns the body's pooled buffer.
		_ = req.Body.Close()
	}
	ex.resp.Status = statusLine(ex.code)
	ex.resp.StatusCode = ex.code
	ex.resp.Proto, ex.resp.ProtoMajor, ex.resp.ProtoMinor = "HTTP/1.1", 1, 1
	ex.body.Reset(ex.buf.B)
	ex.resp.Body = ex
	ex.resp.ContentLength = int64(len(ex.buf.B))
	ex.resp.Request = req
	return &ex.resp, nil
}

// exchange is one in-memory exchange in one allocation: the
// ResponseWriter the handler fills, the Response made of it, and that
// response's body. The body bytes sit in a pooled buffer that goes back
// at Body.Close — the response itself is the caller's to keep.
type exchange struct {
	resp  http.Response
	buf   *callplane.Buffer // nil once the body is closed
	body  bytes.Reader      // over buf.B once the handler has returned
	code  int
	wrote bool
}

func (ex *exchange) Header() http.Header { return ex.resp.Header }

func (ex *exchange) WriteHeader(code int) {
	if !ex.wrote {
		ex.code = code
		ex.wrote = true
	}
}

func (ex *exchange) Write(p []byte) (int, error) {
	ex.wrote = true
	ex.buf.B = append(ex.buf.B, p...)
	return len(p), nil
}

func (ex *exchange) Read(p []byte) (int, error) { return ex.body.Read(p) }

// WriteTo lets io.Copy relay the body without a transfer buffer.
func (ex *exchange) WriteTo(w io.Writer) (int64, error) { return ex.body.WriteTo(w) }

// Close gives the bytes back; what was not read by then reads as EOF.
func (ex *exchange) Close() error {
	if ex.buf != nil {
		ex.body.Reset(nil)
		ex.buf.Release()
		ex.buf = nil
	}
	return nil
}

// statusLines holds the Response.Status text ("200 OK") of every code
// net/http names, so the exchange does not concatenate one per response.
var statusLines = func() map[int]string {
	m := make(map[int]string)
	for code := 100; code < 600; code++ {
		if text := http.StatusText(code); text != "" {
			m[code] = strconv.Itoa(code) + " " + text
		}
	}
	return m
}()

func statusLine(code int) string {
	if s, ok := statusLines[code]; ok {
		return s
	}
	return strconv.Itoa(code) + " " + http.StatusText(code)
}

// rebaseTransport rewrites each request onto a remote replica's base URL
// and exchanges it over the replica's HTTP client.
type rebaseTransport struct {
	base   *url.URL
	client *http.Client
}

func (t rebaseTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	out := req.Clone(req.Context())
	out.URL.Scheme = t.base.Scheme
	out.URL.Host = t.base.Host
	out.Host = ""
	// Incoming server requests carry RequestURI; outbound client requests
	// must not.
	out.RequestURI = ""
	return callplane.Do(t.client, out)
}
