// Package cloud implements the "Cloud Computing and Software as a
// Service" unit of CSE446 as a live elastic cluster: a FrontDoor that
// admits or sheds each arrival and balances the admitted ones over a
// rotation of Replicas (power-of-two-choices on in-flight × latency),
// and an Autoscaler that sizes that rotation from measured demand with
// the pure Policy under a Cooldown, draining before it stops — the
// on-demand, elastic, pay-per-use properties the course defines cloud
// computing by. Every part reads the clock of the context it is handed
// (vtime.ClockFrom), so the same code serves wall-clock traffic and the
// deterministic virtual-clock scenarios (simtest's world with a door,
// ablation A5).
package cloud

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"soc/internal/callplane"
	"soc/internal/registry"
	"soc/internal/reliability"
	"soc/internal/rest"
	"soc/internal/telemetry"
	"soc/internal/vtime"
)

// Front-door dispatch errors. Exchange failures are retried onto another
// replica (nothing has been written to the client); the saturation and
// empty-rotation cases are terminal and answered with backpressure.
var (
	// ErrNoReplica reports an empty rotation: no replica is eligible.
	ErrNoReplica = errors.New("cloud: no eligible replica")
	// ErrReplicasSaturated reports that every eligible replica is at its
	// in-flight cap.
	ErrReplicasSaturated = errors.New("cloud: all replicas at capacity")
	// errExchange wraps a transport-level replica failure (peer dead,
	// connection refused); the request is replayable against a sibling.
	errExchange = errors.New("cloud: replica exchange failed")
)

// FrontDoorConfig shapes the cluster's single entry point.
type FrontDoorConfig struct {
	// MaxInFlight bounds concurrently proxied requests (0 = 256).
	MaxInFlight int
	// QueueDepth bounds arrivals waiting for an in-flight slot before the
	// door sheds: 0 means MaxInFlight, negative means unbounded (no
	// admission control — the "naive" mode the saturation study measures
	// against). The queue waits on the clock of the request's context: a
	// virtual deadline never fires on its own, so a door serving requests
	// that carry a vtime.Virtual must not be saturated — the simulator
	// sends one request at a time against its 256 slots.
	QueueDepth int
	// QueueTimeout bounds the wait for a slot (0 = 100ms, negative = no
	// bound beyond the request's own deadline).
	QueueTimeout time.Duration
	// Tracer records proxy spans; nil disables tracing.
	Tracer *telemetry.Tracer
	// Seed fixes the power-of-two-choices PRNG (0 = 1), so virtual-clock
	// runs replay identically.
	Seed int64
}

// FrontDoor is the cluster's entry point: an http.Handler that admits or
// sheds each arrival (bounded queue, 503 + Retry-After once saturated),
// picks a replica by power-of-two-choices over in-flight count × EWMA
// latency, and proxies the exchange over the callplane spine so every
// hop lands in the trace tree. Membership is the rotation under the
// door's one mutex, which also guards the pick PRNG: replicas join by
// Add, and leave by Remove or when the registry's live lease view no
// longer holds them (SyncMembership).
type FrontDoor struct {
	maxInFlight  int
	queueDepth   int
	queueTimeout time.Duration

	tracer  *telemetry.Tracer
	metrics *telemetry.Metrics
	chain   callplane.Transport

	// mu guards the rotation and the pick PRNG. all is every member (for
	// /clusterz), eligible the non-draining subset picks draw from. A
	// change replaces both slices rather than editing them, so a slice
	// read under mu stays valid after it is released.
	mu       sync.Mutex
	all      []*Replica
	eligible []*Replica
	rng      *rand.Rand

	sem    chan struct{}
	queued atomic.Int64

	spanNames callplane.Records[spanKey, string]

	admitted  atomic.Uint64
	shedQueue atomic.Uint64 // refused admission: queue full or wait timed out
	shedBusy  atomic.Uint64 // admitted but every replica at capacity
	completed atomic.Uint64 // a replica's response was delivered
	errored   atomic.Uint64 // attempts exhausted; the door answered 502
}

// spanKey is what a proxied request's span name is made of.
type spanKey struct{ method, path string }

// spanName joins "frontdoor.METHOD PATH"; FrontDoor.spanNames keeps the
// result, so a path seen before costs no concatenation.
func spanName(k spanKey) (string, error) {
	return "frontdoor." + k.method + " " + k.path, nil
}

// NewFrontDoor builds the front door; replicas join via Add.
func NewFrontDoor(cfg FrontDoorConfig) *FrontDoor {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 256
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = cfg.MaxInFlight
	}
	if cfg.QueueTimeout == 0 {
		cfg.QueueTimeout = 100 * time.Millisecond
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	fd := &FrontDoor{
		maxInFlight:  cfg.MaxInFlight,
		queueDepth:   cfg.QueueDepth,
		queueTimeout: cfg.QueueTimeout,
		tracer:       cfg.Tracer,
		metrics:      telemetry.NewMetrics(),
		rng:          rand.New(rand.NewSource(cfg.Seed)),
		sem:          make(chan struct{}, cfg.MaxInFlight),
	}
	fd.chain = callplane.Chain(callplane.Terminal,
		callplane.WithSpan(cfg.Tracer, telemetry.KindClient),
		callplane.WithRetry(retryPolicy),
		callplane.WithAttemptSpan(cfg.Tracer),
	)
	return fd
}

// maxBodyBytes caps the buffered request body. Bodies are buffered so an
// attempt against a dead replica can be replayed.
const maxBodyBytes = 1 << 20

// retryPolicy makes two replica attempts per request, replaying against
// another replica only after a transport-level failure — the one error
// class where no bytes reached the client. BaseDelay 0 makes the failover
// hop immediate.
var retryPolicy = reliability.RetryPolicy{
	MaxAttempts: 2,
	Retryable:   func(err error) bool { return errors.Is(err, errExchange) },
}

// Add puts a replica into the rotation (replacing any same-named one).
func (fd *FrontDoor) Add(rep *Replica) {
	fd.mu.Lock()
	defer fd.mu.Unlock()
	next := make([]*Replica, 0, len(fd.all)+1)
	for _, r := range fd.all {
		if r.Name() != rep.Name() {
			next = append(next, r)
		}
	}
	next = append(next, rep)
	fd.storeLocked(next)
}

// Remove drops a replica from the rotation entirely, returning it (nil if
// absent). In-flight requests already on it finish; it just gets no new
// picks and no longer appears in /clusterz.
func (fd *FrontDoor) Remove(name string) *Replica {
	fd.mu.Lock()
	defer fd.mu.Unlock()
	var removed *Replica
	next := make([]*Replica, 0, len(fd.all))
	for _, r := range fd.all {
		if r.Name() == name {
			removed = r
			continue
		}
		next = append(next, r)
	}
	if removed != nil {
		fd.storeLocked(next)
	}
	return removed
}

// MarkDraining flips a replica's draining state: draining replicas stay
// visible in /clusterz and keep serving what they hold, but receive no
// new picks. Returns the replica (nil if absent).
func (fd *FrontDoor) MarkDraining(name string, draining bool) *Replica {
	fd.mu.Lock()
	defer fd.mu.Unlock()
	var found *Replica
	for _, r := range fd.all {
		if r.Name() == name {
			found = r
			break
		}
	}
	if found == nil {
		return nil
	}
	found.SetDraining(draining)
	fd.storeLocked(fd.all)
	return found
}

// Replica returns the named rotation member (nil if absent).
func (fd *FrontDoor) Replica(name string) *Replica {
	fd.mu.Lock()
	defer fd.mu.Unlock()
	for _, r := range fd.all {
		if r.Name() == name {
			return r
		}
	}
	return nil
}

// Replicas snapshots the rotation (draining members included).
func (fd *FrontDoor) Replicas() []*Replica {
	fd.mu.Lock()
	defer fd.mu.Unlock()
	return append([]*Replica(nil), fd.all...)
}

// storeLocked installs all as the rotation and rebuilds the eligible
// set from it; fd.mu must be held.
func (fd *FrontDoor) storeLocked(all []*Replica) {
	eligible := make([]*Replica, 0, len(all))
	for _, r := range all {
		if !r.Draining() {
			eligible = append(eligible, r)
		}
	}
	fd.all, fd.eligible = all, eligible
}

// SyncMembership prunes the rotation against the registry's live lease
// view and returns how many members it removed: a member whose entry is
// gone (lease expired or unpublished) leaves the rotation. Draining
// members are left alone — the autoscaler owns their exit. A live entry
// with no rotation member is ignored: replicas join only by Add.
func (fd *FrontDoor) SyncMembership(live []registry.Entry) (removed int) {
	byName := make(map[string]bool, len(live))
	for _, e := range live {
		byName[e.Name] = true
	}
	fd.mu.Lock()
	defer fd.mu.Unlock()
	next := make([]*Replica, 0, len(fd.all))
	for _, r := range fd.all {
		if byName[r.Name()] || r.Draining() {
			next = append(next, r)
		} else {
			removed++
		}
	}
	if removed > 0 {
		fd.storeLocked(next)
	}
	return removed
}

// FrontDoorStats is the door's own counter block (replica detail lives on
// each ReplicaStatus).
type FrontDoorStats struct {
	Admitted  uint64 `json:"admitted"`
	ShedQueue uint64 `json:"shedQueue"`
	ShedBusy  uint64 `json:"shedBusy"`
	Completed uint64 `json:"completed"`
	Errored   uint64 `json:"errored"`
	InFlight  int    `json:"inFlight"`
	Queued    int64  `json:"queued"`
}

// Shed is total load-shed responses (queue refusals + saturated picks).
func (s FrontDoorStats) Shed() uint64 { return s.ShedQueue + s.ShedBusy }

// Stats snapshots the door's counters.
func (fd *FrontDoor) Stats() FrontDoorStats {
	return FrontDoorStats{
		Admitted:  fd.admitted.Load(),
		ShedQueue: fd.shedQueue.Load(),
		ShedBusy:  fd.shedBusy.Load(),
		Completed: fd.completed.Load(),
		Errored:   fd.errored.Load(),
		InFlight:  len(fd.sem),
		Queued:    fd.queued.Load(),
	}
}

// Metrics exposes the door's instrument set (frontdoor.proxy latency and
// outcome counters, frontdoor.shed) for composition into wider reports.
func (fd *FrontDoor) Metrics() *telemetry.Metrics { return fd.metrics }

// clusterzReport is the GET /clusterz document: the balancer's live view,
// the sibling of /metricz and /tracez.
type clusterzReport struct {
	MaxInFlight       int             `json:"maxInFlight"`
	QueueDepth        int             `json:"queueDepth"`
	QueueTimeoutNanos int64           `json:"queueTimeoutNanos"`
	Stats             FrontDoorStats  `json:"stats"`
	Replicas          []ReplicaStatus `json:"replicas"`
}

// ServeHTTP routes the door's own observability endpoints and proxies
// everything else to a replica.
func (fd *FrontDoor) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/clusterz":
		fd.handleClusterz(w, r)
	case "/metricz":
		rest.WriteResponse(w, r, http.StatusOK, fd.metrics.Report())
	case "/healthz":
		rest.WriteResponse(w, r, http.StatusOK, map[string]any{
			"status":   "ok",
			"replicas": len(fd.Replicas()),
		})
	default:
		fd.proxy(w, r)
	}
}

func (fd *FrontDoor) handleClusterz(w http.ResponseWriter, r *http.Request) {
	all := fd.Replicas()
	report := clusterzReport{
		MaxInFlight:       fd.maxInFlight,
		QueueDepth:        fd.queueDepth,
		QueueTimeoutNanos: int64(fd.queueTimeout),
		Stats:             fd.Stats(),
		Replicas:          make([]ReplicaStatus, len(all)),
	}
	for i, rep := range all {
		report.Replicas[i] = rep.Status()
	}
	rest.WriteResponse(w, r, http.StatusOK, report)
}

// shedResponse answers backpressure: 503 with Retry-After, metered under
// frontdoor.shed.
func (fd *FrontDoor) shedResponse(w http.ResponseWriter, r *http.Request, why string) {
	fd.metrics.Record("frontdoor.shed", 0, true)
	w.Header().Set("Retry-After", "1")
	rest.WriteError(w, r, http.StatusServiceUnavailable, "cluster saturated: %s", why)
}

// proxyCall is the state of one proxied request, pooled: the invocation
// whose Do it is, the buffered inbound body, and what the attempts leave
// behind for the relay and for the next attempt.
type proxyCall struct {
	fd   *FrontDoor
	r    *http.Request
	clk  vtime.Clock          // the request's, read once
	inv  callplane.Invocation // inv.Do is bound to this proxyCall once, for its lifetime
	body *callplane.Buffer    // nil for a bodiless request
	resp *http.Response
	// lastFailed is the replica the previous attempt failed on.
	lastFailed string
	// lent counts attempt bodies a transport has not closed yet. A local
	// replica closes before RoundTrip returns; http.Transport may still be
	// writing one after an early response, or after its attempt failed.
	lent atomic.Int32
}

var proxyCallPool = sync.Pool{New: func() any {
	pc := &proxyCall{}
	pc.inv.Do = pc.attempt
	return pc
}}

// Release is an attempt's transport closing the body it was lent.
func (pc *proxyCall) Release() { pc.lent.Add(-1) }

// reset clears the call for reuse, keeping the bound Do.
func (pc *proxyCall) reset() {
	do := pc.inv.Do
	*pc = proxyCall{}
	pc.inv.Do = do
}

// finish ends the call's use of its pooled state. While a transport still
// holds an attempt body the buffer it reads from must not be reused, nor
// the counter it will decrement: both are then left to the collector.
func (pc *proxyCall) finish() {
	if pc.lent.Load() != 0 {
		return
	}
	if pc.body != nil {
		pc.body.Release()
	}
	pc.reset()
	proxyCallPool.Put(pc)
}

// attempt is one replica exchange: pick, forward, observe.
func (pc *proxyCall) attempt(ctx context.Context, inv *callplane.Invocation) error {
	fd := pc.fd
	rep, err := fd.pickAcquired(pc.lastFailed)
	if err != nil {
		return err
	}
	defer rep.release()
	inv.Target = rep.Name()
	var body []byte
	if pc.body != nil {
		body = pc.body.B
	}
	pc.lent.Add(1)
	req := callplane.Forward(ctx, pc.r, body, pc)
	t0 := pc.clk.Now()
	rsp, err := rep.rt.RoundTrip(req)
	if err != nil {
		if vtime.GaveUp(ctx, err) {
			// The caller gave up, which says nothing about the replica:
			// no latency sample, no failure, and no sibling to replay a
			// request nobody waits for.
			return ctx.Err()
		}
		// A fast connection-refused must not make a dead replica
		// look attractive: penalize the EWMA with at least a
		// second so picks steer away until the lease reaps it.
		elapsed := pc.clk.Now().Sub(t0)
		if elapsed < time.Second {
			elapsed = time.Second
		}
		rep.observe(elapsed, true)
		pc.lastFailed = rep.Name()
		return fmt.Errorf("%w: %s: %v", errExchange, rep.Name(), err)
	}
	rep.observe(pc.clk.Now().Sub(t0), rsp.StatusCode >= http.StatusInternalServerError)
	pc.resp = rsp
	return nil
}

// proxy admits (or sheds) one arrival and exchanges it with a replica.
func (fd *FrontDoor) proxy(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	clk := vtime.ClockFrom(ctx)

	pc := proxyCallPool.Get().(*proxyCall)
	defer pc.finish()
	// Buffer the body once so a failed attempt can be replayed against a
	// sibling replica.
	if r.Body != nil && r.Body != http.NoBody {
		pc.body = callplane.GetBuffer()
		if err := pc.body.Fill(r.Body, maxBodyBytes+1); err != nil {
			rest.WriteError(w, r, http.StatusBadRequest, "reading body: %v", err)
			return
		}
		if len(pc.body.B) > maxBodyBytes {
			rest.WriteError(w, r, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", maxBodyBytes)
			return
		}
	}

	if !fd.admit(ctx, clk) {
		fd.shedQueue.Add(1)
		fd.shedResponse(w, r, "admission queue full")
		return
	}
	defer func() { <-fd.sem }()
	fd.admitted.Add(1)

	start := clk.Now()
	pc.fd, pc.r, pc.clk = fd, r, clk
	// One string serves as the span name and, past its prefix, as the
	// operation.
	name, _ := fd.spanNames.Get(spanKey{r.Method, r.URL.Path}, spanName)
	pc.inv.Service, pc.inv.Operation, pc.inv.SpanName = "frontdoor", name[len("frontdoor."):], name
	pc.inv.Binding = "proxy"
	pc.inv.Remote, _ = telemetry.FromHTTPHeader(r.Header)
	err := fd.chain.RoundTrip(ctx, &pc.inv)
	switch {
	case err == nil:
		fd.completed.Add(1)
		fd.metrics.Record("frontdoor.proxy", clk.Now().Sub(start), pc.resp.StatusCode >= http.StatusInternalServerError)
		copyResponse(w, pc.resp)
	case errors.Is(err, ErrNoReplica) || errors.Is(err, ErrReplicasSaturated):
		fd.shedBusy.Add(1)
		fd.shedResponse(w, r, err.Error())
	default:
		fd.errored.Add(1)
		fd.metrics.Record("frontdoor.proxy", clk.Now().Sub(start), true)
		rest.WriteError(w, r, http.StatusBadGateway, "all replica attempts failed: %v", err)
	}
}

// admit claims an in-flight slot, waiting in the bounded queue when the
// door is saturated. False means shed. The wait is bounded by
// QueueTimeout on clk, the request's clock (see
// FrontDoorConfig.QueueDepth).
func (fd *FrontDoor) admit(ctx context.Context, clk vtime.Clock) bool {
	select {
	case fd.sem <- struct{}{}:
		return true
	default:
	}
	if n := fd.queued.Add(1); fd.queueDepth > 0 && n > int64(fd.queueDepth) {
		fd.queued.Add(-1)
		return false
	}
	defer fd.queued.Add(-1)
	qctx, cancel := ctx, context.CancelFunc(func() {})
	if fd.queueTimeout > 0 {
		qctx, cancel = clk.WithTimeout(ctx, fd.queueTimeout)
	}
	defer cancel()
	select {
	case fd.sem <- struct{}{}:
		return true
	case <-qctx.Done():
		return false
	}
}

// pickAcquired chooses a replica by power of two choices over
// score = (in-flight + 1) × EWMA latency and claims a slot on it. When
// both sampled candidates are full it falls back to a linear sweep, so
// ErrReplicasSaturated genuinely means "no headroom anywhere". A retry
// passes the replica that just failed as exclude, so the failover hop
// always lands on a sibling when one exists.
func (fd *FrontDoor) pickAcquired(exclude string) (*Replica, error) {
	fd.mu.Lock()
	reps := fd.eligible
	if exclude != "" && len(reps) > 1 {
		rest := make([]*Replica, 0, len(reps)-1)
		for _, r := range reps {
			if r.Name() != exclude {
				rest = append(rest, r)
			}
		}
		if len(rest) > 0 {
			reps = rest
		}
	}
	// Two distinct indices from the seeded PRNG, drawn only when there
	// are two replicas to choose between.
	var i, j int
	if n := len(reps); n > 1 {
		i, j = fd.rng.Intn(n), fd.rng.Intn(n-1)
		if j >= i {
			j++
		}
	}
	fd.mu.Unlock()
	switch len(reps) {
	case 0:
		return nil, ErrNoReplica
	case 1:
		if reps[0].tryAcquire() {
			reps[0].picks.Add(1)
			return reps[0], nil
		}
		return nil, ErrReplicasSaturated
	}
	a, b := reps[i], reps[j]
	if b.score() < a.score() {
		a, b = b, a
	}
	if a.tryAcquire() {
		a.picks.Add(1)
		return a, nil
	}
	if b.tryAcquire() {
		b.picks.Add(1)
		return b, nil
	}
	for _, rep := range reps {
		if rep.tryAcquire() {
			rep.picks.Add(1)
			return rep, nil
		}
	}
	return nil, ErrReplicasSaturated
}

// copyResponse relays a replica's buffered response to the client. Header
// value slices are handed over, not copied, clipped to their length: a
// replica may have handed over a shared slice itself (a cached entry's),
// so whoever appends next must reallocate.
func copyResponse(w http.ResponseWriter, resp *http.Response) {
	defer func() { _ = resp.Body.Close() }()
	h := w.Header()
	for k, vs := range resp.Header {
		if cur := h[k]; len(cur) > 0 {
			h[k] = append(cur, vs...)
		} else {
			h[k] = vs[:len(vs):len(vs)]
		}
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}
