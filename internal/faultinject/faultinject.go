// Package faultinject is a deterministic fault-injection layer for chaos
// testing the dependability stack of CSE445 unit 6. A seeded Injector
// evaluates per-operation fault Rules — added latency, injected errors,
// dropped and hung requests, payload corruption, optionally concentrated
// into periodic burst windows — and applies the plan through one
// binding: Transport, an http.RoundTripper wrapper that perturbs a
// client's view of the network from the consumer side. A caller that
// talks to several providers routes each one's requests to its own
// injector's transport through Links; the simulator's network is one.
//
// Determinism: the decision for the n-th call of an operation is a pure
// function of (seed, operation, n), so a fixed seed replays the exact
// same fault sequence regardless of goroutine scheduling or wall time.
package faultinject

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"soc/internal/telemetry"
	"soc/internal/vtime"
)

// Burst concentrates faults into periodic windows: out of Every
// consecutive calls, the first Length calls apply the rule's fault rates
// scaled to certainty (probability 1), and the remainder apply the base
// rates. A zero Burst disables windowing.
type Burst struct {
	// Every is the window period in calls (> 0 to enable).
	Every int
	// Length is how many calls at the start of each period are forced.
	Length int
}

// active reports whether the n-th call (0-based) falls inside a burst
// window.
func (b Burst) active(n uint64) bool {
	if b.Every <= 0 || b.Length <= 0 {
		return false
	}
	return int(n%uint64(b.Every)) < b.Length
}

// Rule is the fault plan for one operation. All rates are probabilities
// in [0, 1] evaluated independently per call.
type Rule struct {
	// ErrorRate injects a failure: the request is not sent and the
	// caller gets a synthesized 503 problem response.
	ErrorRate float64
	// DropRate simulates a broken connection: the request is not sent
	// and the caller gets a transport-level error.
	DropRate float64
	// HangRate holds the request, unsent, until the caller's context
	// expires (or MaxHang elapses), modelling a stuck dependency.
	HangRate float64
	// MaxHang caps a hung request so tests without deadlines still
	// terminate; 0 means 30 s.
	MaxHang time.Duration
	// LatencyRate adds Latency (+ up to LatencyJitter) before the call
	// proceeds — a latency spike, not a failure.
	LatencyRate   float64
	Latency       time.Duration
	LatencyJitter time.Duration
	// CorruptRate truncates and mangles the response body after the
	// call succeeds, modelling partial writes and bit rot.
	CorruptRate float64
	// Burst optionally concentrates all enabled faults into windows.
	Burst Burst
}

func (r Rule) validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"ErrorRate", r.ErrorRate}, {"DropRate", r.DropRate},
		{"HangRate", r.HangRate}, {"LatencyRate", r.LatencyRate},
		{"CorruptRate", r.CorruptRate},
	} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("faultinject: %s %v out of [0,1]", p.name, p.v)
		}
	}
	if r.Latency < 0 || r.LatencyJitter < 0 || r.MaxHang < 0 {
		return fmt.Errorf("faultinject: negative duration in rule")
	}
	if r.Burst.Every < 0 || r.Burst.Length < 0 {
		return fmt.Errorf("faultinject: negative burst window")
	}
	return nil
}

// zero reports whether the rule injects nothing.
func (r Rule) zero() bool {
	return r.ErrorRate == 0 && r.DropRate == 0 && r.HangRate == 0 &&
		r.LatencyRate == 0 && r.CorruptRate == 0
}

// Plan is a complete fault plan: a seed, a default rule, and per-operation
// overrides keyed by "Service.Operation" (the key the host metrics use).
type Plan struct {
	// Seed makes the fault sequence reproducible.
	Seed int64
	// Default applies to operations with no explicit rule.
	Default Rule
	// Rules maps operation keys to their fault plans.
	Rules map[string]Rule
}

// Outcome names a fault decision, used as a counter key.
type Outcome string

// Possible outcomes of a fault decision.
const (
	Pass    Outcome = "pass"
	Errored Outcome = "error"
	Dropped Outcome = "drop"
	Hung    Outcome = "hang"
)

// decision is one call's resolved fault plan.
type decision struct {
	outcome Outcome
	latency time.Duration
	corrupt bool
}

// Injector evaluates a Plan deterministically. Its counters (Counts)
// are keyed "operation|outcome", where outcome is pass, error, drop,
// hang, latency or corrupt. It is safe for concurrent use.
type Injector struct {
	plan Plan

	// Tracer records injected faults as zero-duration fault events in the
	// trace of the call being perturbed — under the span of the request's
	// context, else the one its trace header names — so a trace tree
	// shows which attempts failed by design. It is the calling client's
	// tracer; nil uses the process default.
	Tracer *telemetry.Tracer

	ledger
}

// New returns an injector for the plan.
func New(plan Plan) (*Injector, error) {
	if err := plan.Default.validate(); err != nil {
		return nil, err
	}
	for op, r := range plan.Rules {
		if err := r.validate(); err != nil {
			return nil, fmt.Errorf("%w (operation %q)", err, op)
		}
	}
	return &Injector{plan: plan, ledger: ledger{seed: plan.Seed}}, nil
}

func (inj *Injector) rule(op string) Rule {
	if r, ok := inj.plan.Rules[op]; ok {
		return r
	}
	return inj.plan.Default
}

// decide resolves the fault plan for the next call of op, drawing from
// that call's ledger PRNG.
func (inj *Injector) decide(op string) decision {
	r := inj.rule(op)
	n := inj.next(op)
	if r.zero() {
		inj.count(op, string(Pass))
		return decision{outcome: Pass}
	}

	rng := inj.rng(op, n)
	errRate, dropRate, hangRate, latRate, corruptRate :=
		r.ErrorRate, r.DropRate, r.HangRate, r.LatencyRate, r.CorruptRate
	if r.Burst.active(n) {
		if errRate > 0 {
			errRate = 1
		}
		if dropRate > 0 {
			dropRate = 1
		}
		if hangRate > 0 {
			hangRate = 1
		}
		if latRate > 0 {
			latRate = 1
		}
		if corruptRate > 0 {
			corruptRate = 1
		}
	}

	d := decision{outcome: Pass}
	if latRate > 0 && rng.Float64() < latRate {
		d.latency = r.Latency
		if r.LatencyJitter > 0 {
			d.latency += time.Duration(rng.Int63n(int64(r.LatencyJitter) + 1))
		}
		inj.count(op, "latency")
	}
	// Terminal faults are mutually exclusive; evaluate in severity order.
	switch {
	case hangRate > 0 && rng.Float64() < hangRate:
		d.outcome = Hung
	case dropRate > 0 && rng.Float64() < dropRate:
		d.outcome = Dropped
	case errRate > 0 && rng.Float64() < errRate:
		d.outcome = Errored
	default:
		if corruptRate > 0 && rng.Float64() < corruptRate {
			d.corrupt = true
			inj.count(op, "corrupt")
		}
	}
	inj.count(op, string(d.outcome))
	return d
}

// ledger is the seeded decision bookkeeping both injectors embed: a
// call index per key, the PRNG each call draws from, and the outcome
// counters. The PRNG of a key's n-th call is seeded from (seed, key, n),
// so the n-th call always draws the same faults, independent of
// interleaving. Safe for concurrent use.
type ledger struct {
	seed int64

	mu     sync.Mutex
	calls  map[string]uint64 // per-key call index
	counts map[string]uint64 // "key|outcome"
}

// next returns key's call index and advances it.
func (l *ledger) next(key string) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.calls == nil {
		l.calls = map[string]uint64{}
	}
	n := l.calls[key]
	l.calls[key] = n + 1
	return n
}

// rng returns the PRNG of key's n-th call.
func (l *ledger) rng(key string, n uint64) *rand.Rand {
	mix := n * 0x9E3779B97F4A7C15 // golden-ratio sequence spreads indices
	return rand.New(rand.NewSource(l.seed ^ int64(mix) ^ hashOp(key)))
}

func hashOp(op string) int64 {
	var h uint64 = 1469598103934665603 // FNV-1a
	for i := 0; i < len(op); i++ {
		h ^= uint64(op[i])
		h *= 1099511628211
	}
	return int64(h)
}

func (l *ledger) count(key, what string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.counts == nil {
		l.counts = map[string]uint64{}
	}
	l.counts[key+"|"+what]++
}

// Counts snapshots the injection counters, keyed "key|outcome".
func (l *ledger) Counts() map[string]uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string]uint64, len(l.counts))
	for k, v := range l.counts {
		out[k] = v
	}
	return out
}

func (inj *Injector) tracer() *telemetry.Tracer {
	if inj.Tracer != nil {
		return inj.Tracer
	}
	return telemetry.Default()
}

// event records an injected fault as a child event of the perturbed
// call's span. Untraced calls stay silent — an orphan fault span with no
// trace to hang from would only clutter the ring.
func (inj *Injector) event(ctx context.Context, sc telemetry.SpanContext, op, what string) {
	if !sc.Valid() {
		return
	}
	inj.tracer().Event(ctx, sc, telemetry.KindFault, op, "fault", what)
}

// String summarizes the counters, sorted, for test logs.
func (inj *Injector) String() string {
	counts := inj.Counts()
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%s=%d", k, counts[k])
	}
	return b.String()
}

// hang and sleepCtx wait on the context's clock (vtime.ClockFrom), so
// injected latency and hangs consume virtual time under simulation and
// wall time otherwise.
func (inj *Injector) hang(ctx context.Context, r Rule) {
	max := r.MaxHang
	if max <= 0 {
		max = 30 * time.Second
	}
	//soclint:ignore errdiscard a hang ends the same way whether the context expired or the cap elapsed; the caller only cares that it returned
	_ = vtime.Sleep(ctx, max)
}

func sleepCtx(ctx context.Context, d time.Duration) {
	if d <= 0 {
		return
	}
	//soclint:ignore errdiscard injected latency is best-effort; a cancelled context just cuts the spike short
	_ = vtime.Sleep(ctx, d)
}

// corrupt deterministically mangles a payload: truncate to ~half and flip
// a byte, guaranteeing JSON/XML decoders reject it.
func corrupt(b []byte) []byte {
	if len(b) == 0 {
		return []byte{0xFF}
	}
	out := append([]byte(nil), b[:len(b)/2+1]...)
	out[len(out)-1] ^= 0xA5
	return out
}

// transport is the consumer-side binding.
type transport struct {
	inj  *Injector
	base http.RoundTripper
}

// Transport returns the consumer-side binding: an http.RoundTripper that
// applies the fault plan around base (nil means http.DefaultTransport).
// Keys are "Service.Operation" parsed from Host-convention invocation
// URLs (/services/{name}/invoke/{op} and /services/{name}/soap), and the
// raw path otherwise.
func (inj *Injector) Transport(base http.RoundTripper) http.RoundTripper {
	if base == nil {
		base = http.DefaultTransport
	}
	return &transport{inj: inj, base: base}
}

// pathOp parses the Host URL conventions back into an operation key.
func pathOp(path string) string {
	parts := strings.Split(strings.Trim(path, "/"), "/")
	if len(parts) >= 2 && parts[0] == "services" {
		switch {
		case len(parts) == 4 && parts[2] == "invoke":
			return parts[1] + "." + parts[3]
		case len(parts) == 3 && parts[2] == "soap":
			return parts[1] + ".soap"
		}
	}
	return path
}

func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	op := pathOp(req.URL.Path)
	d := t.inj.decide(op)
	sc := telemetry.SpanContextOf(req.Context())
	if !sc.Valid() {
		sc, _ = telemetry.FromHTTPHeader(req.Header)
	}
	if d.latency > 0 {
		sleepCtx(req.Context(), d.latency)
	}
	if d.corrupt {
		t.inj.event(req.Context(), sc, op, "corrupt")
	}
	if d.outcome != Pass {
		t.inj.event(req.Context(), sc, op, string(d.outcome))
		// The request is never sent, so its body is closed here, as an
		// http.RoundTripper must.
		if req.Body != nil {
			_ = req.Body.Close()
		}
	}
	switch d.outcome {
	case Hung:
		t.inj.hang(req.Context(), t.inj.rule(op))
		if err := req.Context().Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("faultinject: hung request released")
	case Dropped:
		return nil, fmt.Errorf("faultinject: connection dropped")
	case Errored:
		return &http.Response{
			Status:     "503 Service Unavailable",
			StatusCode: http.StatusServiceUnavailable,
			Proto:      req.Proto,
			ProtoMajor: req.ProtoMajor,
			ProtoMinor: req.ProtoMinor,
			Header:     http.Header{"Content-Type": []string{"application/json"}},
			Body:       io.NopCloser(strings.NewReader(`{"status":503,"title":"Service Unavailable","detail":"faultinject: injected error"}`)),
			Request:    req,
		}, nil
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil || !d.corrupt {
		return resp, err
	}
	body, readErr := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if readErr != nil {
		return nil, readErr
	}
	mangled := corrupt(body)
	resp.Body = io.NopCloser(bytes.NewReader(mangled))
	resp.ContentLength = int64(len(mangled))
	resp.Header.Del("Content-Length")
	return resp, nil
}

// Links is a client's network of per-host links: it routes each request
// by URL host (host:port, as in req.URL.Host) to that host's
// RoundTripper, typically an Injector's Transport. A host that should be
// reached unperturbed is listed with http.DefaultTransport (or any other
// transport); a request to a host with no link fails unsent.
type Links map[string]http.RoundTripper

// RoundTrip sends req over the link to its host.
func (l Links) RoundTrip(req *http.Request) (*http.Response, error) {
	if rt, ok := l[req.URL.Host]; ok {
		return rt.RoundTrip(req)
	}
	// The request is never sent, so its body is closed here, as an
	// http.RoundTripper must.
	if req.Body != nil {
		_ = req.Body.Close()
	}
	return nil, fmt.Errorf("faultinject: no link to host %q", req.URL.Host)
}
