// Package callplane is the single invocation spine every consumer path in
// the module rides: host.Client, soap.Client, host.ResilientClient and the
// registry REST client are thin bindings over one Invocation value, one
// Transport interface and one composable Interceptor chain. The spine is
// what carries a request's identity end to end — service, operation,
// binding, chosen replica, attempt number and (via telemetry) trace
// context — so the same resilience stack (bulkhead → retry → failover →
// breaker → timeout) is reusable by any client, and every hop of one
// originating call lands in one trace tree.
//
// Outbound HTTP requests are constructed here and nowhere else: NewRequest,
// Route.NewRequest and Forward (request.go) are the module's sanctioned
// context→request sites (enforced by the soclint ctxpropagate rule), so
// deadline plumbing and trace-header injection can never drift apart
// across clients again.
package callplane

import (
	"context"
	"errors"

	"soc/internal/telemetry"
)

// ErrNoPayload reports an Invocation dispatched to Terminal without a
// payload function — a binding bug, not a runtime condition.
var ErrNoPayload = errors.New("callplane: invocation has no payload func")

// ErrReplicaSkipped marks a replica the failover interceptor skipped
// because the health view currently demotes it.
var ErrReplicaSkipped = errors.New("callplane: replica skipped (demoted)")

// Invocation is one service call crossing the plane. Interceptors mutate
// it in flight: failover sets Target per replica, the attempt interceptor
// counts Attempt. The payload exchange itself is the Do func, installed by
// the binding client and executed by Terminal at the bottom of the chain.
type Invocation struct {
	// Service and Operation name the call; Name joins them for spans.
	Service   string
	Operation string
	// SpanName, when set, is what Name returns: a binding that already
	// holds the joined name (a Route's, say) spares the call a concat.
	SpanName string
	// Remote is the trace context an inbound hop arrived with; the root
	// span parents on it when the context carries no active span.
	Remote telemetry.SpanContext
	// Binding is the wire protocol ("rest", "soap", "registry", ...).
	Binding string
	// Target is the peer base URL for the current attempt. Bindings with a
	// fixed endpoint set it up front; the failover interceptor overwrites
	// it per replica.
	Target string
	// Attempt counts delivery attempts (retry × failover), 1-based;
	// incremented by WithAttemptSpan.
	Attempt int
	// Do performs the actual payload exchange against Target.
	Do func(ctx context.Context, inv *Invocation) error
}

// Name returns "Service.Operation" (or just the operation when the
// service is anonymous) — the span name of the call.
func (inv *Invocation) Name() string {
	if inv.SpanName != "" {
		return inv.SpanName
	}
	if inv.Service == "" {
		return inv.Operation
	}
	return inv.Service + "." + inv.Operation
}

// Transport delivers an invocation. Implementations wrap each other via
// Interceptors, bottoming out at Terminal.
type Transport interface {
	RoundTrip(ctx context.Context, inv *Invocation) error
}

// TransportFunc adapts a function to Transport.
type TransportFunc func(ctx context.Context, inv *Invocation) error

// RoundTrip calls f.
func (f TransportFunc) RoundTrip(ctx context.Context, inv *Invocation) error {
	return f(ctx, inv)
}

// Interceptor wraps a Transport with one concern (timeout, retry, spans,
// ...). Interceptors compose with Chain.
type Interceptor func(Transport) Transport

// Terminal executes the invocation's payload func — the bottom of every
// chain.
var Terminal Transport = TransportFunc(func(ctx context.Context, inv *Invocation) error {
	if inv.Do == nil {
		return ErrNoPayload
	}
	return inv.Do(ctx, inv)
})

// Chain wraps t with the interceptors so the first listed is outermost:
// Chain(Terminal, a, b, c) delivers a → b → c → Terminal. Build the chain
// once per client; per-call state lives on the Invocation, not the chain.
func Chain(t Transport, interceptors ...Interceptor) Transport {
	for i := len(interceptors) - 1; i >= 0; i-- {
		t = interceptors[i](t)
	}
	return t
}
