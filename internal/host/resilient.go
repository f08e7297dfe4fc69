package host

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"soc/internal/callplane"
	"soc/internal/core"
	"soc/internal/reliability"
	"soc/internal/telemetry"
)

// Policy configures a ResilientClient. The zero value gets sensible
// defaults: 3 attempts with 10 ms base backoff, 5-failure breakers with a
// 1 s cooldown, a 10 s per-attempt timeout, and a 64-call bulkhead.
// Policy holds no clock: every timed layer — backoffs, per-attempt
// timeouts, breaker cooldowns — runs on the clock of the context each
// Call carries (vtime.ClockFrom), so a caller on a vtime.Virtual gets
// the whole stack in virtual time by threading it through that context.
type Policy struct {
	// Timeout bounds each individual attempt; 0 means 10 s.
	Timeout time.Duration
	// Retry wraps the whole failover pass; a zero MaxAttempts means 3.
	Retry reliability.RetryPolicy
	// BreakerThreshold consecutive failures open one replica's breaker;
	// 0 means 5.
	BreakerThreshold int
	// BreakerCooldown is the open→half-open delay; 0 means 1 s.
	BreakerCooldown time.Duration
	// MaxConcurrent caps in-flight calls (bulkhead); 0 means 64.
	MaxConcurrent int
	// HTTPClient is used by every replica client; nil uses each client's
	// default. Tests inject fault transports here.
	HTTPClient *http.Client
	// Tracer records the call's trace — root span, per-attempt spans,
	// skip events; nil uses the process default.
	Tracer *telemetry.Tracer
	// Health, when set, is the checker whose classification failover
	// consults: demoted replicas are skipped while any replica is healthy.
	// The caller builds it over the same replica URLs, starts it (or
	// drives Check/CheckNow on a schedule) and stops it.
	Health *reliability.HealthChecker
}

func (p Policy) withDefaults() Policy {
	if p.Timeout <= 0 {
		p.Timeout = 10 * time.Second
	}
	if p.Retry.MaxAttempts <= 0 {
		p.Retry.MaxAttempts = 3
		if p.Retry.BaseDelay <= 0 {
			p.Retry.BaseDelay = 10 * time.Millisecond
		}
	}
	if p.BreakerThreshold <= 0 {
		p.BreakerThreshold = 5
	}
	if p.BreakerCooldown <= 0 {
		p.BreakerCooldown = time.Second
	}
	if p.MaxConcurrent <= 0 {
		p.MaxConcurrent = 64
	}
	if p.Tracer == nil {
		p.Tracer = telemetry.Default()
	}
	return p
}

// replica is one backend: its client and its private circuit breaker, so
// one bad replica can't open the circuit for its siblings.
type replica struct {
	client  *Client
	breaker *reliability.Breaker
}

// ResilientClient composes the unit-6 reliability primitives around
// host.Client as one precompiled call-plane chain: root span → bulkhead →
// retry → health-aware failover → per-attempt span → per-replica breaker
// → per-attempt timeout → REST exchange. One Call under faults renders
// as one trace tree whose attempt spans carry the replica tried, the
// attempt number, and breaker/skip annotations. Safe for concurrent use.
type ResilientClient struct {
	byURL map[string]*replica
	chain callplane.Transport

	attempts  atomic.Uint64 // individual replica attempts
	failovers atomic.Uint64 // attempts beyond the first within one pass
	skipped   atomic.Uint64 // replicas skipped while demoted
}

// NewResilientClient returns a client over the replica base URLs.
func NewResilientClient(policy Policy, baseURLs ...string) (*ResilientClient, error) {
	if len(baseURLs) == 0 {
		return nil, errors.New("host: resilient client needs at least one replica")
	}
	policy = policy.withDefaults()
	rc := &ResilientClient{byURL: make(map[string]*replica, len(baseURLs))}
	for _, u := range baseURLs {
		br, err := reliability.NewBreaker(policy.BreakerThreshold, policy.BreakerCooldown)
		if err != nil {
			return nil, err
		}
		c := NewClient(u)
		c.HTTPClient = policy.HTTPClient
		c.Tracer = policy.Tracer
		rc.byURL[u] = &replica{client: c, breaker: br}
	}
	fo, err := reliability.NewFailover(baseURLs...)
	if err != nil {
		return nil, err
	}
	bh, err := reliability.NewBulkhead(policy.MaxConcurrent)
	if err != nil {
		return nil, err
	}
	tr := policy.Tracer
	fopts := callplane.FailoverOptions{
		OnHop: func(ctx context.Context, inv *callplane.Invocation) {
			rc.failovers.Add(1)
		},
		OnSkip: func(ctx context.Context, inv *callplane.Invocation) {
			rc.skipped.Add(1)
			tr.Event(ctx, telemetry.SpanContextOf(ctx), telemetry.KindClient, "skip", "replica", inv.Target)
		},
		OnAttempt: func(ctx context.Context, inv *callplane.Invocation) {
			rc.attempts.Add(1)
		},
	}
	if hc := policy.Health; hc != nil {
		fopts.Healthy = hc.IsHealthy
		// When the checker says nothing is healthy, try everything — the
		// checker may be stale, and a long-shot beats a guaranteed failure.
		fopts.AnyHealthy = func() bool { return len(hc.Healthy()) > 0 }
	}
	rc.chain = callplane.Chain(callplane.Terminal,
		callplane.WithSpan(tr, telemetry.KindClient),
		callplane.WithBulkhead(bh),
		callplane.WithRetry(policy.Retry),
		callplane.WithFailover(fo, fopts),
		callplane.WithAttemptSpan(tr),
		callplane.WithBreakers(func(u string) *reliability.Breaker {
			if rep := rc.byURL[u]; rep != nil {
				return rep.breaker
			}
			return nil
		}),
		callplane.WithTimeout(policy.Timeout),
	)
	return rc, nil
}

// Breaker exposes the circuit breaker of one replica (nil for unknown
// URLs) so observers — the simulation harness's invariant checkers, for
// one — can attach OnTransition hooks or read its state.
func (rc *ResilientClient) Breaker(url string) *reliability.Breaker {
	if rep := rc.byURL[url]; rep != nil {
		return rep.breaker
	}
	return nil
}

// Counters reports attempts issued, failover hops and unhealthy skips.
func (rc *ResilientClient) Counters() (attempts, failovers, skipped uint64) {
	return rc.attempts.Load(), rc.failovers.Load(), rc.skipped.Load()
}

// Call invokes service.op over the REST binding with the full resilience
// stack.
func (rc *ResilientClient) Call(ctx context.Context, service, op string, args core.Values) (core.Values, error) {
	var out core.Values
	inv := &callplane.Invocation{Service: service, Operation: op, Binding: "rest",
		Do: func(ctx context.Context, inv *callplane.Invocation) error {
			rep := rc.byURL[inv.Target]
			if rep == nil {
				return fmt.Errorf("host: unknown replica %q", inv.Target)
			}
			res, err := rep.client.call(ctx, service, op, args)
			if err != nil {
				return err
			}
			out = res
			return nil
		},
	}
	err := rc.chain.RoundTrip(ctx, inv)
	return out, err
}
