package callplane

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"time"

	"soc/internal/reliability"
	"soc/internal/telemetry"
)

// WithSpan opens the root client span of the invocation, named
// Service.Operation, annotated with the binding and — when retries or
// failover multiplied delivery — the total attempt count; it joins the
// trace of inv.Remote when the context carries no trace of its own. A nil
// tracer makes this a no-op interceptor, and so does an unsampled trace.
func WithSpan(t *telemetry.Tracer, kind telemetry.Kind) Interceptor {
	return func(next Transport) Transport {
		return TransportFunc(func(ctx context.Context, inv *Invocation) error {
			parent, unsampled := TraceOf(ctx, inv)
			if unsampled {
				return next.RoundTrip(ctx, inv)
			}
			sp, ctx := t.StartSpanRemote(ctx, kind, inv.Name(), parent)
			if sp != nil {
				if inv.Binding != "" {
					sp.Annotate("binding", inv.Binding)
				}
				if inv.Target != "" {
					sp.Target = inv.Target
				}
			}
			err := next.RoundTrip(ctx, inv)
			if sp != nil && inv.Attempt > 1 {
				sp.Annotate("attempts", strconv.Itoa(inv.Attempt))
			}
			sp.EndErr(err)
			return err
		})
	}
}

// TraceOf resolves the invocation's trace as StartSpan would: the
// context's first, then the remote the inbound hop carried. A hop on an
// unsampled remote leaves its context as it found it, so the attempt
// below reads the decision from inv.Remote too.
func TraceOf(ctx context.Context, inv *Invocation) (parent telemetry.SpanContext, unsampled bool) {
	parent = telemetry.SpanContextOf(ctx)
	if !parent.Valid() {
		parent = inv.Remote
	}
	return parent, parent.Valid() && !parent.Sampled
}

// WithAttemptSpan numbers each delivery attempt and records it as a child
// span carrying the chosen replica; a breaker rejection is annotated
// "breaker=open" so failed attempts explain themselves in the trace tree.
// On an unsampled trace it only numbers the attempt.
func WithAttemptSpan(t *telemetry.Tracer) Interceptor {
	return func(next Transport) Transport {
		return TransportFunc(func(ctx context.Context, inv *Invocation) error {
			inv.Attempt++
			parent, unsampled := TraceOf(ctx, inv)
			if unsampled {
				return next.RoundTrip(ctx, inv)
			}
			sp, ctx := t.StartSpanRemote(ctx, telemetry.KindClient, "attempt", parent)
			if sp != nil {
				sp.Attempt = inv.Attempt
				sp.Target = inv.Target
			}
			err := next.RoundTrip(ctx, inv)
			if err != nil && errors.Is(err, reliability.ErrOpen) {
				sp.Annotate("breaker", "open")
			}
			sp.EndErr(err)
			return err
		})
	}
}

// WithTimeout bounds each delivery below it; d <= 0 disables the bound.
// The delivery runs on the caller's goroutine and must honour its context.
func WithTimeout(d time.Duration) Interceptor {
	return func(next Transport) Transport {
		if d <= 0 {
			return next
		}
		return TransportFunc(func(ctx context.Context, inv *Invocation) error {
			return reliability.WithTimeout(ctx, d, func(ctx context.Context) error {
				return next.RoundTrip(ctx, inv)
			})
		})
	}
}

// WithRetry re-delivers on failure per the policy (each pass runs the
// whole inner chain, e.g. a full failover sweep).
func WithRetry(p reliability.RetryPolicy) Interceptor {
	return func(next Transport) Transport {
		return TransportFunc(func(ctx context.Context, inv *Invocation) error {
			return reliability.Retry(ctx, p, func(ctx context.Context) error {
				return next.RoundTrip(ctx, inv)
			})
		})
	}
}

// WithBulkhead caps concurrent deliveries through the chain.
func WithBulkhead(b *reliability.Bulkhead) Interceptor {
	return func(next Transport) Transport {
		return TransportFunc(func(ctx context.Context, inv *Invocation) error {
			return b.Do(ctx, func(ctx context.Context) error {
				return next.RoundTrip(ctx, inv)
			})
		})
	}
}

// WithBreakers guards each delivery with the circuit breaker of the
// invocation's current target, so one bad replica can't open the circuit
// for its siblings. Targets the lookup doesn't know (nil) pass through.
func WithBreakers(get func(target string) *reliability.Breaker) Interceptor {
	return func(next Transport) Transport {
		return TransportFunc(func(ctx context.Context, inv *Invocation) error {
			br := get(inv.Target)
			if br == nil {
				return next.RoundTrip(ctx, inv)
			}
			return br.Do(ctx, func(ctx context.Context) error {
				return next.RoundTrip(ctx, inv)
			})
		})
	}
}

// FailoverOptions parameterize WithFailover with a health view and
// observation hooks; every field is optional.
type FailoverOptions struct {
	// Healthy reports whether a target is currently usable. Nil means no
	// health filtering.
	Healthy func(target string) bool
	// AnyHealthy reports whether any replica is usable; consulted once per
	// failover pass. When it returns false, demoted replicas are tried
	// anyway — a stale health view's long-shot beats a guaranteed failure.
	AnyHealthy func() bool
	// OnHop fires for every replica after the first within one pass
	// (including ones then skipped); OnSkip for replicas skipped as
	// demoted; OnAttempt for replicas actually tried.
	OnHop, OnSkip, OnAttempt func(ctx context.Context, inv *Invocation)
}

// WithFailover sweeps the replica group, pointing the invocation's Target
// at each replica in turn until one delivery succeeds. Sticky preference,
// ordering, and the all-demoted escape hatch follow reliability.Failover.
// A replica skipped as demoted records ErrReplicaSkipped wrapped with its
// target.
func WithFailover(fo *reliability.Failover[string], opts FailoverOptions) Interceptor {
	return func(next Transport) Transport {
		return TransportFunc(func(ctx context.Context, inv *Invocation) error {
			allDemoted := opts.AnyHealthy != nil && !opts.AnyHealthy()
			first := true
			return fo.Do(ctx, func(ctx context.Context, target string) error {
				inv.Target = target
				if !first && opts.OnHop != nil {
					opts.OnHop(ctx, inv)
				}
				first = false
				if opts.Healthy != nil && !allDemoted && !opts.Healthy(target) {
					if opts.OnSkip != nil {
						opts.OnSkip(ctx, inv)
					}
					return fmt.Errorf("%w: %s", ErrReplicaSkipped, target)
				}
				if opts.OnAttempt != nil {
					opts.OnAttempt(ctx, inv)
				}
				return next.RoundTrip(ctx, inv)
			})
		})
	}
}
