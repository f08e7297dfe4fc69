package callplane

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"soc/internal/reliability"
	"soc/internal/telemetry"
)

func TestChainOrder(t *testing.T) {
	var order []string
	mark := func(name string) Interceptor {
		return func(next Transport) Transport {
			return TransportFunc(func(ctx context.Context, inv *Invocation) error {
				order = append(order, name)
				return next.RoundTrip(ctx, inv)
			})
		}
	}
	inv := &Invocation{Operation: "x", Do: func(ctx context.Context, inv *Invocation) error {
		order = append(order, "payload")
		return nil
	}}
	chain := Chain(Terminal, mark("a"), mark("b"), mark("c"))
	if err := chain.RoundTrip(context.Background(), inv); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(order, ","); got != "a,b,c,payload" {
		t.Fatalf("order = %s, want a,b,c,payload (first listed outermost)", got)
	}
}

func TestTerminalWithoutPayload(t *testing.T) {
	err := Terminal.RoundTrip(context.Background(), &Invocation{Operation: "x"})
	if !errors.Is(err, ErrNoPayload) {
		t.Fatalf("err = %v, want ErrNoPayload", err)
	}
}

func TestInvocationName(t *testing.T) {
	if n := (&Invocation{Service: "Calc", Operation: "Add"}).Name(); n != "Calc.Add" {
		t.Fatalf("Name = %q", n)
	}
	if n := (&Invocation{Operation: "Add"}).Name(); n != "Add" {
		t.Fatalf("anonymous Name = %q", n)
	}
}

func TestNewRequestInjectsTrace(t *testing.T) {
	tr := telemetry.NewSamplingTracer(8, 1)
	sp, ctx := tr.StartSpan(context.Background(), telemetry.KindClient, "Calc.Add")
	defer sp.End()

	req, err := NewRequest(ctx, "POST", "http://example/invoke", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	if got := req.Header.Get(telemetry.HeaderName); got != sp.TraceParent() {
		t.Fatalf("trace header = %q, want %q", got, sp.TraceParent())
	}
	if req.Context() != ctx {
		t.Fatal("request not bound to caller context")
	}

	// Untraced context: no header.
	req2, err := NewRequest(context.Background(), "GET", "http://example/", nil)
	if err != nil {
		t.Fatal(err)
	}
	if req2.Header.Get(telemetry.HeaderName) != "" {
		t.Fatal("header stamped without an active span")
	}
}

func TestWithSpanRecordsRoot(t *testing.T) {
	tr := telemetry.NewSamplingTracer(8, 1)
	boom := errors.New("boom")
	inv := &Invocation{Service: "Calc", Operation: "Add", Binding: "rest",
		Do: func(ctx context.Context, inv *Invocation) error { return boom }}
	chain := Chain(Terminal, WithSpan(tr, telemetry.KindClient))
	if err := chain.RoundTrip(context.Background(), inv); !errors.Is(err, boom) {
		t.Fatal("error not propagated")
	}
	spans := tr.Snapshot()
	if len(spans) != 1 {
		t.Fatalf("spans = %d, want 1", len(spans))
	}
	sp := spans[0]
	if sp.Name != "Calc.Add" || sp.Err != "boom" || sp.Kind != telemetry.KindClient {
		t.Fatalf("root span = %+v", sp)
	}
	if anns := sp.Annotations(); len(anns) != 1 || anns[0].Value != "rest" {
		t.Fatalf("annotations = %v", anns)
	}
}

func TestWithAttemptSpanNumbersAndBreakerAnnotation(t *testing.T) {
	tr := telemetry.NewSamplingTracer(8, 1)
	br, err := reliability.NewBreaker(1, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	fail := errors.New("down")
	inv := &Invocation{Operation: "Op", Target: "http://a",
		Do: func(ctx context.Context, inv *Invocation) error { return fail }}
	chain := Chain(Terminal,
		WithAttemptSpan(tr),
		WithBreakers(func(string) *reliability.Breaker { return br }),
	)
	// First delivery fails and opens the 1-threshold breaker; second is
	// rejected by the open breaker.
	_ = chain.RoundTrip(context.Background(), inv)
	err = chain.RoundTrip(context.Background(), inv)
	if !errors.Is(err, reliability.ErrOpen) {
		t.Fatalf("second call err = %v, want ErrOpen", err)
	}
	if inv.Attempt != 2 {
		t.Fatalf("Attempt = %d, want 2", inv.Attempt)
	}
	spans := tr.Snapshot()
	if len(spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(spans))
	}
	if spans[0].Attempt != 1 || spans[1].Attempt != 2 || spans[1].Target != "http://a" {
		t.Fatalf("attempt spans = %+v", spans)
	}
	if anns := spans[1].Annotations(); len(anns) != 1 || anns[0] != (telemetry.Annotation{Key: "breaker", Value: "open"}) {
		t.Fatalf("open-breaker annotation missing: %v", anns)
	}
}

func TestWithTimeout(t *testing.T) {
	inv := &Invocation{Operation: "slow", Do: func(ctx context.Context, inv *Invocation) error {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Second):
			return nil
		}
	}}
	chain := Chain(Terminal, WithTimeout(5*time.Millisecond))
	if err := chain.RoundTrip(context.Background(), inv); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	// Zero timeout is the identity interceptor.
	fast := &Invocation{Operation: "f", Do: func(ctx context.Context, inv *Invocation) error { return nil }}
	if err := Chain(Terminal, WithTimeout(0)).RoundTrip(context.Background(), fast); err != nil {
		t.Fatal(err)
	}
}

func TestWithRetry(t *testing.T) {
	calls := 0
	inv := &Invocation{Operation: "flaky", Do: func(ctx context.Context, inv *Invocation) error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	}}
	p := reliability.RetryPolicy{MaxAttempts: 3}
	if err := Chain(Terminal, WithRetry(p)).RoundTrip(context.Background(), inv); err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
}

func TestWithBulkhead(t *testing.T) {
	bh, err := reliability.NewBulkhead(1)
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{})
	release := make(chan struct{})
	slow := &Invocation{Operation: "s", Do: func(ctx context.Context, inv *Invocation) error {
		close(entered)
		<-release
		return nil
	}}
	chain := Chain(Terminal, WithBulkhead(bh))
	done := make(chan error, 1)
	go func() { done <- chain.RoundTrip(context.Background(), slow) }()
	<-entered
	// Second delivery finds the only slot taken.
	second := &Invocation{Operation: "s2", Do: func(ctx context.Context, inv *Invocation) error { return nil }}
	if err := chain.RoundTrip(context.Background(), second); !errors.Is(err, reliability.ErrBulkheadFull) {
		t.Fatalf("err = %v, want ErrBulkheadFull", err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestWithFailoverSweepAndHooks(t *testing.T) {
	fo, err := reliability.NewFailover("http://a", "http://b", "http://c")
	if err != nil {
		t.Fatal(err)
	}
	var hops, skips, tries []string
	opts := FailoverOptions{
		Healthy:    func(target string) bool { return target != "http://a" },
		AnyHealthy: func() bool { return true },
		OnHop:      func(ctx context.Context, inv *Invocation) { hops = append(hops, inv.Target) },
		OnSkip:     func(ctx context.Context, inv *Invocation) { skips = append(skips, inv.Target) },
		OnAttempt:  func(ctx context.Context, inv *Invocation) { tries = append(tries, inv.Target) },
	}
	inv := &Invocation{Operation: "Op", Do: func(ctx context.Context, inv *Invocation) error {
		if inv.Target == "http://b" {
			return errors.New("b down")
		}
		return nil
	}}
	if err := Chain(Terminal, WithFailover(fo, opts)).RoundTrip(context.Background(), inv); err != nil {
		t.Fatal(err)
	}
	// a skipped (demoted), b tried and failed, c tried and succeeded.
	if strings.Join(skips, ",") != "http://a" {
		t.Fatalf("skips = %v", skips)
	}
	if strings.Join(tries, ",") != "http://b,http://c" {
		t.Fatalf("tries = %v", tries)
	}
	// Hops: every replica after the first, including the skipped pass.
	if strings.Join(hops, ",") != "http://b,http://c" {
		t.Fatalf("hops = %v", hops)
	}
	if inv.Target != "http://c" {
		t.Fatalf("final target = %s", inv.Target)
	}
}

func TestWithFailoverAllDemotedEscape(t *testing.T) {
	fo, err := reliability.NewFailover("http://a")
	if err != nil {
		t.Fatal(err)
	}
	tried := false
	opts := FailoverOptions{
		Healthy:    func(string) bool { return false },
		AnyHealthy: func() bool { return false },
	}
	inv := &Invocation{Operation: "Op", Do: func(ctx context.Context, inv *Invocation) error {
		tried = true
		return nil
	}}
	if err := Chain(Terminal, WithFailover(fo, opts)).RoundTrip(context.Background(), inv); err != nil {
		t.Fatal(err)
	}
	if !tried {
		t.Fatal("all-demoted pass must try demoted replicas anyway")
	}
}

func TestWithFailoverDefaultSkipErr(t *testing.T) {
	fo, err := reliability.NewFailover("http://a")
	if err != nil {
		t.Fatal(err)
	}
	opts := FailoverOptions{
		Healthy:    func(string) bool { return false },
		AnyHealthy: func() bool { return true },
	}
	inv := &Invocation{Operation: "Op", Do: func(ctx context.Context, inv *Invocation) error { return nil }}
	err = Chain(Terminal, WithFailover(fo, opts)).RoundTrip(context.Background(), inv)
	if !errors.Is(err, reliability.ErrAllReplicasFailed) {
		t.Fatalf("err = %v, want all-replicas-failed wrapping the skip", err)
	}
	if !strings.Contains(err.Error(), ErrReplicaSkipped.Error()+": http://a") {
		t.Fatalf("err = %v, want the skip error recorded with its target", err)
	}
}

// The full resilient shape: a trace tree with one root, per-attempt child
// spans, and the server-side exchange visible through the payload func.
func TestResilientChainTraceShape(t *testing.T) {
	tr := telemetry.NewSamplingTracer(32, 1)
	fo, err := reliability.NewFailover("http://a", "http://b")
	if err != nil {
		t.Fatal(err)
	}
	breakers := map[string]*reliability.Breaker{}
	for _, u := range []string{"http://a", "http://b"} {
		br, err := reliability.NewBreaker(5, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		breakers[u] = br
	}
	inv := &Invocation{Service: "Calc", Operation: "Add", Binding: "rest",
		Do: func(ctx context.Context, inv *Invocation) error {
			if inv.Target == "http://a" {
				return errors.New("a down")
			}
			return nil
		}}
	chain := Chain(Terminal,
		WithSpan(tr, telemetry.KindClient),
		WithRetry(reliability.RetryPolicy{MaxAttempts: 2}),
		WithFailover(fo, FailoverOptions{}),
		WithAttemptSpan(tr),
		WithBreakers(func(u string) *reliability.Breaker { return breakers[u] }),
		WithTimeout(time.Second),
	)
	if err := chain.RoundTrip(context.Background(), inv); err != nil {
		t.Fatal(err)
	}
	trees := telemetry.BuildTraces(tr.Snapshot())
	if len(trees) != 1 {
		t.Fatalf("trees = %d, want one trace", len(trees))
	}
	if len(trees[0].Roots) != 1 {
		t.Fatalf("roots = %d, want 1:\n%s", len(trees[0].Roots), trees[0].Format())
	}
	root := trees[0].Roots[0]
	if root.Span.Name != "Calc.Add" {
		t.Fatalf("root = %+v", root.Span)
	}
	if len(root.Children) != 2 {
		t.Fatalf("attempts = %d, want 2 (a failed, b succeeded):\n%s", len(root.Children), trees[0].Format())
	}
	if root.Children[0].Span.Target != "http://a" || root.Children[0].Span.Err == "" {
		t.Fatalf("attempt 1 = %+v", root.Children[0].Span)
	}
	if root.Children[1].Span.Target != "http://b" || root.Children[1].Span.Err != "" {
		t.Fatalf("attempt 2 = %+v", root.Children[1].Span)
	}
}
