package soc

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"soc/internal/cloud"
	"soc/internal/core"
	"soc/internal/faultinject"
	"soc/internal/host"
	"soc/internal/registry"
	"soc/internal/reliability"
	"soc/internal/vtime"
)

// chaosSeed fixes the fault sequence; changing it changes which calls
// fail, never whether the suite passes (the margins are wide).
const chaosSeed = 445

// chaosPlan is the acceptance scenario: 30% transient errors, latency
// spikes on a fifth of calls, and a sprinkle of payload corruption on
// the Target.Work operation.
func chaosPlan(seed int64) faultinject.Plan {
	return faultinject.Plan{
		Seed: seed,
		Rules: map[string]faultinject.Rule{
			"Target.Work": {
				ErrorRate:     0.30,
				LatencyRate:   0.20,
				Latency:       10 * time.Millisecond,
				LatencyJitter: 10 * time.Millisecond,
				CorruptRate:   0.05,
			},
		},
	}
}

// newTargetHost builds a host serving Target.Work wrapped in a fault
// injector, and returns both.
func newTargetHost(t *testing.T, seed int64) (*host.Host, *faultinject.Injector) {
	t.Helper()
	svc, err := core.NewService("Target", "http://soc.example/target", "")
	if err != nil {
		t.Fatal(err)
	}
	svc.MustAddOperation(core.Operation{
		Name:   "Work",
		Input:  []core.Param{{Name: "x", Type: core.Int}},
		Output: []core.Param{{Name: "y", Type: core.Int}},
		Handler: func(_ context.Context, in core.Values) (core.Values, error) {
			return core.Values{"y": in.Int("x") * 2}, nil
		},
	})
	inj, err := faultinject.New(chaosPlan(seed))
	if err != nil {
		t.Fatal(err)
	}
	h := host.New()
	h.Use(inj.Middleware())
	// The idempotent-response cache rides inside the injector on every
	// chaos host. Work is not declared idempotent, so requests bypass it —
	// the suite proves the cache's presence never disturbs fault handling.
	h.UseResponseCache(64, time.Minute)
	h.MustMount(svc)
	return h, inj
}

// TestIntegrationChaosCachedIdempotent puts the response cache under
// fault injection with an operation that IS declared idempotent. The
// cache sits inside the injector, so injected errors short-circuit
// before it and corruption happens after it: only clean handler output
// is ever stored. The resilient client's retries then land on cache
// hits — the backend does each distinct computation exactly once no
// matter how many injected faults force replays.
func TestIntegrationChaosCachedIdempotent(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite is tier-2; skipped with -short")
	}
	const (
		calls    = 200
		distinct = 10
	)
	var handlerCalls atomic.Int64
	svc, err := core.NewService("Target", "http://soc.example/target", "")
	if err != nil {
		t.Fatal(err)
	}
	svc.MustAddOperation(core.Operation{
		Name:       "Work",
		Idempotent: true,
		Input:      []core.Param{{Name: "x", Type: core.Int}},
		Output:     []core.Param{{Name: "y", Type: core.Int}},
		Handler: func(_ context.Context, in core.Values) (core.Values, error) {
			handlerCalls.Add(1)
			return core.Values{"y": in.Int("x") * 2}, nil
		},
	})
	inj, err := faultinject.New(chaosPlan(chaosSeed + 3))
	if err != nil {
		t.Fatal(err)
	}
	h := host.New()
	h.Use(inj.Middleware())
	cache := h.UseResponseCache(64, time.Minute)
	h.MustMount(svc)
	srv := httptest.NewServer(h)
	defer srv.Close()

	rc, err := host.NewResilientClient(host.Policy{
		Timeout: 2 * time.Second,
		Retry: reliability.RetryPolicy{
			MaxAttempts: 6,
			BaseDelay:   time.Millisecond,
			MaxDelay:    5 * time.Millisecond,
		},
	}, srv.URL)
	if err != nil {
		t.Fatal(err)
	}

	successes := 0
	for i := 0; i < calls; i++ {
		x := i % distinct
		out, err := rc.Call(context.Background(), "Target", "Work", core.Values{"x": x})
		if err != nil {
			continue
		}
		if out["y"] != float64(2*x) {
			t.Fatalf("call %d: wrong answer %v (corruption reached the cache)", i, out["y"])
		}
		successes++
	}
	if min := calls * 99 / 100; successes < min {
		t.Errorf("%d/%d successes under faults, want >= %d", successes, calls, min)
	}
	// Every injected-fault replay beyond the first clean pass per
	// distinct x must be a cache hit, not a recomputation.
	if got := handlerCalls.Load(); got != distinct {
		t.Errorf("handler ran %d times for %d distinct inputs, want exactly %d (cache absorbed replays)",
			got, distinct, distinct)
	}
	if hits, _ := cache.Stats(); hits == 0 {
		t.Error("cache never served a hit under chaos")
	}
}

// TestIntegrationChaosResilientVsNaive is the chaos acceptance suite:
// three replicas of a real service — two injected with 30% transient
// errors plus latency spikes, one fully down — behind a ResilientClient
// with health-aware failover, versus a bare host.Client against a single
// faulty replica. The resilient stack must sustain >= 99% success while
// the naive client fails >= 20% of its calls, deterministically per seed.
func TestIntegrationChaosResilientVsNaive(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite is tier-2; skipped with -short")
	}
	const calls = 300
	ctx := context.Background()

	// --- Naive baseline: one faulty replica, no resilience. ---
	naiveHost, _ := newTargetHost(t, chaosSeed)
	naiveSrv := httptest.NewServer(naiveHost)
	defer naiveSrv.Close()
	naive := host.NewClient(naiveSrv.URL)
	naiveFailures := 0
	for i := 0; i < calls; i++ {
		if _, err := naive.Call(ctx, "Target", "Work", core.Values{"x": i}); err != nil {
			naiveFailures++
		}
	}
	if min := calls * 20 / 100; naiveFailures < min {
		t.Errorf("naive client failed %d/%d calls, want >= %d under 30%% fault rate",
			naiveFailures, calls, min)
	}

	// --- Resilient stack: 2 faulty live replicas + 1 fully down. ---
	hostA, injA := newTargetHost(t, chaosSeed+1)
	srvA := httptest.NewServer(hostA)
	defer srvA.Close()
	hostC, injC := newTargetHost(t, chaosSeed+2)
	srvC := httptest.NewServer(hostC)
	defer srvC.Close()
	down := httptest.NewServer(http.NotFoundHandler())
	down.Close() // connection refused from the first byte

	// Discovery side: each replica is a registry entry; health probes
	// feed observed QoS so search prefers live endpoints.
	qr := registry.NewQoS(registry.New())
	replicaEntry := map[string]string{
		srvA.URL: "TargetA",
		down.URL: "TargetB",
		srvC.URL: "TargetC",
	}
	for url, name := range replicaEntry {
		if err := qr.Publish(registry.Entry{Name: name, Doc: "chaos target replica", Endpoint: url}); err != nil {
			t.Fatal(err)
		}
	}

	policy := host.Policy{
		Timeout: 2 * time.Second,
		Retry: reliability.RetryPolicy{
			MaxAttempts: 4,
			BaseDelay:   time.Millisecond,
			MaxDelay:    10 * time.Millisecond,
		},
		BreakerThreshold: 8,
		BreakerCooldown:  50 * time.Millisecond,
		MaxConcurrent:    32,
	}
	// Down replica in the middle so failover hops across it and the
	// demotion skip is observable.
	urls := []string{srvA.URL, down.URL, srvC.URL}
	hc, err := reliability.NewHealthChecker(reliability.HealthCheckerConfig{
		Interval: 25 * time.Millisecond,
		OnProbe: func(replica string, up bool, rtt time.Duration) {
			_ = qr.ObserveProbe(replicaEntry[replica], up, rtt)
		},
	}, urls...)
	if err != nil {
		t.Fatal(err)
	}
	policy.Health = hc
	rc, err := host.NewResilientClient(policy, urls...)
	if err != nil {
		t.Fatal(err)
	}
	hctx, hcancel := context.WithCancel(ctx)
	defer hcancel()
	hc.Start(hctx)
	defer hc.Stop()
	hc.CheckNow(ctx) // deterministic: demote the dead replica up front

	successes := 0
	for i := 0; i < calls; i++ {
		out, err := rc.Call(ctx, "Target", "Work", core.Values{"x": i})
		if err != nil {
			continue
		}
		if out["y"] != float64(2*i) {
			t.Fatalf("call %d: wrong answer %v (corruption leaked through)", i, out["y"])
		}
		successes++
	}
	if min := calls * 99 / 100; successes < min {
		t.Errorf("resilient client: %d/%d successes, want >= %d (injected: A=%s C=%s)",
			successes, calls, min, injA, injC)
	}

	// The reliability stack must actually have been exercised.
	attempts, failovers, skipped, _ := rc.Counters()
	if attempts <= calls {
		t.Errorf("attempts = %d over %d calls: faults were never retried", attempts, calls)
	}
	if failovers == 0 {
		t.Error("failover never hopped replicas under 30% faults")
	}
	if skipped == 0 {
		t.Error("demoted dead replica was never skipped")
	}
	probes, demotions, _ := hc.Counters()
	if probes == 0 || demotions == 0 {
		t.Errorf("health counters: probes=%d demotions=%d, want both > 0", probes, demotions)
	}
	if hc.IsHealthy(down.URL) {
		t.Error("dead replica still classified healthy")
	}

	// Discovery prefers live endpoints after the QoS feed.
	dependable := qr.Dependable(0.9)
	names := map[string]bool{}
	for _, m := range dependable {
		names[m.Entry.Name] = true
	}
	if !names["TargetA"] || !names["TargetC"] || names["TargetB"] {
		t.Errorf("Dependable(0.9) = %v, want live replicas only", names)
	}

	// And the healthz endpoint the checker probes is real JSON with
	// per-service status.
	resp, err := http.Get(srvA.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}
	var report struct {
		Status   string                     `json:"status"`
		Services map[string]json.RawMessage `json:"services"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&report); err != nil {
		t.Fatalf("healthz not JSON: %v", err)
	}
	if report.Status != "ok" || report.Services["Target"] == nil {
		t.Errorf("healthz report = %+v", report)
	}
}

// TestIntegrationChaosGracefulDegradation drives every replica into the
// ground and checks the fallback keeps answering with a degraded result.
func TestIntegrationChaosGracefulDegradation(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite is tier-2; skipped with -short")
	}
	down1 := httptest.NewServer(http.NotFoundHandler())
	down1.Close()
	down2 := httptest.NewServer(http.NotFoundHandler())
	down2.Close()

	cache := core.Values{"y": float64(-1), "cached": true}
	policy := host.Policy{
		Timeout: time.Second,
		Retry:   reliability.RetryPolicy{MaxAttempts: 2},
		Fallback: func(context.Context, string, string, core.Values) (core.Values, error) {
			return cache, nil
		},
	}
	rc, err := host.NewResilientClient(policy, down1.URL, down2.URL)
	if err != nil {
		t.Fatal(err)
	}
	out, err := rc.Call(context.Background(), "Target", "Work", core.Values{"x": 1})
	if err != nil {
		t.Fatalf("fallback did not mask total outage: %v", err)
	}
	if out["cached"] != true {
		t.Errorf("out = %v, want the cached degraded answer", out)
	}
	_, _, _, fallbacks := rc.Counters()
	if fallbacks != 1 {
		t.Errorf("fallbacks = %d, want 1", fallbacks)
	}
}

// aliveTransport models a replica process that can be killed mid-run:
// alive it serves through the wrapped transport, dead it refuses
// connections like a closed listener.
type aliveTransport struct {
	alive *atomic.Bool
	rt    http.RoundTripper
}

func (a aliveTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !a.alive.Load() {
		return nil, context.DeadlineExceeded // connection refused stand-in
	}
	return a.rt.RoundTrip(req)
}

// TestIntegrationChaosFrontDoorReplicaKill runs three replicas behind
// the cluster front door with lease-driven membership, then kills one
// cold mid-run (it refuses connections and stops heartbeating). The
// door's failover retry must keep client success at 99% or better, and
// once the dead replica's lease expires it must leave the rotation and
// never be picked again.
func TestIntegrationChaosFrontDoorReplicaKill(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite is tier-2; skipped with -short")
	}
	clock := vtime.NewVirtual(time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC))
	const lease = 5 * time.Second
	reg := registry.New(registry.WithLease(lease), registry.WithClock(clock.Now))
	fd := cloud.NewFrontDoor(cloud.FrontDoorConfig{Seed: chaosSeed})

	type liveReplica struct {
		name  string
		alive *atomic.Bool
		rep   *cloud.Replica
	}
	newCalcHost := func() *host.Host {
		svc, err := core.NewService("Calc", "http://soc.example/calc", "")
		if err != nil {
			t.Fatal(err)
		}
		svc.MustAddOperation(core.Operation{
			Name:   "Add",
			Input:  []core.Param{{Name: "a", Type: core.Int}, {Name: "b", Type: core.Int}},
			Output: []core.Param{{Name: "sum", Type: core.Int}},
			Handler: func(_ context.Context, in core.Values) (core.Values, error) {
				return core.Values{"sum": in.Int("a") + in.Int("b")}, nil
			},
		})
		h := host.New()
		h.MustMount(svc)
		return h
	}
	var replicas []*liveReplica
	for i := 1; i <= 3; i++ {
		name := fmt.Sprintf("replica-%d", i)
		h := newCalcHost()
		lr := &liveReplica{name: name, alive: &atomic.Bool{}}
		lr.alive.Store(true)
		lr.rep = cloud.NewReplica(name, aliveTransport{alive: lr.alive, rt: cloud.HandlerTransport(h)}, 0)
		if err := reg.Publish(registry.Entry{Name: name, Category: cloud.ReplicaCategory, Endpoint: "local://" + name}); err != nil {
			t.Fatal(err)
		}
		fd.Add(lr.rep)
		replicas = append(replicas, lr)
	}
	victim := replicas[2]

	ctx := vtime.WithClock(context.Background(), clock)
	call := func() int {
		req := httptest.NewRequest(http.MethodGet,
			"http://cluster/services/Calc/invoke/Add?a=19&b=23", nil).WithContext(ctx)
		rec := httptest.NewRecorder()
		fd.ServeHTTP(rec, req)
		return rec.Code
	}
	sync := func() {
		// Heartbeat the living, then reconcile the rotation against the
		// live lease view — what soccluster's heartbeat goroutines and
		// autoscaler Tick do each second.
		for _, lr := range replicas {
			if lr.alive.Load() {
				if err := reg.Heartbeat(lr.name); err != nil {
					t.Fatalf("heartbeat %s: %v", lr.name, err)
				}
			}
		}
		fd.SyncMembership(reg.ByCategory(cloud.ReplicaCategory))
	}

	// 40 virtual seconds at 50 req/s; the kill lands at t=15s, the lease
	// runs out by t≈20s.
	const total, perSecond = 2000, 50
	ok := 0
	var picksAtExpiry uint64
	expired := false
	for i := 0; i < total; i++ {
		tVirtual := time.Duration(i) * (time.Second / perSecond)
		if i == total*15/40 {
			victim.alive.Store(false) // the process dies cold
		}
		if code := call(); code == http.StatusOK {
			ok++
		}
		clock.Advance(time.Second / perSecond)
		if (i+1)%perSecond == 0 {
			sync()
		}
		if !expired && tVirtual > 15*time.Second+lease+2*time.Second {
			if fd.Replica(victim.name) != nil {
				t.Fatalf("dead replica still in rotation %v after its last heartbeat", lease)
			}
			picksAtExpiry = victim.rep.Picks()
			expired = true
		}
	}
	if !expired {
		t.Fatal("run never reached the lease-expiry checkpoint")
	}
	if got := victim.rep.Picks(); got != picksAtExpiry {
		t.Errorf("dead replica picked after lease expiry: picks %d -> %d", picksAtExpiry, got)
	}
	if fd.Replica(victim.name) != nil {
		t.Error("dead replica re-entered the rotation")
	}
	if len(fd.Replicas()) != 2 {
		t.Errorf("rotation has %d replicas at end, want 2", len(fd.Replicas()))
	}
	if rate := float64(ok) / float64(total); rate < 0.99 {
		t.Errorf("success rate %.4f < 0.99 (ok=%d of %d): failover did not cover the kill", rate, ok, total)
	}
	st := fd.Stats()
	if st.Admitted != st.Completed+st.Errored+st.ShedBusy {
		t.Errorf("ledger does not close: %+v", st)
	}
}
