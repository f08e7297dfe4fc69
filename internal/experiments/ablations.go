package experiments

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"soc/internal/cloud"
	"soc/internal/core"
	"soc/internal/crawler"
	"soc/internal/faultinject"
	"soc/internal/host"
	"soc/internal/perf"
	"soc/internal/registry"
	"soc/internal/reliability"
	"soc/internal/session"
	"soc/internal/simtest"
	"soc/internal/vtime"
	"soc/internal/workflow"
)

// calcService builds the shared Add service for the binding/workflow
// ablations.
func calcService() (*core.Service, error) {
	svc, err := core.NewService("Calc", "http://soc.example/calc", "arithmetic")
	if err != nil {
		return nil, err
	}
	return svc, svc.AddOperation(core.Operation{
		Name:   "Add",
		Input:  []core.Param{{Name: "a", Type: core.Int}, {Name: "b", Type: core.Int}},
		Output: []core.Param{{Name: "sum", Type: core.Int}},
		Handler: func(_ context.Context, in core.Values) (core.Values, error) {
			return core.Values{"sum": in.Int("a") + in.Int("b")}, nil
		},
	})
}

// Bindings (A2) measures SOAP vs REST invocation latency for the same
// operation on the same host.
func Bindings(calls int) (string, error) {
	if calls < 1 {
		calls = 200
	}
	svc, err := calcService()
	if err != nil {
		return "", err
	}
	h := host.New()
	if err := h.Mount(svc); err != nil {
		return "", err
	}
	server := httptest.NewServer(h)
	defer server.Close()
	client := host.NewClient(server.URL)
	ctx := context.Background()

	restStats, err := perf.Measure(calls, func() {
		out, err := client.Call(ctx, "Calc", "Add", core.Values{"a": 2, "b": 3})
		if err != nil || out.Float("sum") != 5 {
			panic(fmt.Sprintf("rest call failed: %v %v", out, err))
		}
	})
	if err != nil {
		return "", err
	}
	soapStats, err := perf.Measure(calls, func() {
		out, err := client.CallSOAP(ctx, "Calc", "Add", "http://soc.example/calc", core.Values{"a": 2, "b": 3})
		if err != nil || out["sum"] != "5" {
			panic(fmt.Sprintf("soap call failed: %v %v", out, err))
		}
	})
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("A2 — SOAP vs REST binding overhead (same operation, same host)\n\n")
	fmt.Fprintf(&b, "%-6s %12s %12s %12s\n", "bind", "median", "min", "max")
	fmt.Fprintf(&b, "%-6s %12v %12v %12v\n", "rest", restStats.Median, restStats.Min, restStats.Max)
	fmt.Fprintf(&b, "%-6s %12v %12v %12v\n", "soap", soapStats.Median, soapStats.Min, soapStats.Max)
	fmt.Fprintf(&b, "\nsoap/rest median ratio: %.2fx (XML envelope + parse cost)\n",
		float64(soapStats.Median)/float64(restStats.Median))
	return b.String(), nil
}

// WorkflowOverhead (A3) compares direct in-process invocation with
// orchestration through the workflow engine.
func WorkflowOverhead(iterations int) (string, error) {
	if iterations < 1 {
		iterations = 2000
	}
	svc, err := calcService()
	if err != nil {
		return "", err
	}
	ctx := context.Background()
	inv := workflow.InvokerFunc(func(ctx context.Context, _, op string, args map[string]any) (map[string]any, error) {
		out, err := svc.Invoke(ctx, op, core.Values(args))
		return map[string]any(out), err
	})
	wf, err := workflow.New("add3", &workflow.Sequence{Label: "seq", Steps: []workflow.Activity{
		&workflow.Invoke{Label: "a", Service: "Calc", Operation: "Add", Invoker: inv,
			Inputs: map[string]string{"a": "x", "b": "y"}, Outputs: map[string]string{"sum": "t1"}},
		&workflow.Invoke{Label: "b", Service: "Calc", Operation: "Add", Invoker: inv,
			Inputs: map[string]string{"a": "t1", "b": "y"}, Outputs: map[string]string{"sum": "t2"}},
		&workflow.Invoke{Label: "c", Service: "Calc", Operation: "Add", Invoker: inv,
			Inputs: map[string]string{"a": "t2", "b": "y"}, Outputs: map[string]string{"sum": "total"}},
	}})
	if err != nil {
		return "", err
	}
	direct, err := perf.Measure(iterations, func() {
		v := core.Values{"a": int64(1), "b": int64(2)}
		for i := 0; i < 3; i++ {
			out, err := svc.Invoke(ctx, "Add", v)
			if err != nil {
				panic(err)
			}
			v = core.Values{"a": out.Int("sum"), "b": int64(2)}
		}
	})
	if err != nil {
		return "", err
	}
	orchestrated, err := perf.Measure(iterations, func() {
		out, _, err := wf.Run(ctx, map[string]any{"x": int64(1), "y": int64(2)})
		if err != nil || out["total"] != int64(7) {
			panic(fmt.Sprintf("workflow run: %v %v", out, err))
		}
	})
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("A3 — workflow-engine orchestration overhead (3 chained Adds)\n\n")
	fmt.Fprintf(&b, "%-14s %12s %12s\n", "mode", "median", "min")
	fmt.Fprintf(&b, "%-14s %12v %12v\n", "direct", direct.Median, direct.Min)
	fmt.Fprintf(&b, "%-14s %12v %12v\n", "workflow", orchestrated.Median, orchestrated.Min)
	ratio := float64(orchestrated.Median) / float64(direct.Median)
	fmt.Fprintf(&b, "\norchestration/direct median ratio: %.1fx\n", ratio)
	return b.String(), nil
}

// StateManagement (A4) sweeps cache sizes against a Zipf-ish access
// pattern and reports hit ratios.
func StateManagement(requests int) (string, error) {
	if requests < 1 {
		requests = 20000
	}
	rng := rand.New(rand.NewSource(7))
	zipf := rand.NewZipf(rng, 1.2, 1, 4095)
	keys := make([]string, requests)
	for i := range keys {
		keys[i] = fmt.Sprintf("page-%d", zipf.Uint64())
	}
	var b strings.Builder
	b.WriteString("A4 — session/cache state management hit-ratio sweep (Zipf workload)\n\n")
	fmt.Fprintf(&b, "%10s %10s\n", "capacity", "hit ratio")
	// A clock that never moves: the sweep measures capacity, not TTL.
	ctx := vtime.WithClock(context.Background(), vtime.NewVirtual(time.Unix(0, 0)))
	for _, capacity := range []int{16, 64, 256, 1024} {
		c, err := session.NewCache(capacity)
		if err != nil {
			return "", err
		}
		for _, k := range keys {
			if _, ok := c.Get(ctx, k); !ok {
				c.Put(ctx, k, "rendered")
			}
		}
		fmt.Fprintf(&b, "%10d %9.1f%%\n", capacity, c.HitRatio()*100)
	}
	b.WriteString("\nlarger caches asymptote toward the workload's skew ceiling\n")
	return b.String(), nil
}

// A5's elastic arm: a load burst (requests per one-second window) under
// a one-window cooldown, and no replica kills.
var (
	a5Policy = cloud.Policy{MinReplicas: 1, MaxReplicas: 16, ReplicaCapacity: 10, TargetUtilization: 0.75}
	a5Demand = []int{10, 10, 20, 60, 120, 120, 80, 30, 10, 10, 10, 10}
)

// a5Run serves a5Demand through a simulated world's front door, with the
// autoscaler held to [min, max] replicas, on fault-free links and disks.
func a5Run(min, max int) (*simtest.RunRecord, error) {
	policy := a5Policy
	policy.MinReplicas, policy.MaxReplicas = min, max
	cfg := simtest.Config{Door: policy, Cooldown: time.Second, Faults: &faultinject.Rule{}, DiskFaults: &faultinject.DiskRule{}}
	return simtest.Run(cfg, simtest.ClusterSchedule(1, a5Demand))
}

// CloudScale (A5) runs the elasticity study: one bursty demand series
// served by the real cloud.Autoscaler + FrontDoor on the virtual clock
// (a simtest world with a door), against static pools sized for the
// average and for the peak — the same run with MinReplicas ==
// MaxReplicas. Capacity is accounted per window from the pool the
// autoscaler had standing as the window began: served = min(demand,
// running × ReplicaCapacity), and a draining replica takes no new
// requests but is billed until it stops. Any simulation invariant
// violation fails the experiment.
func CloudScale() (string, error) {
	var table, totals strings.Builder
	table.WriteString("A5 — cloud autoscaler elasticity under a load burst\n\n")
	fmt.Fprintf(&table, "%6s %7s %7s %8s %9s %9s %6s\n",
		"window", "demand", "served", "dropped", "replicas", "draining", "util")
	for _, arm := range []struct {
		name     string
		min, max int
	}{{"elastic", a5Policy.MinReplicas, a5Policy.MaxReplicas}, {"static n=2", 2, 2}, {"static n=12", 12, 12}} {
		rec, err := a5Run(arm.min, arm.max)
		if err != nil {
			return "", err
		}
		if len(rec.Violations) > 0 {
			return "", fmt.Errorf("experiments: %s: simulation invariant violated: %s", arm.name, rec.Violations[0])
		}
		var total, served, cost int
		for w, demand := range a5Demand {
			pool := rec.Pool[w]
			capacity := pool.Running * a5Policy.ReplicaCapacity
			got := min(demand, capacity)
			total += demand
			served += got
			cost += pool.Running + pool.Draining
			if arm.min < arm.max { // only the elastic pool moves; tabulate it
				fmt.Fprintf(&table, "%6d %7d %7d %8d %9d %9d %5.0f%%\n", w, demand, got, demand-got,
					pool.Running, pool.Draining, 100*float64(got)/float64(capacity))
			}
		}
		fmt.Fprintf(&totals, "%-11s: served %d/%d (dropped %d), %d replica-windows\n",
			arm.name, served, total, total-served, cost)
	}
	return table.String() + "\n" + totals.String(), nil
}

// Dependability (A6) injects faults into a replicated service and shows
// retry + circuit breaker + failover masking them.
func Dependability() (string, error) {
	// Replica 1 fails hard after 3 calls; replica 2 stays healthy.
	var calls1 int64
	replica1 := func(context.Context) error {
		if atomic.AddInt64(&calls1, 1) > 3 {
			return errors.New("replica1 crashed")
		}
		return nil
	}
	replica2 := func(context.Context) error { return nil }

	// The breakers' cooldowns run on a virtual clock nothing advances:
	// once open, replica1's circuit stays open for the whole run.
	ctx := vtime.WithClock(context.Background(), vtime.NewVirtual(time.Unix(0, 0)))
	// Threshold 1: the first failure opens the circuit, so the sticky
	// failover immediately prefers the healthy replica afterwards.
	b1, err := reliability.NewBreaker(1, time.Minute)
	if err != nil {
		return "", err
	}
	b2, err := reliability.NewBreaker(1, time.Minute)
	if err != nil {
		return "", err
	}
	type guarded struct {
		name    string
		breaker *reliability.Breaker
		call    func(context.Context) error
	}
	group, err := reliability.NewFailover(
		guarded{"replica1", b1, replica1},
		guarded{"replica2", b2, replica2},
	)
	if err != nil {
		return "", err
	}
	succeeded, failed := 0, 0
	for i := 0; i < 40; i++ {
		err := group.Do(ctx, func(ctx context.Context, g guarded) error {
			return g.breaker.Do(ctx, g.call)
		})
		if err != nil {
			failed++
		} else {
			succeeded++
		}
	}
	s1, f1, r1 := b1.Counters()
	s2, f2, r2 := b2.Counters()
	var b strings.Builder
	b.WriteString("A6 — dependability: fault injection with breaker + failover\n\n")
	fmt.Fprintf(&b, "client calls: %d succeeded, %d failed\n", succeeded, failed)
	fmt.Fprintf(&b, "replica1 breaker: %d ok, %d failed, %d rejected (state %s)\n", s1, f1, r1, b1.State(ctx))
	fmt.Fprintf(&b, "replica2 breaker: %d ok, %d failed, %d rejected (state %s)\n", s2, f2, r2, b2.State(ctx))
	if failed != 0 {
		return b.String(), fmt.Errorf("experiments: failover failed to mask all faults")
	}
	if b1.State(ctx) == reliability.Closed {
		return b.String(), fmt.Errorf("experiments: replica1 breaker never opened")
	}
	return b.String(), nil
}

// Crawl (A1) builds a small in-process service directory with one flaky
// endpoint, crawls it, feeds the registry, and monitors availability.
func Crawl(ctx context.Context) (string, error) {
	svc, err := calcService()
	if err != nil {
		return "", err
	}
	h := host.New()
	if err := h.Mount(svc); err != nil {
		return "", err
	}
	var flakyDown atomic.Bool
	mux := http.NewServeMux()
	var server *httptest.Server
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `<a href="%s/services/Calc">calc</a> <a href="/flaky">flaky</a>`, server.URL)
	})
	mux.HandleFunc("/flaky", func(w http.ResponseWriter, r *http.Request) {
		if flakyDown.Load() {
			http.Error(w, "down for maintenance", http.StatusInternalServerError)
			return
		}
		fmt.Fprint(w, "ok")
	})
	mux.Handle("/services/", h)
	server = httptest.NewServer(mux)
	defer server.Close()

	found, err := crawler.Crawl(ctx, []string{server.URL + "/"}, crawler.Config{SameHostOnly: true})
	if err != nil {
		return "", err
	}
	reg := registry.NewQoS(registry.New(registry.WithLease(time.Minute)))
	n, err := crawler.Feed(reg.Registry, "crawler", found)
	if err != nil {
		return "", err
	}
	// A page is not a crawled service: the flaky endpoint is published by hand.
	if err := reg.Publish(registry.Entry{Name: "flaky", Endpoint: server.URL + "/flaky"}); err != nil {
		return "", err
	}
	names := map[string]string{}
	for _, e := range reg.List(true) {
		names[e.Endpoint] = e.Name
	}
	urls := slices.Sorted(maps.Keys(names))
	hc, err := reliability.NewHealthChecker(reliability.HealthCheckerConfig{
		Interval: 10 * time.Second, // never started: CheckNow drives the rounds; also the probe timeout
		Probe:    reliability.HTTPProbe(nil, ""),
		OnProbe: func(u string, up bool, rtt time.Duration) {
			// Every probed URL is a published entry; a refused outcome would
			// show as a row with fewer than 6 checks, which the verdict rejects.
			_ = reg.ObserveProbe(names[u], up, rtt)
		},
	}, urls...)
	if err != nil {
		return "", err
	}
	for round := 0; round < 6; round++ {
		flakyDown.Store(round%2 == 1)
		hc.CheckNow(ctx)
	}
	var b strings.Builder
	b.WriteString("A1 — service crawler + availability monitor (flaky free services)\n\n")
	fmt.Fprintf(&b, "crawl discovered %d services; %d published to the registry\n\n", len(found), n)
	fmt.Fprintf(&b, "%-40s %7s %8s %10s\n", "endpoint", "checks", "uptime", "mean RTT")
	for _, u := range urls {
		q, _ := reg.QoSOf(names[u])
		fmt.Fprintf(&b, "%-40s %7d %7.0f%% %10v\n",
			shorten(u), q.Samples, q.Uptime*100, q.MeanRTT.Round(time.Microsecond))
		if q.Samples != 6 {
			return b.String(), fmt.Errorf("experiments: %s has %d checks, want 6", u, q.Samples)
		}
	}
	flagged := len(urls) - len(reg.Dependable(0.9))
	fmt.Fprintf(&b, "\nflagged unreliable (<90%% uptime): %d endpoint(s)\n", flagged)
	if flagged != 1 {
		return b.String(), fmt.Errorf("experiments: expected exactly the flaky endpoint flagged, got %d", flagged)
	}
	return b.String(), nil
}

func shorten(u string) string {
	if i := strings.Index(u, "/"); i > 0 && len(u) > 40 {
		return "..." + u[len(u)-37:]
	}
	return u
}
