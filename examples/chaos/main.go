// Command chaos demonstrates the dependability stack end to end over
// real HTTP: it serves three replicas of a service — two reached through
// a seeded fault injector on the clients' link (30% errors, latency
// spikes, a little payload corruption), one fully down — then compares
// a naive host.Client hammering a single faulty replica against a
// host.ResilientClient with retries, per-replica breakers, a bulkhead,
// and health-aware failover across all three.
//
//	go run ./examples/chaos [-calls 200] [-seed 445]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"soc/internal/core"
	"soc/internal/faultinject"
	"soc/internal/host"
	"soc/internal/reliability"
)

func newTargetHost(seed int64) (*host.Host, *faultinject.Injector, error) {
	svc, err := core.NewService("Target", "http://soc.example/target", "chaos demo target")
	if err != nil {
		return nil, nil, err
	}
	svc.MustAddOperation(core.Operation{
		Name:   "Work",
		Input:  []core.Param{{Name: "x", Type: core.Int}},
		Output: []core.Param{{Name: "y", Type: core.Int}},
		Handler: func(_ context.Context, in core.Values) (core.Values, error) {
			return core.Values{"y": in.Int("x") * 2}, nil
		},
	})
	inj, err := faultinject.New(faultinject.Plan{
		Seed: seed,
		Rules: map[string]faultinject.Rule{
			"Target.Work": {
				ErrorRate:     0.30,
				LatencyRate:   0.20,
				Latency:       5 * time.Millisecond,
				LatencyJitter: 5 * time.Millisecond,
				CorruptRate:   0.05,
			},
		},
	})
	if err != nil {
		return nil, nil, err
	}
	h := host.New()
	h.MustMount(svc)
	return h, inj, nil
}

// faultNet is the clients' network: it routes each request by URL host
// to the fault transport of the replica it addresses. A host with none —
// the down replica — gets the default transport, so it still refuses.
type faultNet map[string]http.RoundTripper

func (n faultNet) RoundTrip(req *http.Request) (*http.Response, error) {
	if rt, ok := n[req.URL.Host]; ok {
		return rt.RoundTrip(req)
	}
	return http.DefaultTransport.RoundTrip(req)
}

// serve binds a handler to an ephemeral localhost port and returns its
// base URL plus a stopper.
func serve(h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	go func() { _ = srv.Serve(ln) }()
	return "http://" + ln.Addr().String(), func() { _ = srv.Close() }, nil
}

// deadURL reserves a port, closes it, and returns the now-refusing URL.
func deadURL() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	url := "http://" + ln.Addr().String()
	_ = ln.Close()
	return url, nil
}

func run() error {
	calls := flag.Int("calls", 200, "calls per client")
	seed := flag.Int64("seed", 445, "fault-injection seed (same seed, same faults)")
	flag.Parse()
	ctx := context.Background()

	hostA, injA, err := newTargetHost(*seed)
	if err != nil {
		return err
	}
	urlA, stopA, err := serve(hostA)
	if err != nil {
		return err
	}
	defer stopA()
	hostC, injC, err := newTargetHost(*seed + 1)
	if err != nil {
		return err
	}
	urlC, stopC, err := serve(hostC)
	if err != nil {
		return err
	}
	defer stopC()
	urlB, err := deadURL()
	if err != nil {
		return err
	}
	fmt.Printf("replicas: A=%s (faulty)  B=%s (down)  C=%s (faulty)\n\n", urlA, urlB, urlC)
	httpClient := &http.Client{Timeout: 30 * time.Second, Transport: faultNet{
		strings.TrimPrefix(urlA, "http://"): injA.Transport(nil),
		strings.TrimPrefix(urlC, "http://"): injC.Transport(nil),
	}}

	// --- Naive baseline: bare client, single faulty replica. ---
	naive := host.NewClient(urlA)
	naive.HTTPClient = httpClient
	naiveFail := 0
	for i := 0; i < *calls; i++ {
		if _, err := naive.Call(ctx, "Target", "Work", core.Values{"x": i}); err != nil {
			naiveFail++
		}
	}
	fmt.Printf("naive client     : %3d/%d calls failed (%.0f%%)  [injected on A: %s]\n",
		naiveFail, *calls, 100*float64(naiveFail)/float64(*calls), injA)
	// What the reliability block diagrams of the dependability chapter
	// predict from that measured availability: two such services composed
	// in series, and the three replicas (B down) side by side.
	a := 1 - float64(naiveFail)/float64(*calls)
	series, err := reliability.SeriesAvailability(a, a)
	if err != nil {
		return err
	}
	redundant, err := reliability.ParallelAvailability(a, 0, a)
	if err != nil {
		return err
	}
	fmt.Printf("block diagrams   : one replica %.2f, two in series %.2f, A|B|C in parallel %.2f\n", a, series, redundant)

	// --- Resilient client across all three replicas. ---
	urls := []string{urlA, urlB, urlC}
	hc, err := reliability.NewHealthChecker(reliability.HealthCheckerConfig{Interval: 50 * time.Millisecond}, urls...)
	if err != nil {
		return err
	}
	rc, err := host.NewResilientClient(host.Policy{
		Timeout: 2 * time.Second,
		Retry: reliability.RetryPolicy{
			MaxAttempts: 4,
			BaseDelay:   time.Millisecond,
			MaxDelay:    10 * time.Millisecond,
		},
		BreakerThreshold: 8,
		BreakerCooldown:  50 * time.Millisecond,
		MaxConcurrent:    32,
		Health:           hc,
		HTTPClient:       httpClient,
	}, urls...)
	if err != nil {
		return err
	}
	hctx, hcancel := context.WithCancel(ctx)
	defer hcancel()
	hc.Start(hctx)
	defer hc.Stop()
	hc.CheckNow(ctx) // classify the dead replica before traffic

	okCount, wrong := 0, 0
	for i := 0; i < *calls; i++ {
		out, err := rc.Call(ctx, "Target", "Work", core.Values{"x": i})
		if err != nil {
			continue
		}
		if out["y"] != float64(2*i) {
			wrong++
			continue
		}
		okCount++
	}
	attempts, failovers, skipped := rc.Counters()
	probes, demotions, promotions := hc.Counters()
	fmt.Printf("resilient client : %3d/%d calls succeeded (%.0f%%), %d wrong answers  [injected on C: %s]\n",
		okCount, *calls, 100*float64(okCount)/float64(*calls), wrong, injC)
	fmt.Printf("  reliability    : attempts=%d failovers=%d unhealthy-skips=%d\n", attempts, failovers, skipped)
	fmt.Printf("  health         : probes=%d demotions=%d promotions=%d healthy=%v\n",
		probes, demotions, promotions, hc.Healthy())

	// The health view the checker sees: every host.Host serves /healthz.
	resp, err := http.Get(urlA + "/healthz")
	if err != nil {
		return err
	}
	body, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	fmt.Printf("\nGET %s/healthz -> %d\n%s\n", urlA, resp.StatusCode, body)
	// The chaos suite's floor: the resilient client keeps at least 99 %
	// of its calls, and no corrupted answer reaches it.
	if wrong > 0 || 100*okCount < 99*(*calls) {
		return fmt.Errorf("resilient client: %d/%d calls succeeded, %d wrong answers; want at least 99%% and none wrong", okCount, *calls, wrong)
	}
	return nil
}

func main() {
	log.SetFlags(0)
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "chaos:", err)
		os.Exit(1)
	}
}
