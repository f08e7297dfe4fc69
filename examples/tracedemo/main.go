// Command tracedemo walks the unified call plane end to end: it serves
// three replicas of a Quote service — the client's links to two forced
// to fail, to one failing only its first call — drives a single
// resilient call through retry and failover, repeats an idempotent call
// so the response cache answers it, then merges the client's and every
// host's span rings and prints the reassembled trace trees. The output is the same rendering GET
// /tracez?format=tree serves on a live host.
//
//	go run ./examples/tracedemo
package main

import (
	"context"
	"fmt"
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
	"soc/internal/telemetry"
)

func newQuoteHost() (*host.Host, error) {
	svc, err := core.NewService("Quote", "http://soc.example/quote", "trace demo target")
	if err != nil {
		return nil, err
	}
	svc.MustAddOperation(core.Operation{
		Name:       "Price",
		Idempotent: true,
		Input:      []core.Param{{Name: "units", Type: core.Int}},
		Output:     []core.Param{{Name: "total", Type: core.Int}},
		Handler: func(_ context.Context, in core.Values) (core.Values, error) {
			return core.Values{"total": in.Int("units") * 7}, nil
		},
	})
	h := host.New()
	h.MustMount(svc)
	h.UseResponseCache(64, time.Minute)
	return h, nil
}

// faultNet is the client's network: it routes each request by URL host
// to the fault transport of the replica it addresses.
type faultNet map[string]http.RoundTripper

func (n faultNet) RoundTrip(req *http.Request) (*http.Response, error) {
	if rt, ok := n[req.URL.Host]; ok {
		return rt.RoundTrip(req)
	}
	return http.DefaultTransport.RoundTrip(req)
}

func serve(h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	go func() { _ = srv.Serve(ln) }()
	return "http://" + ln.Addr().String(), func() { _ = srv.Close() }, nil
}

func run() error {
	ctx := context.Background()
	alwaysFail := faultinject.Plan{Rules: map[string]faultinject.Rule{
		"Quote.Price": {ErrorRate: 1},
	}}
	// The burst window forces the negligible base rate to certainty for
	// exactly the first call, so the demo replays the same trace each run.
	failOnce := faultinject.Plan{Rules: map[string]faultinject.Rule{
		"Quote.Price": {ErrorRate: 1e-12, Burst: faultinject.Burst{Every: 1 << 30, Length: 1}},
	}}

	// Rate 1: the demo's one call is the trace it prints. Each injected
	// fault is an event in it, under the attempt it failed.
	tracer := telemetry.NewSamplingTracer(256, 1)
	hosts := make([]*host.Host, 0, 3)
	urls := make([]string, 0, 3)
	links := faultNet{}
	for _, plan := range []faultinject.Plan{alwaysFail, alwaysFail, failOnce} {
		h, err := newQuoteHost()
		if err != nil {
			return err
		}
		u, stop, err := serve(h)
		if err != nil {
			return err
		}
		defer stop()
		inj, err := faultinject.New(plan)
		if err != nil {
			return err
		}
		inj.Tracer = tracer
		links[strings.TrimPrefix(u, "http://")] = inj.Transport(nil)
		hosts = append(hosts, h)
		urls = append(urls, u)
	}
	fmt.Printf("replicas: A=%s (always faults)  B=%s (always faults)  C=%s (faults once)\n\n", urls[0], urls[1], urls[2])

	rc, err := host.NewResilientClient(host.Policy{
		HTTPClient: &http.Client{Timeout: 30 * time.Second, Transport: links},
		Timeout:    2 * time.Second,
		Retry: reliability.RetryPolicy{
			MaxAttempts: 3,
			BaseDelay:   time.Millisecond,
		},
		Tracer: tracer,
	}, urls...)
	if err != nil {
		return err
	}

	// One call, six attempts: A err, B err, C err, retry, A err, B err, C ok.
	out, err := rc.Call(ctx, "Quote", "Price", core.Values{"units": 6})
	if err != nil {
		return fmt.Errorf("resilient call: %w", err)
	}
	fmt.Printf("resilient call survived the fault storm: total=%v\n", out["total"])

	// Repeat the now-warm idempotent call: the cache answers it, which
	// the trace shows as a zero-duration cached span.
	if _, err := rc.Call(ctx, "Quote", "Price", core.Values{"units": 6}); err != nil {
		return fmt.Errorf("cached call: %w", err)
	}
	fmt.Printf("repeat answered from the idempotent-response cache\n\n")

	spans := tracer.Snapshot()
	for _, h := range hosts {
		spans = append(spans, h.Tracer().Snapshot()...)
	}
	fmt.Println(telemetry.FormatTraces(telemetry.BuildTraces(spans)))
	return nil
}

func main() {
	log.SetFlags(0)
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tracedemo:", err)
		os.Exit(1)
	}
}
