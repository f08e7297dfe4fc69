// Command svccrawl runs the service crawler against seed directory pages,
// prints discovered services, optionally publishes them into a remote
// registry, and optionally monitors endpoint availability.
//
//	svccrawl -seeds http://host/dir.html
//	svccrawl -seeds http://host/dir.html -registry http://host:8080
//	svccrawl -monitor http://host/services/Calc,http://other/svc -rounds 5
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"slices"
	"strings"
	"time"

	"soc/internal/crawler"
	"soc/internal/registry"
	"soc/internal/reliability"
)

func main() {
	seeds := flag.String("seeds", "", "comma-separated seed page URLs")
	registryURL := flag.String("registry", "", "publish discoveries to this registry base URL")
	monitorURLs := flag.String("monitor", "", "comma-separated endpoints to monitor instead of crawling")
	rounds := flag.Int("rounds", 3, "monitoring rounds")
	interval := flag.Duration("interval", time.Second, "monitoring interval")
	sameHost := flag.Bool("same-host", true, "restrict crawl to the seeds' hosts")
	flag.Parse()

	ctx := context.Background()
	if *monitorURLs != "" {
		if err := monitor(ctx, os.Stdout, splitList(*monitorURLs), *rounds, *interval); err != nil {
			log.Fatalf("svccrawl: %v", err)
		}
		return
	}

	if *seeds == "" {
		log.Fatal("svccrawl: -seeds or -monitor required")
	}
	found, err := crawler.Crawl(ctx, splitList(*seeds), crawler.Config{SameHostOnly: *sameHost})
	if err != nil {
		log.Fatalf("svccrawl: %v", err)
	}
	fmt.Printf("discovered %d services:\n", len(found))
	for _, d := range found {
		fmt.Printf("  %-20s %-5s %-40s ops=%s\n", d.Name, d.Kind, d.URL, strings.Join(d.Operations, ","))
	}
	if *registryURL != "" {
		client := registry.NewClient(*registryURL)
		entries := crawler.Entries("svccrawl", found)
		published := 0
		for _, e := range entries {
			if err := client.Publish(ctx, e); err != nil {
				log.Printf("svccrawl: publish %s: %v", e.Name, err)
				continue
			}
			published++
		}
		fmt.Printf("published %d/%d to %s\n", published, len(entries), *registryURL)
	}
}

// monitor probes every endpoint once per round, rounds an interval apart,
// through a reliability.HealthChecker whose outcomes feed an in-memory QoS
// registry, and writes each endpoint's availability record to w.
func monitor(ctx context.Context, w io.Writer, urls []string, rounds int, interval time.Duration) error {
	urls = slices.Compact(slices.Sorted(slices.Values(urls)))
	qos := registry.NewQoS(registry.New())
	for _, u := range urls {
		if err := qos.Publish(registry.Entry{Name: u, Endpoint: u}); err != nil {
			return err
		}
	}
	hc, err := reliability.NewHealthChecker(reliability.HealthCheckerConfig{
		Interval: 10 * time.Second, // never started: the rounds below drive it; also the probe timeout
		Probe:    reliability.HTTPProbe(nil, ""),
		OnProbe: func(u string, up bool, rtt time.Duration) {
			if err := qos.ObserveProbe(u, up, rtt); err != nil {
				log.Printf("svccrawl: %v", err)
			}
		},
	}, urls...)
	if err != nil {
		return err
	}
	for i := 0; i < rounds; i++ {
		hc.CheckNow(ctx)
		if i < rounds-1 {
			time.Sleep(interval)
		}
	}
	fmt.Fprintf(w, "%-50s %7s %8s %12s %s\n", "endpoint", "checks", "uptime", "mean RTT", "last error")
	for _, u := range urls {
		q, _ := qos.QoSOf(u)
		lastErr := ""
		if err := hc.LastError(u); err != nil {
			lastErr = err.Error()
		}
		fmt.Fprintf(w, "%-50s %7d %7.0f%% %12v %s\n",
			u, q.Samples, q.Uptime*100, q.MeanRTT.Round(time.Millisecond), lastErr)
	}
	return nil
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if t := strings.TrimSpace(p); t != "" {
			out = append(out, t)
		}
	}
	return out
}
