package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"soc/internal/cloud"
	"soc/internal/host"
	"soc/internal/loadgen"
	"soc/internal/respcache"
	"soc/internal/services"
	"soc/internal/vtime"
)

// encryptionHost is a host like the in-process one: Encryption behind
// the response cache, which it returns too.
func encryptionHost(t *testing.T) (*host.Host, *respcache.Cache) {
	t.Helper()
	enc, err := services.NewEncryption()
	if err != nil {
		t.Fatal(err)
	}
	h := host.New()
	h.MustMount(enc)
	return h, h.UseResponseCache(1024, time.Hour)
}

// TestVirtualRunOffersTheScheduleThroughAStall is load-smoke's check on
// a smaller schedule: an injected stall lands in the latency tail, never
// in the number of requests offered.
func TestVirtualRunOffersTheScheduleThroughAStall(t *testing.T) {
	const stall = 100 * time.Millisecond
	res, err := run(1000, time.Second, 0, "", "cached=50,rest=30,soap=20", stall, true, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheduled != 1000 || res.Issued != res.Scheduled {
		t.Errorf("issued %d of %d scheduled, want all of 1000", res.Issued, res.Scheduled)
	}
	if got := res.Latency.Max(); got < stall {
		t.Errorf("max latency %v, want the %v stall in the tail", got, stall)
	}
	if res.Errors != 0 || res.Shed != 0 {
		t.Errorf("errors %d, shed %d, want 0 and 0", res.Errors, res.Shed)
	}
	if err := verdict(res, stall, true); err != nil {
		t.Error(err)
	}
}

// TestLiveRunSendsEveryShape drives a host over a socket: every shape of
// the mix reaches it, and the cached one is answered from the cache.
func TestLiveRunSendsEveryShape(t *testing.T) {
	h, cache := encryptionHost(t)
	var (
		mu   sync.Mutex
		seen = map[string]int{}
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen[r.Method+" "+r.URL.Path]++
		mu.Unlock()
		h.ServeHTTP(w, r)
	}))
	defer srv.Close()

	res, err := run(200, 150*time.Millisecond, 2, srv.URL+"/", "cached=1,rest=1,soap=1", 0, false, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Issued != res.Scheduled || res.Errors != 0 || res.Shed != 0 {
		t.Errorf("issued %d of %d, errors %d, shed %d; want all issued, none failed or shed",
			res.Issued, res.Scheduled, res.Errors, res.Shed)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, shape := range []string{
		"POST /services/Encryption/invoke/Encrypt", // priming
		"GET /services/Encryption/invoke/Decrypt",
		"GET /services/Encryption/invoke/Encrypt",
		"POST /services/Encryption/soap",
	} {
		if seen[shape] == 0 {
			t.Errorf("%s never reached the host (saw %v)", shape, seen)
		}
	}
	if hits, _ := cache.Stats(); hits == 0 {
		t.Error("the cached shape never hit the response cache")
	}
}

// TestShedsAreNotErrors points the shapes at a host that answers 503 to
// every request after priming, once in process and once over a socket:
// each request counts as a shed, none as an error.
func TestShedsAreNotErrors(t *testing.T) {
	h, _ := encryptionHost(t)
	shedding := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && strings.HasPrefix(r.URL.Path, "/services/Encryption/invoke/") {
			h.ServeHTTP(w, r) // priming
			return
		}
		http.Error(w, "shedding", http.StatusServiceUnavailable)
	})
	srv := httptest.NewServer(shedding)
	defer srv.Close()

	for _, tc := range []struct {
		name   string
		client *http.Client
		base   string
	}{
		{"in-process", &http.Client{Transport: cloud.HandlerTransport(shedding), Timeout: 10 * time.Second}, inprocessBase},
		{"live", &http.Client{Timeout: 10 * time.Second}, srv.URL},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := vtime.WithClock(context.Background(), vtime.NewVirtual(time.Unix(0, 0)))
			ops, err := shapes(ctx, tc.client, tc.base)
			if err != nil {
				t.Fatal(err)
			}
			weights, err := parseMix("cached=1,rest=1,soap=1")
			if err != nil {
				t.Fatal(err)
			}
			res, err := loadgen.Run(ctx, loadgen.Config{Rate: 100, Duration: 300 * time.Millisecond}, mixedOp(weights, ops))
			if err != nil {
				t.Fatal(err)
			}
			if res.Issued != 30 || res.Shed != res.Issued || res.Errors != 0 {
				t.Errorf("issued %d, shed %d, errors %d; want 30 issued, all shed, none failed",
					res.Issued, res.Shed, res.Errors)
			}
			if err := verdict(res, 0, false); err != nil {
				t.Errorf("verdict on an all-shed run: %v", err)
			}
		})
	}
}
