package reliability

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"soc/internal/vtime"
)

// scriptedProbe fails replicas present in the fail set.
type scriptedProbe struct {
	mu   sync.Mutex
	fail map[string]bool
}

func (p *scriptedProbe) set(replica string, failing bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.fail[replica] = failing
}

func (p *scriptedProbe) probe(_ context.Context, replica string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.fail[replica] {
		return errors.New("down")
	}
	return nil
}

func TestHealthCheckerDemotesAndPromotes(t *testing.T) {
	sp := &scriptedProbe{fail: map[string]bool{"b": true}}
	hc, err := NewHealthChecker(HealthCheckerConfig{
		Interval:      time.Hour, // driven manually via CheckNow
		FallThreshold: 2,
		RiseThreshold: 2,
		Probe:         sp.probe,
	}, "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Optimistic start: everything healthy before the first probe.
	if got := hc.Healthy(); len(got) != 2 {
		t.Fatalf("initial healthy = %v", got)
	}

	hc.CheckNow(ctx) // b fails once: below FallThreshold, still healthy
	if !hc.IsHealthy("b") {
		t.Fatal("single failure demoted b below the fall threshold")
	}
	hc.CheckNow(ctx) // second consecutive failure demotes
	if hc.IsHealthy("b") {
		t.Fatal("b not demoted after FallThreshold failures")
	}
	if got := hc.Healthy(); len(got) != 1 || got[0] != "a" {
		t.Fatalf("healthy = %v, want [a]", got)
	}
	if hc.LastError("b") == nil {
		t.Error("LastError(b) = nil for failing replica")
	}

	sp.set("b", false)
	hc.CheckNow(ctx) // one success: below RiseThreshold
	if hc.IsHealthy("b") {
		t.Fatal("single success promoted b below the rise threshold")
	}
	hc.CheckNow(ctx) // second success promotes
	if !hc.IsHealthy("b") {
		t.Fatal("b not promoted after RiseThreshold successes")
	}

	probes, demotions, promotions := hc.Counters()
	if probes != 8 || demotions != 1 || promotions != 1 {
		t.Errorf("counters = (%d probes, %d demotions, %d promotions), want (8, 1, 1)", probes, demotions, promotions)
	}
}

func TestHealthCheckerHTTPProbeAndLoop(t *testing.T) {
	var healthy atomic.Bool
	healthy.Store(true)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/healthz" {
			http.NotFound(w, r)
			return
		}
		if !healthy.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(`{"status":"ok"}`))
	}))
	defer srv.Close()

	hc, err := NewHealthChecker(HealthCheckerConfig{Interval: 5 * time.Millisecond}, srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := t.Context()
	hc.Start(ctx)
	defer hc.Stop()

	waitFor := func(want bool) {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for time.Now().Before(deadline) {
			if hc.IsHealthy(srv.URL) == want {
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
		t.Fatalf("replica never became healthy=%v", want)
	}

	waitFor(true)
	healthy.Store(false)
	waitFor(false)
	healthy.Store(true)
	waitFor(true)
	if _, demotions, promotions := hc.Counters(); demotions < 1 || promotions < 1 {
		t.Errorf("counted %d demotions and %d promotions, want at least one each", demotions, promotions)
	}
}

func TestHealthCheckerOnProbeFeed(t *testing.T) {
	var mu sync.Mutex
	type obs struct {
		up  bool
		rtt time.Duration
	}
	feed := map[string][]obs{}
	sp := &scriptedProbe{fail: map[string]bool{"down": true}}
	hc, err := NewHealthChecker(HealthCheckerConfig{
		Interval: time.Hour,
		Probe:    sp.probe,
		OnProbe: func(replica string, up bool, rtt time.Duration) {
			mu.Lock()
			feed[replica] = append(feed[replica], obs{up, rtt})
			mu.Unlock()
		},
	}, "up", "down")
	if err != nil {
		t.Fatal(err)
	}
	hc.CheckNow(context.Background())
	mu.Lock()
	defer mu.Unlock()
	if len(feed["up"]) != 1 || !feed["up"][0].up {
		t.Errorf("feed[up] = %v", feed["up"])
	}
	if len(feed["down"]) != 1 || feed["down"][0].up {
		t.Errorf("feed[down] = %v", feed["down"])
	}
}

func TestHealthCheckerValidation(t *testing.T) {
	if _, err := NewHealthChecker(HealthCheckerConfig{Interval: time.Second}); err == nil {
		t.Error("no replicas accepted")
	}
	if _, err := NewHealthChecker(HealthCheckerConfig{}, "a"); err == nil {
		t.Error("zero interval accepted")
	}
	if _, err := NewHealthChecker(HealthCheckerConfig{Interval: time.Second}, "a", "a"); err == nil {
		t.Error("duplicate replica accepted")
	}
}

func TestHealthCheckerStopBeforeStart(t *testing.T) {
	hc, err := NewHealthChecker(HealthCheckerConfig{Interval: time.Hour,
		Probe: func(context.Context, string) error { return nil }}, "a")
	if err != nil {
		t.Fatal(err)
	}
	begin := time.Now()
	hc.Stop()
	hc.Stop() // idempotent
	if d := time.Since(begin); d >= time.Second {
		t.Errorf("Stop on a never-started checker took %v", d)
	}
	hc.Start(context.Background()) // after Stop: launches nothing
	if probes, _, _ := hc.Counters(); probes != 0 {
		t.Errorf("Start after Stop probed %d times", probes)
	}
}

func TestHealthCheckerStartsOnce(t *testing.T) {
	hc, err := NewHealthChecker(HealthCheckerConfig{Interval: time.Hour,
		Probe: func(context.Context, string) error { return nil }}, "a")
	if err != nil {
		t.Fatal(err)
	}
	hc.Start(context.Background())
	hc.Start(context.Background())
	hc.Stop()
	if probes, _, _ := hc.Counters(); probes != 1 {
		t.Errorf("probes = %d, want 1 (one loop, one immediate round)", probes)
	}
}

func TestHealthCheckerCanceledContextIsNobodysFault(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer srv.Close()
	var fed int32
	hc, err := NewHealthChecker(HealthCheckerConfig{
		Interval: time.Hour,
		Probe:    HTTPProbe(nil, ""),
		OnProbe:  func(string, bool, time.Duration) { atomic.AddInt32(&fed, 1) },
	}, srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	hc.CheckNow(ctx)
	if !hc.IsHealthy(srv.URL) {
		t.Error("a canceled round demoted a healthy replica")
	}
	if probes, _, _ := hc.Counters(); probes != 0 || atomic.LoadInt32(&fed) != 0 {
		t.Errorf("canceled round counted %d probes, fed OnProbe %d times", probes, atomic.LoadInt32(&fed))
	}
}

// TestHealthCheckerReadsContextClock: a probe's deadline is Interval and
// its RTT is the context's clock's. On a vtime.Virtual a 30 ms probe
// reports exactly 30 ms, and a probe that sleeps past Interval fails
// with the deadline at exactly Interval of virtual time — a failure,
// not a caller-cancelled probe.
func TestHealthCheckerReadsContextClock(t *testing.T) {
	epoch := time.Unix(0, 0)
	v := vtime.NewVirtual(epoch)
	ctx := vtime.WithClock(context.Background(), v)
	type obs struct {
		up  bool
		rtt time.Duration
	}
	var fed []obs
	hc, err := NewHealthChecker(HealthCheckerConfig{
		Interval: 100 * time.Millisecond,
		Probe: func(ctx context.Context, replica string) error {
			if replica == "slow" {
				return vtime.Sleep(ctx, time.Minute)
			}
			return vtime.Sleep(ctx, 30*time.Millisecond)
		},
		OnProbe: func(_ string, up bool, rtt time.Duration) { fed = append(fed, obs{up, rtt}) },
	}, "fast", "slow")
	if err != nil {
		t.Fatal(err)
	}

	if err := hc.Check(ctx, "fast"); err != nil {
		t.Fatalf("fast probe: %v", err)
	}
	if len(fed) != 1 || !fed[0].up || fed[0].rtt != 30*time.Millisecond {
		t.Fatalf("fast probe fed %v, want one healthy sample of exactly 30ms", fed)
	}

	before := v.Now()
	if err := hc.Check(ctx, "slow"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("slow probe returned %v, want context.DeadlineExceeded", err)
	}
	if got := v.Now().Sub(before); got != 100*time.Millisecond {
		t.Fatalf("slow probe ended %v after it began, want exactly the 100ms interval", got)
	}
	if len(fed) != 2 || fed[1].up || fed[1].rtt != 100*time.Millisecond {
		t.Fatalf("slow probe fed %v, want a failed sample of exactly 100ms", fed[1:])
	}
	if hc.IsHealthy("slow") || !errors.Is(hc.LastError("slow"), context.DeadlineExceeded) {
		t.Errorf("slow replica healthy=%v lastErr=%v, want demoted on the deadline", hc.IsHealthy("slow"), hc.LastError("slow"))
	}
	if probes, demotions, _ := hc.Counters(); probes != 2 || demotions != 1 {
		t.Errorf("counters = (%d probes, %d demotions), want (2, 1)", probes, demotions)
	}
}

func TestHealthCheckerCheckUnknownReplica(t *testing.T) {
	var fed int32
	hc, err := NewHealthChecker(HealthCheckerConfig{
		Interval: time.Hour,
		Probe:    func(context.Context, string) error { return nil },
		OnProbe:  func(string, bool, time.Duration) { atomic.AddInt32(&fed, 1) },
	}, "a")
	if err != nil {
		t.Fatal(err)
	}
	if err := hc.Check(context.Background(), "ghost"); err == nil {
		t.Fatal("Check of an unknown replica succeeded")
	}
	if probes, _, _ := hc.Counters(); probes != 0 || atomic.LoadInt32(&fed) != 0 {
		t.Errorf("unknown replica counted %d probes, fed OnProbe %d times", probes, atomic.LoadInt32(&fed))
	}
}
