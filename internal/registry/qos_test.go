package registry

import (
	"errors"
	"testing"
	"time"
)

func qosSeeded(t *testing.T) *QoSRegistry {
	t.Helper()
	r := NewQoS(seeded(t))
	return r
}

func TestReportQoSValidation(t *testing.T) {
	r := qosSeeded(t)
	if err := r.ReportQoS("Encryption", QoS{Uptime: 0.99, MeanRTT: 10 * time.Millisecond, Samples: 5}); err != nil {
		t.Fatal(err)
	}
	if err := r.ReportQoS("Ghost", QoS{Uptime: 1}); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown service: %v", err)
	}
	for _, bad := range []QoS{{Uptime: -0.1}, {Uptime: 1.5}, {Uptime: 0.5, Samples: -1}, {Uptime: 0.5, MeanRTT: -time.Second}} {
		if err := r.ReportQoS("Encryption", bad); !errors.Is(err, ErrInvalid) {
			t.Errorf("ReportQoS(%+v): %v", bad, err)
		}
	}
	q, ok := r.QoSOf("Encryption")
	if !ok || q.Uptime != 0.99 {
		t.Errorf("QoSOf = %+v %v", q, ok)
	}
	if _, ok := r.QoSOf("ShoppingCart"); ok {
		t.Error("phantom QoS")
	}
}

func TestSearchQoSReordersByQuality(t *testing.T) {
	r := NewQoS(New())
	// Two services with identical keyword relevance.
	for _, name := range []string{"WeatherA", "WeatherB"} {
		if err := r.Publish(Entry{Name: name, Doc: "weather forecast service", Endpoint: "http://x/" + name}); err != nil {
			t.Fatal(err)
		}
	}
	// A is flaky and slow; B is solid.
	if err := r.ReportQoS("WeatherA", QoS{Uptime: 0.4, MeanRTT: 900 * time.Millisecond, Samples: 20}); err != nil {
		t.Fatal(err)
	}
	if err := r.ReportQoS("WeatherB", QoS{Uptime: 0.99, MeanRTT: 20 * time.Millisecond, Samples: 20}); err != nil {
		t.Fatal(err)
	}
	matches, err := r.SearchQoS("weather forecast", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 2 || matches[0].Entry.Name != "WeatherB" {
		t.Fatalf("order = %v", matches)
	}
	if matches[0].Quality <= matches[1].Quality {
		t.Errorf("quality ordering wrong: %v", matches)
	}
	if matches[0].Relevance != matches[1].Relevance {
		t.Errorf("relevance should tie: %v vs %v", matches[0].Relevance, matches[1].Relevance)
	}
}

func TestSearchQoSNeutralPrior(t *testing.T) {
	r := NewQoS(New())
	for _, name := range []string{"KnownGood", "Unknown", "KnownBad"} {
		if err := r.Publish(Entry{Name: name, Doc: "echo test service", Endpoint: "http://x"}); err != nil {
			t.Fatal(err)
		}
	}
	_ = r.ReportQoS("KnownGood", QoS{Uptime: 1.0, MeanRTT: time.Millisecond, Samples: 10})
	_ = r.ReportQoS("KnownBad", QoS{Uptime: 0.2, MeanRTT: 2 * time.Second, Samples: 10})
	matches, err := r.SearchQoS("echo test", 0)
	if err != nil || len(matches) != 3 {
		t.Fatalf("matches = %v %v", matches, err)
	}
	order := []string{matches[0].Entry.Name, matches[1].Entry.Name, matches[2].Entry.Name}
	if order[0] != "KnownGood" || order[1] != "Unknown" || order[2] != "KnownBad" {
		t.Errorf("order = %v", order)
	}
}

func TestSearchQoSLimit(t *testing.T) {
	r := qosSeeded(t)
	matches, err := r.SearchQoS("service", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) > 2 {
		t.Errorf("limit ignored: %d", len(matches))
	}
	if _, err := r.SearchQoS("", 0); err == nil {
		t.Error("empty query accepted")
	}
}

func TestDependable(t *testing.T) {
	r := qosSeeded(t)
	_ = r.ReportQoS("Encryption", QoS{Uptime: 0.99, MeanRTT: 5 * time.Millisecond, Samples: 50})
	_ = r.ReportQoS("ShoppingCart", QoS{Uptime: 0.6, MeanRTT: 5 * time.Millisecond, Samples: 50})
	_ = r.ReportQoS("Mortgage", QoS{Uptime: 0.95, MeanRTT: 400 * time.Millisecond, Samples: 50})
	deps := r.Dependable(0.9)
	if len(deps) != 2 {
		t.Fatalf("dependable = %v", deps)
	}
	// Encryption (fast) outranks Mortgage (slow) despite similar uptime.
	if deps[0].Entry.Name != "Encryption" || deps[1].Entry.Name != "Mortgage" {
		t.Errorf("order = %s, %s", deps[0].Entry.Name, deps[1].Entry.Name)
	}
	// Unmeasured services are excluded from the dependable list.
	for _, d := range deps {
		if d.Entry.Name == "ImageVerifier" {
			t.Error("unmeasured service listed as dependable")
		}
	}
}

func TestObserveProbeAccumulates(t *testing.T) {
	r := NewQoS(New())
	if err := r.Publish(Entry{Name: "Live", Doc: "probe target", Endpoint: "http://x/live"}); err != nil {
		t.Fatal(err)
	}
	// 3 successes at 10ms, 1 failure.
	for i := 0; i < 3; i++ {
		if err := r.ObserveProbe("Live", true, 10*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.ObserveProbe("Live", false, 0); err != nil {
		t.Fatal(err)
	}
	q, ok := r.QoSOf("Live")
	if !ok {
		t.Fatal("no QoS record after probes")
	}
	if q.Samples != 4 {
		t.Errorf("samples = %d, want 4", q.Samples)
	}
	if q.Uptime < 0.74 || q.Uptime > 0.76 {
		t.Errorf("uptime = %v, want 0.75", q.Uptime)
	}
	if q.MeanRTT != 10*time.Millisecond {
		t.Errorf("meanRTT = %v, want 10ms (failures must not dilute it)", q.MeanRTT)
	}

	if err := r.ObserveProbe("Ghost", true, 0); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown service: %v", err)
	}
	if err := r.ObserveProbe("Live", true, -time.Second); !errors.Is(err, ErrInvalid) {
		t.Errorf("negative rtt: %v", err)
	}
}

func TestObserveProbeFeedsDiscovery(t *testing.T) {
	r := NewQoS(New())
	for _, name := range []string{"EchoUp", "EchoDown"} {
		if err := r.Publish(Entry{Name: name, Doc: "echo probe service", Endpoint: "http://x/" + name}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		if err := r.ObserveProbe("EchoUp", true, 5*time.Millisecond); err != nil {
			t.Fatal(err)
		}
		if err := r.ObserveProbe("EchoDown", false, 0); err != nil {
			t.Fatal(err)
		}
	}
	matches, err := r.SearchQoS("echo probe", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 2 || matches[0].Entry.Name != "EchoUp" {
		t.Fatalf("discovery order = %+v, want EchoUp first", matches)
	}
	dependable := r.Dependable(0.9)
	if len(dependable) != 1 || dependable[0].Entry.Name != "EchoUp" {
		t.Errorf("dependable = %+v, want only EchoUp", dependable)
	}
}
