package soc

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"soc/internal/ontology"
	"soc/internal/registry"
	"soc/internal/reliability"
)

// TestIntegrationQoSFeedbackLoop closes the consumer-centric loop the
// paper's §V motivates: a health checker probes live endpoints, its OnProbe
// hook feeds the registry's QoS records, and quality-weighted search then
// prefers the dependable provider over an equally relevant but flaky one.
func TestIntegrationQoSFeedbackLoop(t *testing.T) {
	var flakyDown atomic.Bool
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if flakyDown.Load() {
			http.Error(w, "down", http.StatusInternalServerError)
			return
		}
		fmt.Fprint(w, "ok")
	}))
	defer flaky.Close()
	stable := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "ok")
	}))
	defer stable.Close()

	reg := registry.NewQoS(registry.New())
	publish := func(name, endpoint string) {
		t.Helper()
		if err := reg.Publish(registry.Entry{
			Name: name, Doc: "weather forecast service", Endpoint: endpoint,
		}); err != nil {
			t.Fatal(err)
		}
	}
	publish("FlakyWeather", flaky.URL)
	publish("StableWeather", stable.URL)

	// Probe both endpoints over rounds with injected outages; every probe
	// outcome feeds the broker's QoS record through the checker's hook.
	names := map[string]string{flaky.URL: "FlakyWeather", stable.URL: "StableWeather"}
	hc, err := reliability.NewHealthChecker(reliability.HealthCheckerConfig{
		Interval: 10 * time.Second,
		Probe:    reliability.HTTPProbe(nil, ""),
		OnProbe: func(u string, up bool, rtt time.Duration) {
			if err := reg.ObserveProbe(names[u], up, rtt); err != nil {
				t.Error(err)
			}
		},
	}, flaky.URL, stable.URL)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 6; round++ {
		flakyDown.Store(round%2 == 0)
		hc.CheckNow(context.Background())
	}

	if q, ok := reg.QoSOf("StableWeather"); !ok || q.Samples != 6 || q.Uptime != 1 || q.MeanRTT <= 0 {
		t.Errorf("StableWeather QoS = %+v, %v; want 6 samples, uptime 1, a measured RTT", q, ok)
	}

	// Plain keyword search cannot tell them apart...
	plain, err := reg.Search("weather forecast", 0)
	if err != nil || len(plain) != 2 {
		t.Fatalf("plain search: %v %v", plain, err)
	}
	if plain[0].Score != plain[1].Score {
		t.Fatalf("expected identical relevance, got %v vs %v", plain[0].Score, plain[1].Score)
	}
	// ...but the QoS-weighted search prefers the dependable provider.
	weighted, err := reg.SearchQoS("weather forecast", 0)
	if err != nil {
		t.Fatal(err)
	}
	if weighted[0].Entry.Name != "StableWeather" {
		t.Errorf("QoS search top = %s", weighted[0].Entry.Name)
	}
	deps := reg.Dependable(0.9)
	if len(deps) != 1 || deps[0].Entry.Name != "StableWeather" {
		t.Errorf("dependable = %v", deps)
	}
}

// TestIntegrationSemanticDiscoveryOverCatalog annotates catalog-like
// entries with concept profiles and discovers by capability rather than
// keyword.
func TestIntegrationSemanticDiscoveryOverCatalog(t *testing.T) {
	onto := ontology.NewStore()
	for _, tr := range [][3]string{
		{"MortgageApproval", ontology.SubClassOf, "FinancialDecision"},
		{"CreditScore", ontology.SubClassOf, "Score"},
		{"Ciphertext", ontology.SubClassOf, "Blob"},
	} {
		if err := onto.Add(tr[0], tr[1], tr[2]); err != nil {
			t.Fatal(err)
		}
	}
	reg := registry.NewSemantic(registry.New(), onto)
	entries := []struct {
		name    string
		inputs  []string
		outputs []string
	}{
		{"Mortgage", []string{"SSN", "Income"}, []string{"MortgageApproval"}},
		{"CreditScore", []string{"SSN"}, []string{"CreditScore"}},
		{"Encryption", []string{"Plaintext", "Passphrase"}, []string{"Ciphertext"}},
	}
	for _, e := range entries {
		if err := reg.Publish(registry.Entry{Name: e.name, Endpoint: "http://venus/" + e.name}); err != nil {
			t.Fatal(err)
		}
		if err := reg.Annotate(e.name, e.inputs, e.outputs); err != nil {
			t.Fatal(err)
		}
	}
	// "I have an SSN and income; I want any financial decision."
	matches, err := reg.Discover([]string{"SSN", "Income"}, []string{"FinancialDecision"})
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 || matches[0].Entry.Name != "Mortgage" {
		t.Fatalf("discover = %v", matches)
	}
	if matches[0].Degree != ontology.Plugin {
		t.Errorf("degree = %s (MortgageApproval ⊂ FinancialDecision should be plugin)", matches[0].Degree)
	}
}
