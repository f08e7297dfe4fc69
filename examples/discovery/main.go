// Discovery: three ways to find a service in the broker — keyword search
// (TF-IDF), quality-weighted search (the consumer-centric answer to the
// paper's complaint that free public services are slow and flaky), and
// semantic matchmaking over an ontology (find by capability, not name).
package main

import (
	"fmt"
	"log"
	"time"

	"soc/internal/ontology"
	"soc/internal/registry"
)

func main() {
	base := registry.New()
	publish := func(name, doc, category string) {
		if err := base.Publish(registry.Entry{
			Name: name, Doc: doc, Category: category,
			Endpoint: "http://venus.example/" + name,
		}); err != nil {
			log.Fatal(err)
		}
	}
	publish("FastLoans", "instant loan quotes with credit check", "finance/lending")
	publish("SlowLoans", "loan quotes with credit check", "finance/lending")
	publish("WeatherNow", "city weather forecasts", "data/weather")

	// 1. Keyword search: pure relevance.
	fmt.Println("keyword search for 'loan credit':")
	matches, err := base.Search("loan credit", 0)
	if err != nil {
		log.Fatal(err)
	}
	for _, m := range matches {
		fmt.Printf("  %-10s relevance=%.3f\n", m.Entry.Name, m.Score)
	}

	// 2. QoS-weighted search: observed uptime and latency re-rank equally
	// relevant candidates.
	qos := registry.NewQoS(base)
	must := func(err error) {
		if err != nil {
			log.Fatal(err)
		}
	}
	must(qos.ReportQoS("FastLoans", registry.QoS{Uptime: 0.99, MeanRTT: 30 * time.Millisecond, Samples: 100}))
	must(qos.ReportQoS("SlowLoans", registry.QoS{Uptime: 0.70, MeanRTT: 900 * time.Millisecond, Samples: 100}))
	fmt.Println("\nQoS-weighted search for 'loan credit':")
	weighted, err := qos.SearchQoS("loan credit", 0)
	if err != nil {
		log.Fatal(err)
	}
	for _, m := range weighted {
		fmt.Printf("  %-10s relevance=%.3f quality=%.2f score=%.3f\n",
			m.Entry.Name, m.Relevance, m.Quality, m.Score)
	}
	fmt.Println("\ndependable (>90% uptime):")
	for _, d := range qos.Dependable(0.9) {
		fmt.Printf("  %s\n", d.Entry.Name)
	}

	// 3. Semantic discovery: ask by capability over a concept hierarchy.
	onto := ontology.NewStore()
	must(onto.Add("LoanQuote", ontology.SubClassOf, "FinancialProduct"))
	must(onto.Add("Forecast", ontology.SubClassOf, "Prediction"))
	must(onto.Add("FinancialProduct", ontology.SubClassOf, "Product"))
	must(onto.Add("quote-17", ontology.TypeOf, "LoanQuote"))
	fmt.Println("\nontology (chapter 11):")
	for _, t := range onto.Query("?", ontology.SubClassOf, "?") {
		fmt.Printf("  %s %s %s\n", t.S, t.P, t.O)
	}
	fmt.Printf("  LoanQuote: direct superclasses %v, all %v; FinancialProduct instances %v\n",
		onto.Objects("LoanQuote", ontology.SubClassOf), onto.Superclasses("LoanQuote"), onto.InstancesOf("FinancialProduct"))
	sem := registry.NewSemantic(base, onto)
	must(sem.Annotate("FastLoans", []string{"CreditScore"}, []string{"LoanQuote"}))
	must(sem.Annotate("SlowLoans", []string{"CreditScore"}, []string{"LoanQuote"}))
	must(sem.Annotate("WeatherNow", []string{"City"}, []string{"Forecast"}))

	fmt.Println("\nsemantic discovery: 'given a CreditScore, produce any FinancialProduct':")
	found, err := sem.Discover([]string{"CreditScore"}, []string{"FinancialProduct"})
	if err != nil {
		log.Fatal(err)
	}
	for _, m := range found {
		fmt.Printf("  %-10s degree=%s\n", m.Entry.Name, m.Degree)
	}
}
