package ontology

import (
	"testing"
)

// financeOntology: Loan ⊂ FinancialProduct; Mortgage ⊂ Loan;
// AutoLoan ⊂ Loan; CreditScore ⊂ Score.
func financeOntology(t *testing.T) *Store {
	t.Helper()
	s := NewStore()
	for _, tr := range []Triple{
		{"Loan", SubClassOf, "FinancialProduct"},
		{"Mortgage", SubClassOf, "Loan"},
		{"AutoLoan", SubClassOf, "Loan"},
		{"CreditScore", SubClassOf, "Score"},
		{"deal1", TypeOf, "Mortgage"},
		{"deal2", TypeOf, "AutoLoan"},
		{"deal3", TypeOf, "Loan"},
	} {
		if err := s.Add(tr.S, tr.P, tr.O); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestAddAndQuery(t *testing.T) {
	s := financeOntology(t)
	if len(s.triples) != 7 {
		t.Errorf("len = %d", len(s.triples))
	}
	if err := s.Add("", "p", "o"); err == nil {
		t.Error("empty subject accepted")
	}
	// Idempotent add.
	_ = s.Add("Loan", SubClassOf, "FinancialProduct")
	if len(s.triples) != 7 {
		t.Errorf("duplicate add changed len to %d", len(s.triples))
	}
	if !s.triples[Triple{"Mortgage", SubClassOf, "Loan"}] {
		t.Error("Has missed asserted triple")
	}
	if s.triples[Triple{"Loan", SubClassOf, "Mortgage"}] {
		t.Error("Has found phantom triple")
	}
	all := s.Query("", SubClassOf, "")
	if len(all) != 4 {
		t.Errorf("subclass triples = %v", all)
	}
	loans := s.Query("", TypeOf, "Mortgage")
	if len(loans) != 1 || loans[0].S != "deal1" {
		t.Errorf("typed query = %v", loans)
	}
	if got := s.Query("deal1", "", ""); len(got) != 1 {
		t.Errorf("subject query = %v", got)
	}
}

func TestSubClassReasoning(t *testing.T) {
	s := financeOntology(t)
	cases := []struct {
		sub, super string
		want       bool
	}{
		{"Mortgage", "Loan", true},
		{"Mortgage", "FinancialProduct", true}, // transitive
		{"Mortgage", "Mortgage", true},         // reflexive
		{"Loan", "Mortgage", false},
		{"CreditScore", "FinancialProduct", false},
	}
	for _, c := range cases {
		if got := s.IsSubClassOf(c.sub, c.super); got != c.want {
			t.Errorf("IsSubClassOf(%s,%s) = %v", c.sub, c.super, got)
		}
	}
	supers := s.Superclasses("Mortgage")
	if len(supers) != 2 || supers[0] != "FinancialProduct" || supers[1] != "Loan" {
		t.Errorf("superclasses = %v", supers)
	}
}

func TestSubClassCycleTolerance(t *testing.T) {
	s := NewStore()
	_ = s.Add("A", SubClassOf, "B")
	_ = s.Add("B", SubClassOf, "A") // degenerate but must not hang
	if !s.IsSubClassOf("A", "B") || !s.IsSubClassOf("B", "A") {
		t.Error("cycle members not mutually subclassed")
	}
	if s.IsSubClassOf("A", "C") {
		t.Error("phantom superclass")
	}
}

func TestInstancesOf(t *testing.T) {
	s := financeOntology(t)
	loans := s.InstancesOf("Loan")
	if len(loans) != 3 {
		t.Errorf("instances of Loan = %v", loans)
	}
	products := s.InstancesOf("FinancialProduct")
	if len(products) != 3 {
		t.Errorf("instances of FinancialProduct = %v", products)
	}
	mortgages := s.InstancesOf("Mortgage")
	if len(mortgages) != 1 || mortgages[0] != "deal1" {
		t.Errorf("instances of Mortgage = %v", mortgages)
	}
	if got := s.InstancesOf("Score"); len(got) != 0 {
		t.Errorf("instances of Score = %v", got)
	}
}

func TestObjects(t *testing.T) {
	s := financeOntology(t)
	got := s.Objects("Mortgage", SubClassOf)
	if len(got) != 1 || got[0] != "Loan" {
		t.Errorf("objects = %v", got)
	}
}

func TestMatchConcept(t *testing.T) {
	s := financeOntology(t)
	cases := []struct {
		req, adv string
		want     MatchDegree
	}{
		{"Loan", "Loan", Exact},
		{"Loan", "Mortgage", Plugin},  // advertised more specific
		{"Mortgage", "Loan", Subsume}, // advertised more general
		{"Loan", "CreditScore", Fail},
	}
	for _, c := range cases {
		if got := s.MatchConcept(c.req, c.adv); got != c.want {
			t.Errorf("MatchConcept(%s,%s) = %s, want %s", c.req, c.adv, got, c.want)
		}
	}
	if Exact.String() != "exact" || Fail.String() != "fail" {
		t.Error("degree names wrong")
	}
}

func TestMatchService(t *testing.T) {
	s := financeOntology(t)
	request := ServiceProfile{
		Name:    "need-loan-quote",
		Inputs:  []string{"CreditScore"},
		Outputs: []string{"Loan"},
	}
	exactAd := ServiceProfile{Name: "loan-svc", Inputs: []string{"CreditScore"}, Outputs: []string{"Loan"}}
	pluginAd := ServiceProfile{Name: "mortgage-svc", Inputs: []string{"CreditScore"}, Outputs: []string{"Mortgage"}}
	subsumeAd := ServiceProfile{Name: "product-svc", Inputs: []string{"CreditScore"}, Outputs: []string{"FinancialProduct"}}
	failAd := ServiceProfile{Name: "weather-svc", Inputs: []string{"City"}, Outputs: []string{"Forecast"}}

	if d := s.MatchService(request, exactAd); d != Exact {
		t.Errorf("exact ad = %s", d)
	}
	if d := s.MatchService(request, pluginAd); d != Plugin {
		t.Errorf("plugin ad = %s", d)
	}
	if d := s.MatchService(request, subsumeAd); d != Subsume {
		t.Errorf("subsume ad = %s", d)
	}
	if d := s.MatchService(request, failAd); d != Fail {
		t.Errorf("fail ad = %s", d)
	}

	ranked := s.RankServices(request, []ServiceProfile{failAd, subsumeAd, exactAd, pluginAd})
	if len(ranked) != 3 {
		t.Fatalf("ranked = %v", ranked)
	}
	if ranked[0].Profile.Name != "loan-svc" || ranked[1].Profile.Name != "mortgage-svc" || ranked[2].Profile.Name != "product-svc" {
		t.Errorf("order = %v %v %v", ranked[0].Profile.Name, ranked[1].Profile.Name, ranked[2].Profile.Name)
	}
}

func TestMatchServiceInputDirection(t *testing.T) {
	s := financeOntology(t)
	// The advert demands a Mortgage input; the requester can only supply
	// a Loan. A Loan is not necessarily a Mortgage, so the match is the
	// weak "subsume" degree, not exact/plugin.
	request := ServiceProfile{Inputs: []string{"Loan"}, Outputs: []string{"Loan"}}
	advert := ServiceProfile{Inputs: []string{"Mortgage"}, Outputs: []string{"Loan"}}
	if d := s.MatchService(request, advert); d != Subsume {
		t.Errorf("input-direction match = %s, want subsume", d)
	}
	// Conversely an advert accepting any FinancialProduct input happily
	// takes our Loan: that direction is the strong "plugin" degree.
	generous := ServiceProfile{Inputs: []string{"FinancialProduct"}, Outputs: []string{"Loan"}}
	if d := s.MatchService(request, generous); d != Plugin {
		t.Errorf("generous-input match = %s, want plugin", d)
	}
}
