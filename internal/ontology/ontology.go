// Package ontology implements the "Ontology and Semantic Web" unit of
// CSE446: an RDF-style triple store with subclass/subproperty reasoning,
// pattern queries, and the semantic service-matching algorithm that rates
// how well an advertised service satisfies a request (exact / plugin /
// subsume / fail — the classic OWL-S matchmaking degrees).
package ontology

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Well-known predicates.
const (
	SubClassOf = "rdfs:subClassOf"
	TypeOf     = "rdf:type"
)

// Triple is one (subject, predicate, object) statement.
type Triple struct {
	S, P, O string
}

// ErrTriple reports an invalid statement or query.
var ErrTriple = errors.New("ontology: invalid triple")

// Store is a triple store with forward-chained subclass reasoning.
type Store struct {
	mu      sync.RWMutex
	triples map[Triple]bool
	bySP    map[[2]string][]string // (s,p) → objects
	byPO    map[[2]string][]string // (p,o) → subjects
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{
		triples: map[Triple]bool{},
		bySP:    map[[2]string][]string{},
		byPO:    map[[2]string][]string{},
	}
}

// Add asserts a triple (idempotent).
func (s *Store) Add(subject, predicate, object string) error {
	if subject == "" || predicate == "" || object == "" {
		return fmt.Errorf("%w: (%q,%q,%q)", ErrTriple, subject, predicate, object)
	}
	t := Triple{subject, predicate, object}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.triples[t] {
		return nil
	}
	s.triples[t] = true
	s.bySP[[2]string{subject, predicate}] = append(s.bySP[[2]string{subject, predicate}], object)
	s.byPO[[2]string{predicate, object}] = append(s.byPO[[2]string{predicate, object}], subject)
	return nil
}

// Query returns triples matching the pattern; "" or "?" in a position is
// a wildcard. Results are sorted for determinism.
func (s *Store) Query(subject, predicate, object string) []Triple {
	wild := func(x string) bool { return x == "" || x == "?" }
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []Triple
	for t := range s.triples {
		if !wild(subject) && t.S != subject {
			continue
		}
		if !wild(predicate) && t.P != predicate {
			continue
		}
		if !wild(object) && t.O != object {
			continue
		}
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].S != out[j].S {
			return out[i].S < out[j].S
		}
		if out[i].P != out[j].P {
			return out[i].P < out[j].P
		}
		return out[i].O < out[j].O
	})
	return out
}

// Objects returns the objects of (subject, predicate, *), sorted.
func (s *Store) Objects(subject, predicate string) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := append([]string(nil), s.bySP[[2]string{subject, predicate}]...)
	sort.Strings(out)
	return out
}

// IsSubClassOf reports whether sub is a (possibly transitive) subclass of
// super; every class is a subclass of itself.
func (s *Store) IsSubClassOf(sub, super string) bool {
	if sub == super {
		return true
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	seen := map[string]bool{sub: true}
	frontier := []string{sub}
	for len(frontier) > 0 {
		cur := frontier[0]
		frontier = frontier[1:]
		for _, parent := range s.bySP[[2]string{cur, SubClassOf}] {
			if parent == super {
				return true
			}
			if !seen[parent] {
				seen[parent] = true
				frontier = append(frontier, parent)
			}
		}
	}
	return false
}

// Superclasses returns all (transitive) superclasses of c, sorted,
// excluding c itself.
func (s *Store) Superclasses(c string) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	seen := map[string]bool{}
	frontier := []string{c}
	for len(frontier) > 0 {
		cur := frontier[0]
		frontier = frontier[1:]
		for _, parent := range s.bySP[[2]string{cur, SubClassOf}] {
			if !seen[parent] {
				seen[parent] = true
				frontier = append(frontier, parent)
			}
		}
	}
	delete(seen, c)
	out := make([]string, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// InstancesOf returns subjects typed (directly or via subclasses) as c.
func (s *Store) InstancesOf(c string) []string {
	s.mu.RLock()
	classes := []string{c}
	// collect all subclasses of c
	var subs []string
	for t := range s.triples {
		if t.P == SubClassOf {
			subs = append(subs, t.S)
		}
	}
	s.mu.RUnlock()
	for _, sub := range subs {
		if sub != c && s.IsSubClassOf(sub, c) {
			classes = append(classes, sub)
		}
	}
	seen := map[string]bool{}
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, cls := range classes {
		for _, subj := range s.byPO[[2]string{TypeOf, cls}] {
			seen[subj] = true
		}
	}
	out := make([]string, 0, len(seen))
	for subj := range seen {
		out = append(out, subj)
	}
	sort.Strings(out)
	return out
}

// MatchDegree rates a semantic match.
type MatchDegree int

// OWL-S style matchmaking degrees, best to worst.
const (
	Exact MatchDegree = iota
	Plugin
	Subsume
	Fail
)

func (d MatchDegree) String() string {
	switch d {
	case Exact:
		return "exact"
	case Plugin:
		return "plugin"
	case Subsume:
		return "subsume"
	}
	return "fail"
}

// MatchConcept rates how advertised satisfies requested:
//
//	exact   — same concept
//	plugin  — advertised is more specific (a subclass of requested)
//	subsume — advertised is more general (a superclass of requested)
//	fail    — unrelated
func (s *Store) MatchConcept(requested, advertised string) MatchDegree {
	switch {
	case requested == advertised:
		return Exact
	case s.IsSubClassOf(advertised, requested):
		return Plugin
	case s.IsSubClassOf(requested, advertised):
		return Subsume
	default:
		return Fail
	}
}

// ServiceProfile advertises a service's semantic signature: the concepts
// of its inputs and outputs.
type ServiceProfile struct {
	Name    string
	Inputs  []string
	Outputs []string
}

// MatchService rates an advertisement against a request profile: the
// worst output-concept match dominates (a service is only as useful as
// its weakest promised output); inputs match in the reverse direction
// (the requester must be able to supply them).
func (s *Store) MatchService(request, advert ServiceProfile) MatchDegree {
	worst := Exact
	// Every requested output must be produced.
	for _, reqOut := range request.Outputs {
		best := Fail
		for _, advOut := range advert.Outputs {
			if d := s.MatchConcept(reqOut, advOut); d < best {
				best = d
			}
		}
		if best > worst {
			worst = best
		}
	}
	// Every advertised input must be suppliable from the request's inputs.
	for _, advIn := range advert.Inputs {
		best := Fail
		for _, reqIn := range request.Inputs {
			if d := s.MatchConcept(advIn, reqIn); d < best {
				best = d
			}
		}
		if best > worst {
			worst = best
		}
	}
	return worst
}

// RankServices orders adverts by match quality against the request,
// dropping Fail matches.
func (s *Store) RankServices(request ServiceProfile, adverts []ServiceProfile) []ScoredService {
	var out []ScoredService
	for _, adv := range adverts {
		d := s.MatchService(request, adv)
		if d == Fail {
			continue
		}
		out = append(out, ScoredService{Profile: adv, Degree: d})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Degree != out[j].Degree {
			return out[i].Degree < out[j].Degree
		}
		return out[i].Profile.Name < out[j].Profile.Name
	})
	return out
}

// ScoredService is one ranked advertisement.
type ScoredService struct {
	Profile ServiceProfile
	Degree  MatchDegree
}
