package registry

import (
	"fmt"
	"sync"

	"soc/internal/ontology"
)

// SemanticRegistry augments a registry with OWL-S-style service profiles
// (input/output concepts) and matchmaking against an ontology — the
// CSE446 "Ontology and Semantic Web" unit applied to service discovery:
// instead of keywords, a client asks for "something that takes a
// CreditScore and yields a Loan" and the broker reasons over the concept
// hierarchy.
type SemanticRegistry struct {
	*Registry
	onto *ontology.Store

	mu       sync.RWMutex
	profiles map[string]ontology.ServiceProfile
}

// NewSemantic wraps a registry with an ontology.
func NewSemantic(r *Registry, onto *ontology.Store) *SemanticRegistry {
	return &SemanticRegistry{
		Registry: r,
		onto:     onto,
		profiles: map[string]ontology.ServiceProfile{},
	}
}

// Annotate attaches a semantic profile to a published entry.
func (r *SemanticRegistry) Annotate(name string, inputs, outputs []string) error {
	if _, err := r.Get(name); err != nil {
		return err
	}
	if len(outputs) == 0 {
		return fmt.Errorf("%w: profile for %q needs at least one output concept", ErrInvalid, name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.profiles[name] = ontology.ServiceProfile{Name: name, Inputs: inputs, Outputs: outputs}
	return nil
}

// Profile returns the semantic profile of an entry.
func (r *SemanticRegistry) Profile(name string) (ontology.ServiceProfile, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	p, ok := r.profiles[name]
	return p, ok
}

// SemanticMatch is one ranked discovery result.
type SemanticMatch struct {
	Entry  Entry
	Degree ontology.MatchDegree
}

// Discover ranks live, annotated entries against the requested profile,
// best matches first; Fail-degree candidates are dropped.
func (r *SemanticRegistry) Discover(inputs, outputs []string) ([]SemanticMatch, error) {
	if len(outputs) == 0 {
		return nil, fmt.Errorf("%w: request needs at least one output concept", ErrInvalid)
	}
	entries := map[string]Entry{}
	var adverts []ontology.ServiceProfile
	for _, e := range r.List(true) {
		if profile, ok := r.Profile(e.Name); ok {
			entries[e.Name] = e
			adverts = append(adverts, profile)
		}
	}
	ranked := r.onto.RankServices(ontology.ServiceProfile{Inputs: inputs, Outputs: outputs}, adverts)
	out := make([]SemanticMatch, len(ranked))
	for i, s := range ranked {
		out[i] = SemanticMatch{Entry: entries[s.Profile.Name], Degree: s.Degree}
	}
	return out, nil
}
