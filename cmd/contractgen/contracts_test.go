package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestContractsMatchServices is the repository's contract check: the
// committed contracts/ directory holds exactly one file per bound
// service (no orphan, none missing), and each is byte-identical to what
// `make contracts` would write for it now. A service whose operations,
// parameter names, types or optionality drift from its published WSDL
// fails here until the contract is regenerated and committed.
func TestContractsMatchServices(t *testing.T) {
	dir := filepath.Join("..", "..", "contracts")
	svcs, err := boundServices()
	if err != nil {
		t.Fatalf("building services: %v", err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.wsdl"))
	if err != nil {
		t.Fatal(err)
	}
	orphans := map[string]bool{}
	for _, f := range files {
		orphans[strings.TrimSuffix(filepath.Base(f), ".wsdl")] = true
	}
	for _, svc := range svcs {
		delete(orphans, svc.Name)
		doc, err := render(svc)
		if err != nil {
			t.Fatalf("generating %s: %v", svc.Name, err)
		}
		path := filepath.Join(dir, svc.Name+".wsdl")
		committed, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("%s has no contract: %v; run `make contracts`", svc.Name, err)
			continue
		}
		if !bytes.Equal(committed, doc) {
			t.Errorf("%s is stale: %s no longer renders to it; run `make contracts`", path, svc.Name)
		}
	}
	for name := range orphans {
		t.Errorf("contracts/%s.wsdl names no bound service; delete it or bind the service", name)
	}
}
