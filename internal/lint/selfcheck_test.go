package lint

import "testing"

// TestSoclintSelfCheck asserts that the repository passes its own
// linter: every module package — test files and external test packages
// included — checked with the default analyzer registry and policy
// through RunModule, the same run `make lint` makes, yields zero
// findings. This is the test-suite twin of `make lint`: a finding
// introduced anywhere in the module fails this test even if nobody runs
// the binary.
func TestSoclintSelfCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("self-check typechecks the whole module (and the stdlib from source); skipped in -short")
	}
	loader := testLoader(t)
	paths, err := loader.ModulePackages()
	if err != nil {
		t.Fatalf("listing module packages: %v", err)
	}
	if len(paths) == 0 {
		t.Fatal("module package walk found nothing")
	}
	runner := &Runner{Analyzers: DefaultAnalyzers(), Config: DefaultConfig()}
	findings, _, err := runner.RunModule(loader, paths)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}
