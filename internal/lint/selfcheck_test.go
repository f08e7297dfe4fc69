package lint

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// moduleRun is one cold soclint run over the whole module: a fresh
// loader with test files on, the default analyzer registry and policy,
// through RunModule — the same run `make lint` makes. TestSoclintSelfCheck
// checks its findings and TestRuntimeBudget its wall time, so the
// package type-checks the module once, not twice.
type moduleRun struct {
	findings []Finding
	paths    int
	units    int
	elapsed  time.Duration
	err      error
}

var (
	moduleRunOnce sync.Once
	moduleRunVal  moduleRun
)

// fullModuleRun returns the shared run, making it on first use.
func fullModuleRun(t *testing.T) moduleRun {
	t.Helper()
	moduleRunOnce.Do(func() { moduleRunVal = runModuleCold() })
	if moduleRunVal.err != nil {
		t.Fatal(moduleRunVal.err)
	}
	return moduleRunVal
}

func runModuleCold() moduleRun {
	root, err := ModuleRoot()
	if err != nil {
		return moduleRun{err: fmt.Errorf("module root: %w", err)}
	}
	start := time.Now()
	loader, err := NewLoader(root)
	if err != nil {
		return moduleRun{err: fmt.Errorf("loader: %w", err)}
	}
	loader.Tests = true
	paths, err := loader.ModulePackages()
	if err != nil {
		return moduleRun{err: fmt.Errorf("listing module packages: %w", err)}
	}
	runner := &Runner{Analyzers: DefaultAnalyzers(), Config: DefaultConfig()}
	findings, units, err := runner.RunModule(loader, paths)
	if err != nil {
		return moduleRun{err: err}
	}
	return moduleRun{findings: findings, paths: len(paths), units: units, elapsed: time.Since(start)}
}

// TestSoclintSelfCheck asserts that the repository passes its own
// linter: every module package — test files and external test packages
// included — yields zero findings in the shared full-module run. This
// is the test-suite twin of `make lint`: a finding introduced anywhere
// in the module fails this test even if nobody runs the binary.
func TestSoclintSelfCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("self-check typechecks the whole module (and the stdlib from source); skipped in -short")
	}
	run := fullModuleRun(t)
	if run.paths == 0 {
		t.Fatal("module package walk found nothing")
	}
	for _, f := range run.findings {
		t.Errorf("%s", f)
	}
}
