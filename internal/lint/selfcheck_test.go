package lint

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"soc/internal/lint/flow"
)

// moduleRun is one cold soclint run over the whole module: a fresh
// loader with test files on, the default analyzer registry and policy,
// through RunModule — the same run `make lint` makes. TestSoclintSelfCheck
// checks its findings, TestRuntimeBudget its wall time and
// TestMutationUnreached its flow graph, so the package type-checks the
// module once, not three times; TestUnreachedPartialRun reuses its loader.
type moduleRun struct {
	findings []Finding
	graph    *flow.Graph
	loader   *Loader
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
	return moduleRun{findings: findings, graph: runner.Flow, loader: loader, paths: len(paths), units: units, elapsed: time.Since(start)}
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

// TestMutationUnreached removes the stdlib-interface root rule from the
// module-wide walk: the two methods only the standard library calls —
// context's AfterFunc hook on callplane's deadline body and the loader's
// types.Importer method — must then be reported, and must not be with
// the rule on.
func TestMutationUnreached(t *testing.T) {
	if testing.Short() {
		t.Skip("needs the full-module run; skipped in -short")
	}
	g := fullModuleRun(t).graph
	reported := func(stdlibRoots bool) map[string]bool {
		out := map[string]bool{}
		for _, f := range unreachedFuncs(g, stdlibRoots) {
			out[f.Name] = true
		}
		return out
	}
	with, without := reported(true), reported(false)
	for _, name := range []string{"callplane.deadlineBody.AfterFunc", "lint.Loader.Import"} {
		if with[name] {
			t.Errorf("%s reported with the stdlib-interface rule on", name)
		}
		if !without[name] {
			t.Errorf("%s not reported with the stdlib-interface rule removed", name)
		}
	}
}

// TestUnreachedPartialRun runs unreached over part of the module: the
// examples' mains and internal/parallel, without internal/services, the
// one caller of parallel.Queue's TryPut, TryTake, Len and Cap. Those
// methods are live in the full run, and the partial run's own graph
// misses them, so only the partial-run rule keeps them from being
// reported: a run that leaves a module package out reports nothing.
func TestUnreachedPartialRun(t *testing.T) {
	if testing.Short() {
		t.Skip("needs the full-module run; skipped in -short")
	}
	full := fullModuleRun(t)
	all, err := full.loader.ModulePackages()
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, p := range all {
		if p == "soc/internal/parallel" || strings.HasPrefix(p, "soc/examples/") {
			paths = append(paths, p)
		}
	}
	runner := &Runner{Analyzers: []*Analyzer{Unreached}, Config: DefaultConfig()}
	findings, _, err := runner.RunModule(full.loader, paths)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range append(findings, runner.Suppressed...) {
		t.Errorf("partial run reported %s", f)
	}

	live := []string{"parallel.Queue.TryPut", "parallel.Queue.TryTake", "parallel.Queue.Len", "parallel.Queue.Cap"}
	names := func(g *flow.Graph) map[string]bool {
		out := map[string]bool{}
		for _, f := range unreachedFuncs(g, true) {
			out[f.Name] = true
		}
		return out
	}
	inFull, inPart := names(full.graph), names(runner.Flow)
	for _, name := range live {
		if inFull[name] {
			t.Errorf("%s unreached in the full run; the test's premise is gone", name)
		}
		if !inPart[name] {
			t.Errorf("%s reached in the partial graph; the test no longer exercises the rule", name)
		}
	}
}
