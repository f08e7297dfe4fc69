package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// writePackage materializes source files into a temp dir and loads them
// under a unique synthetic module-local import path, so each mutation
// variant gets its own cache entry in the shared loader.
func writePackage(t *testing.T, name string, files map[string]string) *Package {
	t.Helper()
	dir := t.TempDir()
	for fname, src := range files {
		if err := os.WriteFile(filepath.Join(dir, fname), []byte(src), 0o644); err != nil {
			t.Fatalf("writing %s: %v", fname, err)
		}
	}
	path := "soc/internal/lint/mutation/" + name
	pkg, err := testLoader(t).LoadDir(dir, path)
	if err != nil {
		t.Fatalf("loading %s: %v", name, err)
	}
	return pkg
}

// runOn runs one analyzer over one package with the given config.
func runOn(t *testing.T, name string, pkg *Package, cfg Config) []Finding {
	t.Helper()
	a, ok := AnalyzerByName(name)
	if !ok {
		t.Fatalf("no analyzer named %q", name)
	}
	runner := &Runner{Analyzers: []*Analyzer{a}, Config: cfg}
	findings, err := runner.RunPackage(pkg)
	if err != nil {
		t.Fatalf("running %s: %v", name, err)
	}
	return findings
}

// TestMutationLockOrder proves detection the hard way: a clean package
// with consistent lock nesting yields nothing, and the same package
// with one inverted acquisition yields a cycle finding whose witness
// names the actual mutexes involved.
func TestMutationLockOrder(t *testing.T) {
	const clean = `package lockorderm

import "sync"

type S struct{ a, b sync.Mutex }

func (s *S) one() {
	s.a.Lock()
	s.b.Lock()
	s.b.Unlock()
	s.a.Unlock()
}

func (s *S) two() {
	s.a.Lock()
	s.b.Lock()
	s.b.Unlock()
	s.a.Unlock()
}
`
	// The mutation: two() now takes b before a.
	mutated := strings.Replace(clean,
		"func (s *S) two() {\n\ts.a.Lock()\n\ts.b.Lock()",
		"func (s *S) two() {\n\ts.b.Lock()\n\ts.a.Lock()", 1)
	if mutated == clean {
		t.Fatal("mutation did not apply")
	}

	cfg := func(p string) Config { return Config{LockOrderScope: []string{p}} }

	pkg := writePackage(t, "lockorder_clean", map[string]string{"a.go": clean})
	if fs := runOn(t, "lockorder", pkg, cfg(pkg.Path)); len(fs) != 0 {
		t.Errorf("clean variant produced findings: %v", fs)
	}

	pkg = writePackage(t, "lockorder_mutated", map[string]string{"a.go": mutated})
	fs := runOn(t, "lockorder", pkg, cfg(pkg.Path))
	if len(fs) == 0 {
		t.Fatal("lock-order inversion went undetected")
	}
	msg := fs[0].Message
	if !strings.Contains(msg, "lock-order cycle") ||
		!strings.Contains(msg, "lockorderm.S.a") || !strings.Contains(msg, "lockorderm.S.b") {
		t.Errorf("cycle witness does not name the mutexes: %q", msg)
	}
}

// TestMutationLockSafe: a critical section that only counts is fine;
// one time.Sleep added under the lock must give exactly one finding,
// naming the lock it is held under.
func TestMutationLockSafe(t *testing.T) {
	const clean = `package locksafem

import (
	"sync"
	"time"
)

type C struct {
	mu sync.Mutex
	n  int
}

func (c *C) tick() {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
	time.Sleep(time.Millisecond)
}
`
	mutated := strings.Replace(clean, "\tc.n++\n", "\tc.n++\n\ttime.Sleep(time.Millisecond)\n", 1)
	if mutated == clean {
		t.Fatal("mutation did not apply")
	}

	cfg := func(p string) Config { return Config{LockBlockScope: []string{p}} }

	pkg := writePackage(t, "locksafe_clean", map[string]string{"a.go": clean})
	if fs := runOn(t, "locksafe", pkg, cfg(pkg.Path)); len(fs) != 0 {
		t.Errorf("clean variant produced findings: %v", fs)
	}

	pkg = writePackage(t, "locksafe_mutated", map[string]string{"a.go": mutated})
	fs := runOn(t, "locksafe", pkg, cfg(pkg.Path))
	if len(fs) != 1 {
		t.Fatalf("got %d findings for one sleep under the lock, want 1: %v", len(fs), fs)
	}
	if !strings.Contains(fs[0].Message, "time.Sleep while holding c.mu") {
		t.Errorf("finding does not name the lock: %q", fs[0].Message)
	}
}

// TestFlowExplicitInstantiation: a lock taken inside a generic function
// that is reached only as lockB[int](s, 1) is on the call graph, so the
// inversion it closes is a cycle.
func TestFlowExplicitInstantiation(t *testing.T) {
	const src = `package genericm

import "sync"

type S struct{ a, b sync.Mutex }

func lockB[T any](s *S, _ T) {
	s.b.Lock()
	s.b.Unlock()
}

func (s *S) one() {
	s.a.Lock()
	lockB[int](s, 1)
	s.a.Unlock()
}

func (s *S) two() {
	s.b.Lock()
	s.a.Lock()
	s.a.Unlock()
	s.b.Unlock()
}
`
	pkg := writePackage(t, "generic_instantiation", map[string]string{"a.go": src})
	fs := runOn(t, "lockorder", pkg, Config{LockOrderScope: []string{pkg.Path}})
	if len(fs) != 1 || !strings.Contains(fs[0].Message, "via genericm.lockB") {
		t.Fatalf("got %v, want the a/b cycle through lockB[int]", fs)
	}
}

// TestMutationGoLeak: a goroutine joined by draining its result channel
// is fine; deleting the drain leaves it parked forever and must be
// flagged.
func TestMutationGoLeak(t *testing.T) {
	const clean = `package goleakm

func run() int {
	ch := make(chan int)
	go func() {
		ch <- 1
	}()
	return <-ch
}
`
	mutated := strings.Replace(clean, "return <-ch", "return 0", 1)
	if mutated == clean {
		t.Fatal("mutation did not apply")
	}

	cfg := func(p string) Config { return Config{GoLeakScope: []string{p}} }

	pkg := writePackage(t, "goleak_clean", map[string]string{"a.go": clean})
	if fs := runOn(t, "goleak", pkg, cfg(pkg.Path)); len(fs) != 0 {
		t.Errorf("clean variant produced findings: %v", fs)
	}

	pkg = writePackage(t, "goleak_mutated", map[string]string{"a.go": mutated})
	fs := runOn(t, "goleak", pkg, cfg(pkg.Path))
	if len(fs) == 0 {
		t.Fatal("unwaited goroutine went undetected")
	}
	if !strings.Contains(fs[0].Message, "no provable termination path") {
		t.Errorf("unexpected message: %q", fs[0].Message)
	}
}

// TestMutationAtomic: a typed-atomic field is fine; turning it back
// into a plain int64 bumped through atomic.AddInt64 shares a word that
// code can also touch plainly, and must be flagged once, at the call.
func TestMutationAtomic(t *testing.T) {
	const clean = `package atomicm

import "sync/atomic"

type C struct{ n atomic.Int64 }

func (c *C) inc() { c.n.Add(1) }
`
	mutated := strings.NewReplacer(
		"n atomic.Int64", "n int64",
		"c.n.Add(1)", "atomic.AddInt64(&c.n, 1)",
	).Replace(clean)
	if !strings.Contains(mutated, "atomic.AddInt64(&c.n, 1)") || strings.Contains(mutated, "atomic.Int64") {
		t.Fatal("mutation did not apply")
	}

	cfg := func(p string) Config { return Config{AtomicScope: []string{p}} }

	pkg := writePackage(t, "atomic_clean", map[string]string{"a.go": clean})
	if fs := runOn(t, "atomicdiscipline", pkg, cfg(pkg.Path)); len(fs) != 0 {
		t.Errorf("clean variant produced findings: %v", fs)
	}

	pkg = writePackage(t, "atomic_mutated", map[string]string{"a.go": mutated})
	fs := runOn(t, "atomicdiscipline", pkg, cfg(pkg.Path))
	if len(fs) != 1 {
		t.Fatalf("mutated variant: got %d findings, want 1: %v", len(fs), fs)
	}
	if !strings.Contains(fs[0].Message, "atomic.AddInt64 on &c.n") {
		t.Errorf("unexpected message: %q", fs[0].Message)
	}
}

// TestTestFileLoading covers the loader's test-file surface: in-package
// _test.go files join the analysis variant, a test-only directory (the
// module root's integration suite) loads, and external foo_test
// packages come back as their own units under the real import path.
func TestTestFileLoading(t *testing.T) {
	loader := testLoader(t)

	pkg, err := loader.Load("soc/internal/wal")
	if err != nil {
		t.Fatalf("loading soc/internal/wal: %v", err)
	}
	if len(pkg.TestFiles) == 0 {
		t.Error("soc/internal/wal: no test files in the analysis variant")
	}
	if len(pkg.Files) == 0 {
		t.Error("soc/internal/wal: sources missing from the analysis variant")
	}

	root, err := loader.Load("soc")
	if err != nil {
		t.Fatalf("loading test-only module root: %v", err)
	}
	if len(root.Files) != 0 || len(root.TestFiles) == 0 {
		t.Errorf("module root: got %d source files and %d test files, want 0 and >0",
			len(root.Files), len(root.TestFiles))
	}

	xpkg, err := loader.ExternalTests("soc/internal/parallel")
	if err != nil {
		t.Fatalf("external tests of soc/internal/parallel: %v", err)
	}
	if xpkg == nil {
		t.Fatal("soc/internal/parallel has an example_test.go but no external test unit")
	}
	if !xpkg.ExternalTest || xpkg.Path != "soc/internal/parallel" {
		t.Errorf("external unit: ExternalTest=%v Path=%q", xpkg.ExternalTest, xpkg.Path)
	}
	if xpkg.Types.Name() != "parallel_test" {
		t.Errorf("external unit package name = %q, want parallel_test", xpkg.Types.Name())
	}
}

// TestAnalyzerTestsReachTestFiles: the goleaktests fixture's leak lives
// in its _test.go file, so an analyzer that sets Tests (goleak) must
// flag it there.
func TestAnalyzerTestsReachTestFiles(t *testing.T) {
	loader := testLoader(t)
	path := "soc/internal/lint/testdata/src/goleaktests"
	pkg, err := loader.Load(path)
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	if len(pkg.TestFiles) == 0 {
		t.Fatal("fixture's _test.go was not loaded")
	}

	fs := runOn(t, "goleak", pkg, Config{GoLeakScope: []string{path}})
	if len(fs) == 0 {
		t.Fatal("leak in _test.go went undetected with test analysis on")
	}
	if !strings.HasSuffix(fs[0].Pos.Filename, "_test.go") {
		t.Errorf("finding not in a test file: %s", fs[0])
	}
}

// TestRuntimeBudget asserts the shared full-module soclint run —
// loading from a cold loader, building the flow graph, running every
// analyzer over every unit — finishes inside the budget, so
// interprocedural analysis cannot quietly turn `make lint` into a
// coffee break. Override the budget with SOCLINT_BUDGET (a
// time.ParseDuration string) on slow machines.
func TestRuntimeBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module analysis; skipped in -short")
	}
	budget := 90 * time.Second
	if s := os.Getenv("SOCLINT_BUDGET"); s != "" {
		d, err := time.ParseDuration(s)
		if err != nil {
			t.Fatalf("bad SOCLINT_BUDGET %q: %v", s, err)
		}
		budget = d
	}

	run := fullModuleRun(t)
	t.Logf("full-module run: %d units in %s (budget %s)", run.units, run.elapsed.Round(time.Millisecond), budget)
	if run.elapsed > budget {
		t.Errorf("full-module analysis took %s, over the %s budget", run.elapsed, budget)
	}
}
