package lint

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// The tests share one Loader so the standard library is typechecked from
// source once, not once per test.
var (
	loaderOnce sync.Once
	loaderVal  *Loader
	loaderErr  error
)

func testLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() {
		root, err := ModuleRoot()
		if err != nil {
			loaderErr = err
			return
		}
		loaderVal, loaderErr = NewLoader(root)
		if loaderErr == nil {
			// Mirror the soclint driver: test files are analyzed too.
			loaderVal.Tests = true
		}
	})
	if loaderErr != nil {
		t.Fatalf("loader: %v", loaderErr)
	}
	return loaderVal
}

// loadFixture typechecks the testdata fixture package for the named
// analyzer under its module-local import path, with its _test.go files.
func loadFixture(t *testing.T, name string) *Package {
	t.Helper()
	pkg, err := testLoader(t).Load("soc/internal/lint/testdata/src/" + name)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	return pkg
}

// want is one expectation parsed from a fixture's `// want` comment.
type want struct {
	line    int
	re      *regexp.Regexp
	matched bool
}

var wantRE = regexp.MustCompile("// want `([^`]+)`")

// parseWants collects the `// want` expectations of every fixture file,
// keyed by the filename that findings will carry.
func parseWants(t *testing.T, dir string) map[string][]*want {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading fixture dir: %v", err)
	}
	out := map[string][]*want{}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("reading fixture: %v", err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRE.FindAllStringSubmatch(line, -1) {
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %q: %v", path, i+1, m[1], err)
				}
				out[path] = append(out[path], &want{line: i + 1, re: re})
			}
		}
	}
	return out
}

// TestGoldenFixtures runs each analyzer over its fixture package and
// checks the findings against the fixture's `// want` comments: every
// finding must be wanted, and every want must be found.
func TestGoldenFixtures(t *testing.T) {
	cases := []struct {
		analyzer string
		config   func(path string) Config
	}{
		{"bodyclose", func(string) Config { return Config{} }},
		{"callplanedo", func(p string) Config { return Config{BindingScope: []string{p}} }},
		{"clockdiscipline", func(p string) Config { return Config{ClockScope: []string{p}} }},
		{"ctxpropagate", func(string) Config { return Config{} }},
		{"noclientliteral", func(string) Config { return Config{} }},
		{"unsafeimport", func(string) Config { return Config{} }},
		{"poolreset", func(string) Config { return Config{} }},
		{"fsyncdiscipline", func(p string) Config { return Config{DurableScope: []string{p}} }},
		{"locksafe", func(p string) Config {
			return Config{LockBlockScope: []string{p}}
		}},
		{"errdiscard", func(p string) Config { return Config{ErrDiscardScope: []string{p}} }},
		{"lockorder", func(p string) Config { return Config{LockOrderScope: []string{p}} }},
		{"goleak", func(p string) Config {
			return Config{RequestPathScope: []string{p}}
		}},
		{"atomicdiscipline", func(string) Config { return Config{} }},
		{"unreached", func(string) Config { return Config{} }},
	}
	for _, tc := range cases {
		t.Run(tc.analyzer, func(t *testing.T) {
			analyzer, ok := AnalyzerByName(tc.analyzer)
			if !ok {
				t.Fatalf("no analyzer named %q", tc.analyzer)
			}
			pkg := loadFixture(t, tc.analyzer)
			runner := &Runner{Analyzers: []*Analyzer{analyzer}, Config: tc.config(pkg.Path)}
			findings, err := runner.RunPackage(pkg)
			if err != nil {
				t.Fatalf("running %s: %v", tc.analyzer, err)
			}
			wants := parseWants(t, pkg.Dir)
			for _, f := range findings {
				matched := false
				for _, w := range wants[f.Pos.Filename] {
					if !w.matched && w.line == f.Pos.Line && w.re.MatchString(f.Message) {
						w.matched = true
						matched = true
						break
					}
				}
				if !matched {
					t.Errorf("unexpected finding: %s", f)
				}
			}
			for file, ws := range wants {
				for _, w := range ws {
					if !w.matched {
						t.Errorf("missing finding at %s:%d matching %q", file, w.line, w.re)
					}
				}
			}
		})
	}
}

// TestIgnoreDirectives exercises the //soclint:ignore machinery: valid
// directives suppress their analyzer on the covered lines, directives
// for other analyzers do not, and a directive without a reason is
// itself a finding (want comments cannot express this, because a
// trailing comment would merge into the directive text).
func TestIgnoreDirectives(t *testing.T) {
	pkg := loadFixture(t, "directives")
	runner := &Runner{
		Analyzers: []*Analyzer{ErrDiscard},
		Config:    Config{ErrDiscardScope: []string{pkg.Path}},
	}
	findings, err := runner.RunPackage(pkg)
	if err != nil {
		t.Fatalf("running errdiscard: %v", err)
	}
	var malformed, discards int
	for _, f := range findings {
		switch f.Analyzer {
		case "soclint":
			malformed++
			if !strings.Contains(f.Message, "malformed ignore directive") {
				t.Errorf("unexpected soclint finding: %s", f)
			}
		case "errdiscard":
			discards++
		default:
			t.Errorf("unexpected finding: %s", f)
		}
	}
	// One malformed directive; two unsuppressed discards (below the
	// malformed directive and below the wrong-analyzer directive). The
	// two correctly suppressed sites must not appear.
	if malformed != 1 || discards != 2 || len(findings) != 3 {
		t.Errorf("got %d malformed + %d errdiscard findings (want 1 + 2):", malformed, discards)
		for _, f := range findings {
			t.Logf("  %s", f)
		}
	}
}

func TestInScope(t *testing.T) {
	prefixes := []string{"soc/internal/host", "soc/cmd/"}
	for path, want := range map[string]bool{
		"soc/internal/host":        true,
		"soc/internal/host/sub":    true,
		"soc/internal/hostile":     false,
		"soc/cmd/soclint":          true,
		"soc/cmd":                  false,
		"soc/internal/reliability": false,
	} {
		if got := InScope(path, prefixes); got != want {
			t.Errorf("InScope(%q) = %v, want %v", path, got, want)
		}
	}
}
