// Soclint is the repository's static-analysis driver: it loads every
// requested package of this module from source (stdlib go/parser +
// go/types only), runs the soc/internal/lint analyzer registry over each
// one, and prints findings as file:line:col diagnostics. It exits 0 when
// the tree is clean, 1 when any finding (or malformed ignore directive)
// is reported, and 2 when loading or analysis itself fails.
//
// Usage:
//
//	soclint [flags] [packages]
//
// Packages follow `go build` conventions relative to the module root:
// `./...` (the default) analyzes the whole module, `./internal/...` a
// subtree, `./internal/soap` a single package.
//
//	-only a,b        run only the named analyzers
//	-json            one JSON object per finding on stdout (suppressed
//	                 findings included, carrying their ignore reason)
//	-notests a,b     exclude _test.go files from the named analyzers
//	-list            print the registered analyzers and exit
//
// Test files are part of the analyzed code: each package's in-package
// _test.go files join its analysis pass, and external test packages
// (package foo_test) are analyzed as their own units, for the analyzers
// that opt in (the concurrency ones — tests spawn goroutines and take
// locks too). Interprocedural analyzers share one module-wide flow graph
// built once per run. Wall-clock timing is always reported on stderr so
// `make lint` shows what the analysis costs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"soc/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// jsonFinding is the machine-readable record: one per line on stdout.
type jsonFinding struct {
	File      string `json:"file"`
	Line      int    `json:"line"`
	Column    int    `json:"column"`
	Analyzer  string `json:"analyzer"`
	Message   string `json:"message"`
	IgnoredBy string `json:"ignored_by,omitempty"`
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("soclint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	only := fs.String("only", "", "comma-separated analyzer names to run (default all)")
	jsonOut := fs.Bool("json", false, "emit one JSON object per finding (suppressed findings included)")
	noTests := fs.String("notests", "", "comma-separated analyzer names that must not see _test.go files")
	list := fs.Bool("list", false, "list analyzers and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := lint.DefaultAnalyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-18s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *only != "" {
		var selected []*lint.Analyzer
		for _, name := range strings.Split(*only, ",") {
			name = strings.TrimSpace(name)
			a, ok := lint.AnalyzerByName(name)
			if !ok {
				fmt.Fprintf(stderr, "soclint: unknown analyzer %q\n", name)
				return 2
			}
			selected = append(selected, a)
		}
		analyzers = selected
	}

	start := time.Now()
	moduleDir, err := lint.ModuleRoot()
	if err != nil {
		fmt.Fprintf(stderr, "soclint: %v\n", err)
		return 2
	}
	loader, err := lint.NewLoader(moduleDir)
	if err != nil {
		fmt.Fprintf(stderr, "soclint: %v\n", err)
		return 2
	}
	loader.Tests = true

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	paths, err := expandPatterns(loader, patterns)
	if err != nil {
		fmt.Fprintf(stderr, "soclint: %v\n", err)
		return 2
	}

	cfg := lint.DefaultConfig()
	if *noTests != "" {
		for _, name := range strings.Split(*noTests, ",") {
			if name = strings.TrimSpace(name); name != "" {
				cfg.NoTestAnalyzers = append(cfg.NoTestAnalyzers, name)
			}
		}
	}
	runner := &lint.Runner{Analyzers: analyzers, Config: cfg}
	all, units, err := runner.RunModule(loader, paths)
	if err != nil {
		fmt.Fprintf(stderr, "soclint: %v\n", err)
		return 2
	}

	relativize := func(f lint.Finding) lint.Finding {
		if rel, err := filepath.Rel(moduleDir, f.Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			f.Pos.Filename = rel
		}
		return f
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		encodeErr := error(nil)
		emit := func(f lint.Finding) {
			f = relativize(f)
			err := enc.Encode(jsonFinding{
				File: f.Pos.Filename, Line: f.Pos.Line, Column: f.Pos.Column,
				Analyzer: f.Analyzer, Message: f.Message, IgnoredBy: f.IgnoredBy,
			})
			if err != nil && encodeErr == nil {
				encodeErr = err
			}
		}
		for _, f := range all {
			emit(f)
		}
		suppressed := runner.Suppressed
		lint.SortFindings(suppressed)
		for _, f := range suppressed {
			emit(f)
		}
		if encodeErr != nil {
			fmt.Fprintf(stderr, "soclint: writing JSON output: %v\n", encodeErr)
			return 2
		}
	} else {
		for _, f := range all {
			f = relativize(f)
			fmt.Fprintf(stdout, "%s: [%s] %s\n", f.Pos, f.Analyzer, f.Message)
		}
	}
	fmt.Fprintf(stderr, "soclint: analyzed %d package(s) in %s\n", units, time.Since(start).Round(time.Millisecond))
	if len(all) > 0 {
		fmt.Fprintf(stderr, "soclint: %d finding(s)\n", len(all))
		return 1
	}
	return 0
}

// expandPatterns resolves go-style package patterns against the module.
func expandPatterns(loader *lint.Loader, patterns []string) ([]string, error) {
	modulePkgs, err := loader.ModulePackages()
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	var out []string
	add := func(p string) {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			for _, p := range modulePkgs {
				add(p)
			}
		case strings.HasSuffix(pat, "/..."):
			prefix := strings.TrimSuffix(pat, "/...")
			prefix = strings.TrimPrefix(prefix, "./")
			full := loader.ModulePath
			if prefix != "" && prefix != "." {
				full = loader.ModulePath + "/" + prefix
			}
			matched := false
			for _, p := range modulePkgs {
				if p == full || strings.HasPrefix(p, full+"/") {
					add(p)
					matched = true
				}
			}
			if !matched {
				return nil, fmt.Errorf("pattern %q matches no packages", pat)
			}
		default:
			p := strings.TrimPrefix(pat, "./")
			if p == "" || p == "." {
				p = loader.ModulePath
			} else if !strings.HasPrefix(p, loader.ModulePath) {
				p = loader.ModulePath + "/" + p
			}
			add(p)
		}
	}
	sort.Strings(out)
	return out, nil
}
