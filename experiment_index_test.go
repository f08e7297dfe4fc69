package soc

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestExperimentIndexResolves keeps DESIGN.md's per-experiment index
// honest: every `Benchmark…` a row names is a function in bench_test.go
// and every `socbench -exp NAME` is in cmd/socbench's catalog.
func TestExperimentIndexResolves(t *testing.T) {
	fset := token.NewFileSet()
	benchmarks := map[string]bool{}
	benchFile, err := parser.ParseFile(fset, "bench_test.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, decl := range benchFile.Decls {
		if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Benchmark") {
			benchmarks[fn.Name.Name] = true
		}
	}

	// The catalog is a slice literal of {name, desc, run} rows.
	experiments := map[string]bool{}
	mainFile, err := parser.ParseFile(fset, "cmd/socbench/main.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, decl := range mainFile.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Name.Name != "catalog" {
			continue
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			row, ok := n.(*ast.CompositeLit)
			if !ok || row.Type != nil || len(row.Elts) == 0 {
				return true
			}
			if lit, ok := row.Elts[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if name, err := strconv.Unquote(lit.Value); err == nil {
					experiments[name] = true
				}
			}
			return false
		})
	}
	if len(benchmarks) == 0 || len(experiments) == 0 {
		t.Fatalf("found %d benchmarks and %d socbench experiments; the sources moved", len(benchmarks), len(experiments))
	}

	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, index, found := strings.Cut(string(design), "## Per-experiment index\n")
	if !found {
		t.Fatal("DESIGN.md has no \"Per-experiment index\" section")
	}
	benchRef := regexp.MustCompile(`\bBenchmark\w+`)
	expRef := regexp.MustCompile(`socbench -exp (\w+)`)
	rows := 0
	for _, line := range strings.Split(index, "\n") {
		if strings.HasPrefix(line, "## ") {
			break
		}
		if !strings.HasPrefix(line, "| ") || strings.HasPrefix(line, "| Exp ") {
			continue
		}
		rows++
		id, _, _ := strings.Cut(strings.TrimPrefix(line, "| "), " ")
		benches, exps := benchRef.FindAllString(line, -1), expRef.FindAllStringSubmatch(line, -1)
		if len(benches)+len(exps) == 0 {
			t.Errorf("%s: the row names neither a benchmark nor a socbench experiment", id)
		}
		for _, name := range benches {
			if !benchmarks[name] {
				t.Errorf("%s: %s is not a function in bench_test.go", id, name)
			}
		}
		for _, m := range exps {
			if !experiments[m[1]] {
				t.Errorf("%s: socbench has no experiment %q", id, m[1])
			}
		}
	}
	if rows == 0 {
		t.Fatal("the per-experiment index has no rows")
	}
}
