package host

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestTraceParentParsedOncePerHop counts the places that parse an inbound
// traceparent (telemetry.ParseTraceParent and telemetry.FromHTTPHeader) in
// the non-test code of each hop a request crosses: the front door's one,
// the host's one in serve, which hands the result to the cache, the
// dispatch and the SOAP answer, and none in the SOAP binding, whose reader
// takes the trace from the host.
func TestTraceParentParsedOncePerHop(t *testing.T) {
	for dir, want := range map[string]int{"../cloud": 1, ".": 1, "../soap": 0} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		var sites []string
		fset := token.NewFileSet()
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, file, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
					if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "telemetry" &&
						(sel.Sel.Name == "ParseTraceParent" || sel.Sel.Name == "FromHTTPHeader") {
						sites = append(sites, fset.Position(call.Pos()).String())
					}
				}
				return true
			})
		}
		if len(sites) != want {
			t.Errorf("%s parses a traceparent at %d sites, want %d: %v", dir, len(sites), want, sites)
		}
	}
}
