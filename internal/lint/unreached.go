package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"soc/internal/lint/flow"
)

// Unreached reports every function and method declared outside _test.go
// files that no program of the module can run: the module's roots are
// each package main's main, every init, every function a package-level
// initializer names, and every method through which a module type
// satisfies an interface of the standard library (http.Handler,
// fmt.Stringer, error, context's AfterFunc hook, types.Importer), since
// the standard library calls those, not module code. From the roots the
// walk follows the flow graph's call edges of every kind and every
// function or method a reached body refers to as a value
// (http.HandleFunc(p, s.serve), sort.Slice(x, less)). Test code is
// neither a root nor an edge source, so a function only tests call is
// reported. A graph with no main in it reports nothing, and neither does
// a module run that left some module package out: the unloaded packages
// may hold the only callers of what the loaded ones declare.
//
// The walk over-approximates reachability — dynamic calls reach every
// address-taken function of the same arity, interface calls every module
// method that could satisfy them, and a stdlib interface need only be
// satisfied, not converted to — so it errs toward missing dead code.
// What it cannot see (a method looked up by reflection or a
// text/template, a //go:linkname target, a generic type's method called
// only through an interface) it reports, and keeping such code takes a
// directive naming why.
var Unreached = &Analyzer{
	Name: "unreached",
	Doc:  "non-test functions and methods that no main, init, package-level initializer or stdlib interface reaches",
	Flow: true,
	Run:  runUnreached,
}

func runUnreached(pass *Pass) error {
	if pass.partial {
		return nil
	}
	g := pass.FlowGraph()
	dead := g.Memo("unreached", func() any { return unreachedFuncs(g, true) }).([]*flow.Func)
	for _, f := range dead {
		if pass.InFiles(f.Decl.Name.Pos()) {
			pass.Reportf(f.Decl.Name.Pos(), "%s is reached from no main, init or package-level initializer; delete it, or keep it with a directive naming why", f.Name)
		}
	}
	return nil
}

// unreachedFuncs walks g from its roots and returns the declared non-test
// functions the walk misses, in ID order; none when g holds no main.
// stdlibRoots switches the stdlib-interface root rule (off only to prove,
// in a test, that the rule is what reaches such methods).
func unreachedFuncs(g *flow.Graph, stdlibRoots bool) []*flow.Func {
	inTest := func(f *flow.Func) bool {
		if f.Lit != nil {
			return isTestFile(g, f.Lit.Pos())
		}
		return isTestFile(g, f.Decl.Pos())
	}
	reached := map[*flow.Func]bool{}
	var queue []*flow.Func
	reach := func(f *flow.Func) {
		if f != nil && !reached[f] && !inTest(f) {
			reached[f] = true
			queue = append(queue, f)
		}
	}
	refs := func(pkg *flow.Package, n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if fn, ok := pkg.Info.Uses[id].(*types.Func); ok {
					reach(g.FuncOf(fn))
				}
			}
			if lit, ok := n.(*ast.FuncLit); ok {
				reach(g.LitOf(lit))
			}
			return true
		})
	}

	hasMain := false
	for _, pkg := range g.Packages {
		for _, file := range pkg.Files {
			if isTestFile(g, file.Pos()) {
				continue
			}
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Recv != nil {
						continue
					}
					isMain := d.Name.Name == "main" && file.Name.Name == "main"
					hasMain = hasMain || isMain
					if isMain || d.Name.Name == "init" {
						reach(g.FuncOf(pkg.Info.Defs[d.Name].(*types.Func)))
					}
				case *ast.GenDecl:
					refs(pkg, d)
				}
			}
		}
	}
	if !hasMain {
		return nil
	}
	if stdlibRoots {
		for _, m := range stdlibInterfaceMethods(g) {
			reach(m)
		}
	}
	for len(queue) > 0 {
		f := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, c := range f.Calls {
			reach(c.Callee)
		}
		if body := f.Body(); body != nil {
			refs(f.Pkg, body)
		}
	}

	var dead []*flow.Func
	for _, f := range g.SortedFuncs() {
		if f.Decl != nil && f.Decl.Body != nil && f.Decl.Name.Name != "_" && !reached[f] && !inTest(f) {
			dead = append(dead, f)
		}
	}
	return dead
}

// stdlibInterfaceMethods returns the module methods through which a
// module type implements an interface declared in a standard-library
// package the module loaded, or the predeclared error.
func stdlibInterfaceMethods(g *flow.Graph) []*flow.Func {
	modRoots := map[string]bool{}
	var pkgs []*types.Package
	for _, pkg := range g.Packages {
		modRoots[strings.Split(pkg.Path, "/")[0]] = true
		pkgs = append(pkgs, pkg.Types)
	}
	// Everything the module's packages import, transitively, outside the
	// module's own tree.
	std := map[*types.Package]bool{}
	for len(pkgs) > 0 {
		p := pkgs[len(pkgs)-1]
		pkgs = pkgs[:len(pkgs)-1]
		for _, imp := range p.Imports() {
			first := strings.Split(imp.Path(), "/")[0]
			if !std[imp] && !modRoots[first] && !strings.Contains(first, ".") {
				std[imp] = true
				pkgs = append(pkgs, imp)
			}
		}
	}
	out := g.MethodsFor(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	for p := range std {
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				out = append(out, g.MethodsFor(it)...)
			}
		}
	}
	return out
}

func isTestFile(g *flow.Graph, pos token.Pos) bool {
	return strings.HasSuffix(g.Fset.Position(pos).Filename, "_test.go")
}
