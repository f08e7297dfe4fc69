package lint

import (
	"go/ast"

	"soc/internal/lint/flow"
)

// CtxPropagate enforces context propagation: a function that already
// holds a request context — a context.Context parameter, or an
// *http.Request whose Context() is one method call away — must thread it
// to its callees. Minting context.Background()/context.TODO() inside
// such a function silently detaches the call path from cancellation and
// deadlines, exactly the drift the resilient client's timeouts depend on
// not happening; http.NewRequest does the same one layer down.
//
// The request half goes one step further: such a function builds
// outbound requests with callplane.NewRequest, the call plane's single
// sanctioned construction site, not http.NewRequestWithContext. The two
// are identical except that NewRequest injects the caller's trace
// context into the wire headers, so a raw NewRequestWithContext is
// exactly a hop where distributed traces silently break. The callplane
// package itself (Config.CallPlanePath) is exempt, and an empty
// CallPlanePath turns this half off.
//
// Closures inherit the surrounding function's context obligation.
// Deliberately detached work should use context.WithoutCancel(ctx) so
// values still flow; deliberately untraced egress (health probes, code
// that would import-cycle with callplane) carries an //soclint:ignore
// directive explaining why.
var CtxPropagate = &Analyzer{
	Name: "ctxpropagate",
	Doc:  "forbids context.Background()/TODO(), http.NewRequest and (outside the call plane) http.NewRequestWithContext in functions that already hold a context",
	Run:  runCtxPropagate,
}

func runCtxPropagate(pass *Pass) error {
	traced := pass.Config.CallPlanePath != "" && pass.Path != pass.Config.CallPlanePath
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if ok && fd.Body != nil {
				checkCtxBody(pass, fd.Body, holdsCtx(pass, fd.Type), traced)
			}
		}
	}
	return nil
}

// holdsCtx reports whether the function type has a parameter giving it a
// live context: a context.Context, or an *http.Request.
func holdsCtx(pass *Pass, ft *ast.FuncType) bool {
	if ft == nil || ft.Params == nil {
		return false
	}
	for _, field := range ft.Params.List {
		t := pass.Info.TypeOf(field.Type)
		if t == nil {
			continue
		}
		if IsNamedType(t, "context", "Context") || IsNamedType(t, "net/http", "Request") {
			return true
		}
	}
	return false
}

// checkCtxBody walks one function body; traced reports whether raw
// http.NewRequestWithContext is forbidden in this package.
func checkCtxBody(pass *Pass, body ast.Node, held, traced bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			checkCtxBody(pass, n.Body, held || holdsCtx(pass, n.Type), traced)
			return false
		case *ast.CallExpr:
			if !held {
				return true
			}
			fn := flow.CalleeFunc(pass.Info, n)
			switch {
			case IsPkgFunc(fn, "context", "Background"), IsPkgFunc(fn, "context", "TODO"):
				pass.Reportf(n.Pos(), "context.%s() inside a function that already holds a context; thread the caller's ctx (or context.WithoutCancel(ctx) for deliberately detached work)", fn.Name())
			case IsPkgFunc(fn, "net/http", "NewRequest"):
				pass.Reportf(n.Pos(), "http.NewRequest drops the caller's context; use callplane.NewRequest")
			case traced && IsPkgFunc(fn, "net/http", "NewRequestWithContext"):
				pass.Reportf(n.Pos(), "http.NewRequestWithContext bypasses the call plane (no trace context on the wire); use callplane.NewRequest")
			}
		}
		return true
	})
}
