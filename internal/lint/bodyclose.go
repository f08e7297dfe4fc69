package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"soc/internal/lint/flow"
)

// BodyClose verifies that every *http.Response obtained from a net/http
// client call has its Body closed (or demonstrably escapes to code that
// can close it) within the function that made the call. Unclosed bodies
// leak the underlying connection, which under the crawler's and resilient
// client's request volumes exhausts the transport's connection pool —
// §V's "services are often offline" failure mode self-inflicted.
//
// The analysis is per-function and syntactic over the typechecked AST:
// a response is "handled" when the function contains resp.Body.Close()
// (deferred or direct), returns resp, or passes resp (not just a field
// of it) to another function, stores it in a structure, or sends it on a
// channel. Discarding the response entirely (blank identifier or bare
// call statement) is always a finding.
var BodyClose = &Analyzer{
	Name: "bodyclose",
	Doc:  "requires http.Response bodies from client calls to be closed on all paths",
	Run:  runBodyClose,
}

func runBodyClose(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkBodyClose(pass, fn.Body)
				}
			case *ast.FuncLit:
				// Each function literal is its own unit: collection is
				// shallow, so the enclosing function's walk does not
				// double-report what this one owns.
				checkBodyClose(pass, fn.Body)
			}
			return true
		})
	}
	return nil
}

// respCall reports whether call returns an *http.Response the caller must
// close: from a net/http client entry point, or from the call plane's Do.
func respCall(pass *Pass, call *ast.CallExpr) bool {
	fn := flow.CalleeFunc(pass.Info, call)
	return httpClientCall(fn) ||
		(pass.Config.CallPlanePath != "" && IsPkgFunc(fn, pass.Config.CallPlanePath, "Do"))
}

// httpClientCall reports whether fn is a net/http client entry point: one
// of http.Client's request methods or the package-level shorthand for it.
func httpClientCall(fn *types.Func) bool {
	if fn == nil {
		return false
	}
	switch fn.Name() {
	case "Do", "Get", "Post", "PostForm", "Head":
	default:
		return false
	}
	if IsMethod(fn, "net/http", "Client", fn.Name()) {
		return true
	}
	return IsPkgFunc(fn, "net/http", fn.Name())
}

func checkBodyClose(pass *Pass, body *ast.BlockStmt) {
	// Collect the response-producing calls assigned in this function
	// (not inside nested function literals — those get their own check).
	type respVar struct {
		call *ast.CallExpr
		obj  types.Object // nil when discarded
	}
	var resps []respVar
	inspectShallow(body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || !respCall(pass, call) {
					continue
				}
				// resp, err := c.Do(req): the response is Lhs[0] when the
				// call is the sole RHS; otherwise position-matched.
				idx := 0
				if len(n.Rhs) == len(n.Lhs) {
					idx = i
				}
				if idx >= len(n.Lhs) {
					continue
				}
				id, ok := n.Lhs[idx].(*ast.Ident)
				if !ok || id.Name == "_" {
					pass.Reportf(call.Pos(), "response body never closed: result of %s discarded", callName(pass.Info, call))
					continue
				}
				obj := pass.Info.Defs[id]
				if obj == nil {
					obj = pass.Info.Uses[id]
				}
				resps = append(resps, respVar{call: call, obj: obj})
			}
		case *ast.ExprStmt:
			if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok && respCall(pass, call) {
				pass.Reportf(call.Pos(), "response body never closed: result of %s discarded", callName(pass.Info, call))
			}
		}
	})

	for _, rv := range resps {
		if rv.obj == nil || respHandled(pass, body, rv.obj) {
			continue
		}
		pass.Reportf(rv.call.Pos(), "response body never closed: call %s then defer resp.Body.Close() (or return/hand off the response)", callName(pass.Info, rv.call))
	}
}

// respHandled scans the whole function body (including nested closures,
// since a deferred closure may close the body) for a close or escape of
// the response object.
func respHandled(pass *Pass, body *ast.BlockStmt, obj types.Object) bool {
	handled := false
	ast.Inspect(body, func(n ast.Node) bool {
		if handled {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			// resp.Body.Close()
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Close" {
				if inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr); ok && inner.Sel.Name == "Body" {
					if usesObj(pass, inner.X, obj) {
						handled = true
						return false
					}
				}
			}
			// resp passed whole to another function.
			for _, arg := range n.Args {
				if usesObj(pass, arg, obj) {
					handled = true
					return false
				}
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if usesObj(pass, res, obj) {
					handled = true
					return false
				}
			}
		case *ast.SendStmt:
			if usesObj(pass, n.Value, obj) {
				handled = true
				return false
			}
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					elt = kv.Value
				}
				if usesObj(pass, elt, obj) {
					handled = true
					return false
				}
			}
		case *ast.AssignStmt:
			// Stored somewhere reachable (field, map, other variable).
			for _, rhs := range n.Rhs {
				if usesObj(pass, rhs, obj) {
					handled = true
					return false
				}
			}
		}
		return true
	})
	return handled
}

// usesObj reports whether expr is (after unwrapping parens and a single
// address-of) exactly the identifier bound to obj.
func usesObj(pass *Pass, expr ast.Expr, obj types.Object) bool {
	e := ast.Unparen(expr)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = ast.Unparen(u.X)
	}
	id, ok := e.(*ast.Ident)
	return ok && pass.Info.Uses[id] == obj
}

func callName(info *types.Info, call *ast.CallExpr) string {
	if fn := flow.CalleeFunc(info, call); fn != nil {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			return "(" + sig.Recv().Type().String() + ")." + fn.Name()
		}
		if fn.Pkg() != nil {
			return fn.Pkg().Name() + "." + fn.Name()
		}
		return fn.Name()
	}
	return "call"
}

// inspectShallow walks n without descending into function literals.
func inspectShallow(n ast.Node, visit func(ast.Node)) {
	ast.Inspect(n, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}
