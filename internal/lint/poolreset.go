package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"soc/internal/lint/flow"
)

// PoolReset enforces the pooling discipline of the hot-path message plane
// (DESIGN.md "Hot-path message plane"): every sync.Pool.Put site must
// reset the pooled value first, or a request's params can leak into the
// next request that Gets the same object. A reset is any of, in a
// statement preceding the Put within an enclosing block of the same
// function:
//
//   - the clear builtin applied to the value
//   - a method call on the value whose name contains "reset" or "clear"
//     (Reset, resetForReuse, ...)
//   - a function call whose name contains "reset" or "clear" taking the
//     value (or its address) as an argument
//   - an assignment to the value or through its pointer, which covers the
//     truncation idiom *bp = (*bp)[:0]
//
// Puts of non-identifier expressions (freshly constructed values, pool
// pre-warming) carry no stale state and are accepted.
var PoolReset = &Analyzer{
	Name: "poolreset",
	Doc:  "requires every sync.Pool.Put site to reset the pooled value first",
	Run:  runPoolReset,
}

func runPoolReset(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := flow.CalleeFunc(pass.Info, call)
			if !IsMethod(fn, "sync", "Pool", "Put") || len(call.Args) != 1 {
				return true
			}
			obj := putTarget(pass.Info, call.Args[0])
			if obj == nil {
				return true // fresh value: nothing retained to reset
			}
			if !resetPrecedes(pass, file, call, obj) {
				pass.Reportf(call.Pos(), "sync.Pool.Put(%s) without resetting %s first: clear/truncate it or call its reset method so stale state cannot leak into the next Get", obj.Name(), obj.Name())
			}
			return true
		})
	}
	return nil
}

// putTarget resolves the Put argument to the variable being pooled: an
// identifier, optionally dereferenced. Anything else — composite
// literals, calls, field selectors, and address-of expressions (the
// pre-warming idiom Put(&fresh)) — is treated as untracked.
func putTarget(info *types.Info, e ast.Expr) types.Object {
	e = ast.Unparen(e)
	if se, ok := e.(*ast.StarExpr); ok {
		e = ast.Unparen(se.X)
	}
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	return info.ObjectOf(id)
}

// sameObj reports whether e names obj, looking through parens, & and *
// (so resetHelper(&v) counts as touching v).
func sameObj(info *types.Info, e ast.Expr, obj types.Object) bool {
	e = ast.Unparen(e)
	if ue, ok := e.(*ast.UnaryExpr); ok && ue.Op == token.AND {
		e = ast.Unparen(ue.X)
	}
	if se, ok := e.(*ast.StarExpr); ok {
		e = ast.Unparen(se.X)
	}
	id, ok := e.(*ast.Ident)
	return ok && info.ObjectOf(id) == obj
}

// resetPrecedes reports whether some statement before the Put call, in
// any enclosing statement list up to the function boundary, resets obj.
func resetPrecedes(pass *Pass, file *ast.File, call *ast.CallExpr, obj types.Object) bool {
	path := enclosingPath(file, call)
	for i := len(path) - 1; i >= 0; i-- {
		var list []ast.Stmt
		switch n := path[i].(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			// A closure may run long after surrounding statements did;
			// only resets inside the same function body count.
			return false
		case *ast.BlockStmt:
			list = n.List
		case *ast.CaseClause:
			list = n.Body
		case *ast.CommClause:
			list = n.Body
		default:
			continue
		}
		for _, st := range list {
			if st.End() <= call.Pos() && resetsObj(pass, st, obj) {
				return true
			}
		}
	}
	return false
}

// enclosingPath returns the chain of nodes from file down to target.
func enclosingPath(file *ast.File, target ast.Node) []ast.Node {
	var stack, path []ast.Node
	ast.Inspect(file, func(n ast.Node) bool {
		if path != nil {
			return false
		}
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		if n == target {
			path = append([]ast.Node(nil), stack...)
			return false
		}
		return true
	})
	return path
}

// resetsObj reports whether st is a recognized reset of obj.
func resetsObj(pass *Pass, st ast.Stmt, obj types.Object) bool {
	switch s := st.(type) {
	case *ast.ExprStmt:
		return callResets(pass, s.X, obj)
	case *ast.AssignStmt:
		for _, lhs := range s.Lhs {
			e := ast.Unparen(lhs)
			if se, ok := e.(*ast.StarExpr); ok {
				e = ast.Unparen(se.X)
			}
			if id, ok := e.(*ast.Ident); ok && pass.Info.ObjectOf(id) == obj {
				return true
			}
		}
	}
	return false
}

func callResets(pass *Pass, e ast.Expr, obj types.Object) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fun.Name == "clear" && len(call.Args) == 1 && sameObj(pass.Info, call.Args[0], obj) {
			return true
		}
		if nameSaysReset(fun.Name) {
			for _, a := range call.Args {
				if sameObj(pass.Info, a, obj) {
					return true
				}
			}
		}
	case *ast.SelectorExpr:
		if nameSaysReset(fun.Sel.Name) && sameObj(pass.Info, fun.X, obj) {
			return true
		}
	}
	return false
}

func nameSaysReset(name string) bool {
	l := strings.ToLower(name)
	return strings.Contains(l, "reset") || strings.Contains(l, "clear")
}
