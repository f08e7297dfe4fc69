package lint

import (
	"go/ast"
	"go/types"

	"soc/internal/lint/flow"
)

// ErrDiscard forbids silently dropping errors in service and handler
// code (the packages listed in Config.ErrDiscardScope). Two shapes are
// findings:
//
//   - a bare call statement whose callee returns an error among its
//     results (`f(x)` where f returns error) — the caller cannot even
//     know the operation failed;
//   - an assignment discarding every result of a call that returns an
//     error (`_ = f(x)`, `_, _ = g(x)`).
//
// Idiomatic, genuinely-uninformative errors are exempt: deferred and
// `go` calls, Close methods, the fmt print family, and best-effort
// writes whose destination is an http.ResponseWriter that has already
// committed its status (including io.Copy draining into io.Discard).
// Anything else that is deliberately dropped must carry an
// //soclint:ignore errdiscard directive stating why.
var ErrDiscard = &Analyzer{
	Name: "errdiscard",
	Doc:  "forbids discarding errors in service/handler code",
	Run:  runErrDiscard,
}

func runErrDiscard(pass *Pass) error {
	if !InScope(pass.Path, pass.Config.ErrDiscardScope) {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				call, ok := ast.Unparen(n.X).(*ast.CallExpr)
				if !ok || !returnsError(pass, call) || exemptDiscard(pass, call) {
					return true
				}
				pass.Reportf(n.Pos(), "result of %s includes an error that is silently dropped; handle it, assign it, or add a //soclint:ignore with the reason", callName(pass.Info, call))
			case *ast.AssignStmt:
				if !allBlank(n.Lhs) || len(n.Rhs) != 1 {
					return true
				}
				call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr)
				if !ok || !returnsError(pass, call) || exemptDiscard(pass, call) {
					return true
				}
				pass.Reportf(n.Pos(), "error from %s discarded with blank assignment; handle it or add a //soclint:ignore with the reason", callName(pass.Info, call))
			}
			return true
		})
	}
	return nil
}

func allBlank(exprs []ast.Expr) bool {
	for _, e := range exprs {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name != "_" {
			return false
		}
	}
	return len(exprs) > 0
}

// returnsError reports whether any result of call has type error.
func returnsError(pass *Pass, call *ast.CallExpr) bool {
	t := pass.Info.TypeOf(call)
	if t == nil {
		return false
	}
	if tuple, ok := t.(*types.Tuple); ok {
		for i := 0; i < tuple.Len(); i++ {
			if isErrorType(tuple.At(i).Type()) {
				return true
			}
		}
		return false
	}
	return isErrorType(t)
}

var errorType = types.Universe.Lookup("error").Type()

func isErrorType(t types.Type) bool { return types.Identical(t, errorType) }

// exemptDiscard encodes the idiomatic exceptions listed in the analyzer
// doc: errors no caller can act on.
func exemptDiscard(pass *Pass, call *ast.CallExpr) bool {
	fn := flow.CalleeFunc(pass.Info, call)
	if fn != nil {
		// Close errors on teardown paths are conventionally dropped.
		if fn.Name() == "Close" {
			return true
		}
		// Writers documented to never return an error: strings.Builder,
		// bytes.Buffer, and hash.Hash ("Write ... never returns an
		// error"). Their error results exist only to satisfy io.Writer.
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			recv := sig.Recv().Type()
			if IsNamedType(recv, "strings", "Builder") ||
				IsNamedType(recv, "bytes", "Buffer") ||
				IsNamedType(recv, "hash", "Hash") {
				return true
			}
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			recv := pass.Info.TypeOf(sel.X)
			if IsNamedType(recv, "strings", "Builder") ||
				IsNamedType(recv, "bytes", "Buffer") ||
				IsNamedType(recv, "hash", "Hash") {
				return true
			}
		}
		// The fmt print family returns (n, err) nobody checks.
		if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
			return true
		}
		// Draining a response body: io.Copy(io.Discard, ...).
		if IsPkgFunc(fn, "io", "Copy") && len(call.Args) > 0 {
			if sel, ok := ast.Unparen(call.Args[0]).(*ast.SelectorExpr); ok {
				if obj, ok := pass.Info.Uses[sel.Sel]; ok && obj.Pkg() != nil &&
					obj.Pkg().Path() == "io" && obj.Name() == "Discard" {
					return true
				}
			}
		}
		// Best-effort writes into an already-committed HTTP response:
		// the receiver or an argument is an http.ResponseWriter, and a
		// write failure there has no recovery.
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			if isResponseWriter(sig.Recv().Type()) {
				return true
			}
		}
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if isResponseWriter(pass.Info.TypeOf(sel.X)) {
			return true
		}
	}
	for _, arg := range call.Args {
		if isResponseWriter(pass.Info.TypeOf(arg)) {
			return true
		}
	}
	return false
}

func isResponseWriter(t types.Type) bool {
	return t != nil && IsNamedType(t, "net/http", "ResponseWriter")
}
