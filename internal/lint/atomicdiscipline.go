package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"soc/internal/lint/flow"
)

// AtomicDiscipline keeps shared words out of reach of plain access: a
// call to a sync/atomic word function may only take &x or &x[i], where x
// is a local variable of the calling function. Anything else — a field
// (even of a local struct), a package-level variable, a pointer value
// such as a parameter — is reported at the call: a word shared beyond one
// function belongs in a typed atomic (atomic.Int64, atomic.Pointer[T],
// ...), whose API makes a plain read or write impossible to write.
//
// A local counter bumped from goroutines and read after they are joined
// stays allowed. A word that is accessed both atomically and plainly
// needs a word-function call on a field or package-level variable,
// directly or through a pointer handed to a helper, and both forms are
// reported here, so the rule needs no module-wide view.
var AtomicDiscipline = &Analyzer{
	Name:  "atomicdiscipline",
	Doc:   "sync/atomic word functions take only the address of a local variable; shared words are typed atomics",
	Tests: true,
	Run:   runAtomicDiscipline,
}

func runAtomicDiscipline(pass *Pass) error {
	if !InScope(pass.Path, pass.Config.AtomicScope) {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := flow.CalleeFunc(pass.Info, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" || !isAtomicWordFunc(fn) {
				return true
			}
			if !localAddr(pass.Info, call.Args[0]) {
				pass.Reportf(call.Args[0].Pos(), "atomic.%s on %s, which is not a local variable of this function: use a typed atomic (atomic.Int64, atomic.Pointer[T], ...)", fn.Name(), types.ExprString(call.Args[0]))
			}
			return true
		})
	}
	return nil
}

// localAddr reports whether e is &x or &x[i] for a local variable x.
func localAddr(info *types.Info, e ast.Expr) bool {
	u, ok := ast.Unparen(e).(*ast.UnaryExpr)
	if !ok || u.Op != token.AND {
		return false
	}
	x := ast.Unparen(u.X)
	if ix, ok := x.(*ast.IndexExpr); ok {
		x = ast.Unparen(ix.X)
	}
	id, ok := x.(*ast.Ident)
	if !ok {
		return false
	}
	v, ok := info.Uses[id].(*types.Var)
	return ok && !v.IsField() && v.Pkg() != nil && v.Parent() != v.Pkg().Scope()
}

// isAtomicWordFunc matches the pointer-taking word functions of
// sync/atomic (Add*, Load*, Store*, Swap*, CompareAndSwap*, And*, Or*).
func isAtomicWordFunc(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil {
		return false
	}
	for _, prefix := range []string{"Add", "Load", "Store", "Swap", "CompareAndSwap", "And", "Or"} {
		if strings.HasPrefix(fn.Name(), prefix) {
			return true
		}
	}
	return false
}
