package lint

import (
	"go/ast"

	"soc/internal/lint/flow"
)

// CallPlaneDo keeps the binding packages (Config.BindingScope) on the
// call plane's one exchange path: a service request leaves them through
// callplane.Do, which sends it to the client's Transport once under a
// context deadline. Asking the http.Client itself — Do, Get, Head, Post,
// PostForm, or the package-level shorthands for the default client — puts
// net/http's redirect loop, cookie jar and per-request timeout goroutine
// back around every call, and follows a redirect an invocation must see
// as a failure. Code that follows redirects on purpose (the crawler, the
// health probes) lives outside the scope.
var CallPlaneDo = &Analyzer{
	Name: "callplanedo",
	Doc:  "requires callplane.Do (not http.Client.Do/Get/Head/Post) in the binding packages",
	Run:  runCallPlaneDo,
}

func runCallPlaneDo(pass *Pass) error {
	if !InScope(pass.Path, pass.Config.BindingScope) {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if fn := flow.CalleeFunc(pass.Info, call); httpClientCall(fn) {
				pass.Reportf(call.Pos(), "%s runs net/http's redirect and timeout machinery around a service exchange; use callplane.Do", fn.FullName())
			}
			return true
		})
	}
	return nil
}
