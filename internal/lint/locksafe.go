package lint

import (
	"go/token"
	"go/types"

	"soc/internal/lint/flow"
)

// LockSafe forbids holding a mutex across a blocking operation inside
// the packages named by Config.LockBlockScope: time.Sleep, a channel
// send or receive, a select without a default clause,
// sync.WaitGroup.Wait, or a net/http client call. Holding a lock across
// any of these turns one slow or stuck peer into a package-wide stall —
// the convoy the reliability layer's bulkheads exist to prevent.
// sync.Cond.Wait is exempt (its contract requires the lock), as are
// non-blocking selects and operations inside `go` statements.
//
// It is a query over the flow summaries: the held set at each call and
// channel operation comes from flow's one lock-aware scan, so a function
// literal passed as an argument runs under its caller's locks and a
// deferred call under the locks still held at the defer. Copying a
// lock-bearing value is go vet's copylocks check, which `make lint` runs.
var LockSafe = &Analyzer{
	Name: "locksafe",
	Doc:  "forbids holding a mutex across a blocking operation (lock copies are go vet's copylocks)",
	Flow: true,
	Run:  runLockSafe,
}

func runLockSafe(pass *Pass) error {
	if !InScope(pass.Path, pass.Config.LockBlockScope) {
		return nil
	}
	for _, f := range pass.FlowGraph().SortedFuncs() {
		if f.Pkg.Path != pass.Path || f.Body() == nil || !pass.InFiles(f.Body().Pos()) {
			continue
		}
		for _, cu := range f.Summary.CallsUnder {
			if what := blockingCall(pass, cu.Call.Obj); what != "" {
				reportHeld(pass, cu.Call.Pos, cu.Held, what)
			}
		}
		selects := map[token.Pos]bool{}
		report := func(uses []flow.ChanUse, what string) {
			for _, u := range uses {
				switch {
				case u.NonBlocking:
				case u.Select == token.NoPos:
					reportHeld(pass, u.Pos, u.Held, what)
				case !selects[u.Select]:
					selects[u.Select] = true
					reportHeld(pass, u.Select, u.Held, "blocking select")
				}
			}
		}
		report(f.Summary.Sends, "channel send")
		report(f.Summary.Recvs, "channel receive")
	}
	return nil
}

func blockingCall(pass *Pass, fn *types.Func) string {
	switch {
	case fn == nil:
		return ""
	case IsPkgFunc(fn, "time", "Sleep"):
		return "time.Sleep"
	case IsMethod(fn, "sync", "WaitGroup", "Wait"):
		return "sync.WaitGroup.Wait"
	case IsMethod(fn, "net/http", "Client", fn.Name()) &&
		(fn.Name() == "Do" || fn.Name() == "Get" || fn.Name() == "Post" || fn.Name() == "PostForm" || fn.Name() == "Head"):
		return "http.Client." + fn.Name()
	case IsPkgFunc(fn, callPlanePath, "Do"):
		return "callplane.Do"
	case IsPkgFunc(fn, "net", "Dial"), IsPkgFunc(fn, "net", "DialTimeout"):
		return "net." + fn.Name()
	}
	return ""
}

func reportHeld(pass *Pass, pos token.Pos, held []flow.HeldLock, what string) {
	for _, h := range held {
		pass.Reportf(pos, "%s while holding %s; release the lock first (one stuck peer stalls every caller)", what, h.Expr)
	}
}
