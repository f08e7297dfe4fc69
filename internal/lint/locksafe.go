package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"soc/internal/lint/flow"
)

// LockSafe enforces two concurrency disciplines:
//
//  1. No copying of values whose type (transitively) contains a
//     sync.Mutex, sync.RWMutex or sync.WaitGroup — by-value parameters,
//     receivers, plain assignments from existing values, and range
//     clauses are all checked. A copied lock guards nothing.
//
//  2. Inside the packages named by Config.LockBlockScope, no mutex may
//     be held across a blocking operation: time.Sleep, a channel send or
//     receive, a select without a default clause, sync.WaitGroup.Wait,
//     or a net/http client call. Holding a lock across any of these
//     turns one slow or stuck peer into a package-wide stall — the
//     convoy the reliability layer's bulkheads exist to prevent.
//     sync.Cond.Wait is exempt (its contract requires the lock), as are
//     non-blocking selects and operations inside `go` statements.
var LockSafe = &Analyzer{
	Name: "locksafe",
	Doc:  "forbids copying lock-bearing values and holding locks across blocking operations",
	Run:  runLockSafe,
}

func runLockSafe(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				checkLockCopyFunc(pass, n.Recv, n.Type)
				if n.Body != nil && InScope(pass.Path, pass.Config.LockBlockScope) {
					checkLockBlocking(pass, n.Body.List, map[string]token.Pos{})
				}
			case *ast.FuncLit:
				checkLockCopyFunc(pass, nil, n.Type)
				if InScope(pass.Path, pass.Config.LockBlockScope) {
					checkLockBlocking(pass, n.Body.List, map[string]token.Pos{})
				}
			case *ast.AssignStmt:
				checkLockCopyAssign(pass, n)
			case *ast.RangeStmt:
				checkLockCopyRange(pass, n)
			}
			return true
		})
	}
	return nil
}

// ---- part 1: lock copying ----

// containsLock reports whether t transitively contains a sync lock.
func containsLock(t types.Type, seen map[types.Type]bool) bool {
	if seen[t] {
		return false
	}
	seen[t] = true
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil && obj.Pkg().Path() == "sync" {
			switch obj.Name() {
			case "Mutex", "RWMutex", "WaitGroup":
				return true
			}
		}
		return containsLock(named.Underlying(), seen)
	}
	switch u := t.(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if containsLock(u.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Array:
		return containsLock(u.Elem(), seen)
	}
	return false
}

func lockBearing(t types.Type) bool {
	if t == nil {
		return false
	}
	return containsLock(t, map[types.Type]bool{})
}

func checkLockCopyFunc(pass *Pass, recv *ast.FieldList, ft *ast.FuncType) {
	check := func(fields *ast.FieldList, what string) {
		if fields == nil {
			return
		}
		for _, f := range fields.List {
			t := pass.Info.TypeOf(f.Type)
			if t == nil {
				continue
			}
			if _, isPtr := t.(*types.Pointer); isPtr {
				continue
			}
			if lockBearing(t) {
				pass.Reportf(f.Type.Pos(), "%s passes a lock by value (%s contains a sync lock); use a pointer", what, t)
			}
		}
	}
	check(recv, "receiver")
	check(ft.Params, "parameter")
}

// copySource reports whether expr denotes an existing value whose
// assignment copies it (as opposed to a freshly constructed one).
func copySource(expr ast.Expr) bool {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		return e.Name != "nil"
	case *ast.SelectorExpr, *ast.IndexExpr:
		return true
	case *ast.StarExpr:
		return true
	}
	return false
}

func checkLockCopyAssign(pass *Pass, n *ast.AssignStmt) {
	if len(n.Lhs) != len(n.Rhs) {
		return
	}
	for i, rhs := range n.Rhs {
		if !copySource(rhs) {
			continue
		}
		t := pass.Info.TypeOf(rhs)
		if lockBearing(t) {
			pass.Reportf(n.Lhs[i].Pos(), "assignment copies a lock-bearing value of type %s; use a pointer", t)
		}
	}
}

func checkLockCopyRange(pass *Pass, n *ast.RangeStmt) {
	for _, v := range []ast.Expr{n.Key, n.Value} {
		if v == nil {
			continue
		}
		if id, ok := v.(*ast.Ident); ok && id.Name == "_" {
			continue
		}
		t := pass.Info.TypeOf(v)
		if lockBearing(t) {
			pass.Reportf(v.Pos(), "range clause copies a lock-bearing value of type %s; range over indices or pointers", t)
		}
	}
}

// ---- part 2: lock held across blocking operation ----

// mutexMethod returns the receiver expression when call is a
// Lock/RLock/Unlock/RUnlock on sync.Mutex or sync.RWMutex (including
// promoted methods of embedding types), else "".
func mutexMethod(pass *Pass, call *ast.CallExpr) (recv string, name string) {
	fn := flow.CalleeFunc(pass.Info, call)
	if fn == nil {
		return "", ""
	}
	switch fn.Name() {
	case "Lock", "RLock", "Unlock", "RUnlock", "TryLock", "TryRLock":
	default:
		return "", ""
	}
	if !IsMethod(fn, "sync", "Mutex", fn.Name()) && !IsMethod(fn, "sync", "RWMutex", fn.Name()) {
		return "", ""
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	return types.ExprString(sel.X), fn.Name()
}

// checkLockBlocking linearly scans a statement list tracking which
// mutexes are held, and reports blocking operations encountered while
// any lock is held. Nested control-flow blocks inherit a copy of the
// held set; function literals start fresh (they run later).
func checkLockBlocking(pass *Pass, stmts []ast.Stmt, held map[string]token.Pos) {
	copyHeld := func() map[string]token.Pos {
		c := make(map[string]token.Pos, len(held))
		for k, v := range held {
			c[k] = v
		}
		return c
	}
	for _, stmt := range stmts {
		switch s := stmt.(type) {
		case *ast.ExprStmt:
			if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
				if recv, name := mutexMethod(pass, call); recv != "" {
					switch name {
					case "Lock", "RLock":
						held[recv] = call.Pos()
					case "Unlock", "RUnlock":
						delete(held, recv)
					}
					continue
				}
			}
			reportBlocking(pass, s, held)
		case *ast.DeferStmt:
			// defer mu.Unlock() keeps the lock held to function end —
			// exactly the state we are tracking, so nothing changes.
			// Other deferred work runs after the scan's horizon.
		case *ast.GoStmt:
			// The goroutine body runs concurrently on its own stack.
			// Its argument expressions are evaluated now, though.
			for _, arg := range s.Call.Args {
				reportBlocking(pass, arg, held)
			}
		case *ast.SendStmt:
			reportHeld(pass, s.Pos(), held, "channel send")
		case *ast.SelectStmt:
			hasDefault := false
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
					hasDefault = true
				}
			}
			if !hasDefault {
				reportHeld(pass, s.Pos(), held, "blocking select")
			}
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					checkLockBlocking(pass, cc.Body, copyHeld())
				}
			}
		case *ast.IfStmt:
			reportBlocking(pass, s.Cond, held)
			checkLockBlocking(pass, s.Body.List, copyHeld())
			if s.Else != nil {
				checkLockBlocking(pass, []ast.Stmt{s.Else}, copyHeld())
			}
		case *ast.ForStmt:
			if s.Cond != nil {
				reportBlocking(pass, s.Cond, held)
			}
			checkLockBlocking(pass, s.Body.List, copyHeld())
		case *ast.RangeStmt:
			reportBlocking(pass, s.X, held)
			checkLockBlocking(pass, s.Body.List, copyHeld())
		case *ast.BlockStmt:
			checkLockBlocking(pass, s.List, held)
		case *ast.SwitchStmt:
			if s.Tag != nil {
				reportBlocking(pass, s.Tag, held)
			}
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					checkLockBlocking(pass, cc.Body, copyHeld())
				}
			}
		case *ast.TypeSwitchStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					checkLockBlocking(pass, cc.Body, copyHeld())
				}
			}
		default:
			reportBlocking(pass, stmt, held)
		}
	}
}

// reportBlocking inspects one statement or expression (not descending
// into function literals) for blocking operations while locks are held.
func reportBlocking(pass *Pass, n ast.Node, held map[string]token.Pos) {
	if len(held) == 0 || n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				reportHeld(pass, n.Pos(), held, "channel receive")
			}
		case *ast.CallExpr:
			if what := blockingCall(pass, n); what != "" {
				reportHeld(pass, n.Pos(), held, what)
			}
		}
		return true
	})
}

func blockingCall(pass *Pass, call *ast.CallExpr) string {
	fn := flow.CalleeFunc(pass.Info, call)
	if fn == nil {
		return ""
	}
	switch {
	case IsPkgFunc(fn, "time", "Sleep"):
		return "time.Sleep"
	case IsMethod(fn, "sync", "WaitGroup", "Wait"):
		return "sync.WaitGroup.Wait"
	case IsMethod(fn, "net/http", "Client", fn.Name()) &&
		(fn.Name() == "Do" || fn.Name() == "Get" || fn.Name() == "Post" || fn.Name() == "PostForm" || fn.Name() == "Head"):
		return "http.Client." + fn.Name()
	case pass.Config.CallPlanePath != "" && IsPkgFunc(fn, pass.Config.CallPlanePath, "Do"):
		return "callplane.Do"
	case IsPkgFunc(fn, "net", "Dial"), IsPkgFunc(fn, "net", "DialTimeout"):
		return "net." + fn.Name()
	}
	return ""
}

func reportHeld(pass *Pass, pos token.Pos, held map[string]token.Pos, what string) {
	for recv := range held {
		pass.Reportf(pos, "%s while holding %s; release the lock first (one stuck peer stalls every caller)", what, recv)
	}
}
