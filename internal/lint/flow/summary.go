package flow

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Summary is the per-function digest analyzers query. It is computed
// once at graph build from a lock-aware linear scan of the body, the
// module's one held-lock walker: the scan tracks which mutexes are held
// at every point (straight-line, with each branch, loop body and case
// starting from a copy of the set before it) and records the
// concurrency-relevant events it passes. lockorder reads its Acquires
// and CallsUnder, locksafe its CallsUnder, Sends and Recvs, goleak its
// spawns and channel operations.
type Summary struct {
	// Acquires are the Lock/RLock sites, each with the lock classes
	// already held there.
	Acquires []LockAcquire
	// Releases are the Unlock/RUnlock sites.
	Releases []LockRelease
	// CallsUnder are call sites executed while at least one lock is
	// held — the raw material of the interprocedural lock-order graph.
	CallsUnder []CallUnder
	// Spawns are the `go` statements of the function (literals spawned
	// inside it included).
	Spawns []SpawnSite
	// Sends, Recvs, Closes are the channel operations, resolved to
	// channel classes where possible.
	Sends, Recvs, Closes []ChanUse
	// SelectsOnDone reports a select statement with a case receiving
	// from a context's Done() channel anywhere in the body (function
	// literals included).
	SelectsOnDone bool
	// InfiniteFor are the positions of condition-free `for { ... }`
	// loops — candidates for running forever unless an escape (ctx.Done
	// select or closed-channel receive) exists in the function.
	InfiniteFor []token.Pos
	// TakesCtx reports a context.Context parameter; ForwardsCtx that a
	// context value is passed on to some call.
	TakesCtx, ForwardsCtx bool
}

// LockAcquire is one Lock/RLock site.
type LockAcquire struct {
	Lock Class
	// Base is the receiver expression the lock was reached through
	// ("c" for c.mu.Lock()), used to separate instances of one class.
	Base   string
	Pos    token.Pos
	Reader bool // RLock
	// Held lists the locks already held at this site, in acquisition
	// order.
	Held []HeldLock
}

// LockRelease is one Unlock/RUnlock site.
type LockRelease struct {
	Lock Class
	Pos  token.Pos
}

// HeldLock is one entry of a held-set: the class plus the instance base
// it was acquired through and where.
type HeldLock struct {
	Lock Class
	Base string
	// Expr is the lock as written at the acquisition: "c.mu", or "mu"
	// for a local mutex.
	Expr string
	Pos  token.Pos
}

// CallUnder is a call made while locks are held.
type CallUnder struct {
	Call *Call
	Held []HeldLock
	// RecvBase is the callee's receiver expression for method calls
	// ("c" in c.helper()), "" for plain calls — used to decide whether
	// a same-class reacquisition is genuinely the same instance.
	RecvBase string
}

// SpawnSite is one `go` statement.
type SpawnSite struct {
	Pos token.Pos
	// Target is the spawned function: the literal's node, or the
	// statically resolved callee; nil when the spawned value is opaque
	// (a function variable).
	Target *Func
	// Obj is the statically known callee object (set for stdlib
	// targets too).
	Obj *types.Func
	// In is the function containing the go statement.
	In *Func
	// InLoop reports that the go statement sits inside a for/range of
	// its enclosing function — the unbounded fan-out shape.
	InLoop bool
	Stmt   *ast.GoStmt
}

// ChanUse is one channel operation resolved to a class (Zero class when
// the channel expression is not a named field/variable, as in
// <-time.After(d) or <-ctx.Done()).
type ChanUse struct {
	Chan Class
	Pos  token.Pos
	// Held lists the locks held at the operation.
	Held []HeldLock
	// Select is the position of the select statement whose case this
	// operation is, token.NoPos outside one.
	Select token.Pos
	// NonBlocking marks operations inside a select with a default case —
	// they cannot block at all.
	NonBlocking bool
	// EscapeChans are the classes of sibling receive cases of the
	// operation's select: the op cannot block forever when one of them is
	// closed somewhere in the module.
	EscapeChans []Class
}

// selectInfo is the scanner's context while inside one select statement.
type selectInfo struct {
	pos        token.Pos
	hasDefault bool
	recvs      []Class
}

// scanner walks one declared function, populating fn.Summary, the call
// edges, and the graph-wide channel facts.
type scanner struct {
	g   *Graph
	pkg *Package
	fn  *Func
	// loopDepth tracks enclosing for/range statements of the function
	// currently scanned (not inherited into literals).
	loopDepth int
	// sel is the enclosing select statement's context while scanning its
	// comm clauses, nil elsewhere.
	sel *selectInfo
}

func (s *scanner) funcHeader(ft *ast.FuncType, recv *ast.FieldList) {
	if ft.Params == nil {
		return
	}
	for _, p := range ft.Params.List {
		if t := s.pkg.Info.TypeOf(p.Type); t != nil && isContext(t) {
			s.fn.Summary.TakesCtx = true
		}
	}
}

func isContext(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// block scans a statement list with the given held-set, mutating held
// in place for this nesting level and handing copies to branches.
func (s *scanner) block(stmts []ast.Stmt, held []HeldLock) []HeldLock {
	for _, stmt := range stmts {
		held = s.stmt(stmt, held)
	}
	return held
}

func copyHeld(held []HeldLock) []HeldLock {
	return append([]HeldLock(nil), held...)
}

func (s *scanner) stmt(stmt ast.Stmt, held []HeldLock) []HeldLock {
	switch st := stmt.(type) {
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(st.X).(*ast.CallExpr); ok {
			if lock, name, ok := s.mutexOp(call); ok {
				switch name {
				case "Lock", "RLock":
					s.fn.Summary.Acquires = append(s.fn.Summary.Acquires, LockAcquire{
						Lock: lock.Lock, Base: lock.Base, Pos: lock.Pos, Reader: name == "RLock", Held: copyHeld(held),
					})
					return append(held, lock)
				case "Unlock", "RUnlock":
					s.fn.Summary.Releases = append(s.fn.Summary.Releases, LockRelease{Lock: lock.Lock, Pos: lock.Pos})
					for i := len(held) - 1; i >= 0; i-- {
						if held[i].Lock.Key == lock.Lock.Key && held[i].Base == lock.Base {
							return append(held[:i:i], held[i+1:]...)
						}
					}
					return held
				}
			}
		}
		s.expr(st.X, held)
	case *ast.AssignStmt:
		for _, rhs := range st.Rhs {
			s.markBufferedMake(st.Lhs, rhs)
			s.expr(rhs, held)
		}
		for _, lhs := range st.Lhs {
			s.expr(lhs, held)
		}
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for i, v := range vs.Values {
						if i < len(vs.Names) {
							s.markBufferedMake([]ast.Expr{vs.Names[i]}, v)
						}
						s.expr(v, held)
					}
				}
			}
		}
	case *ast.GoStmt:
		s.spawn(st, held)
	case *ast.DeferStmt:
		// defer mu.Unlock() intentionally leaves the held-set alone:
		// the lock stays held for the rest of the scan, which is the
		// truth the order graph needs. Other deferred calls run (at
		// latest) under whatever is still held here.
		if _, name, ok := s.mutexOp(st.Call); ok && (name == "Unlock" || name == "RUnlock") {
			return held
		}
		s.call(st.Call, held, Deferred)
		s.callArgs(st.Call, held)
	case *ast.IncDecStmt:
		s.expr(st.X, held)
	case *ast.SendStmt:
		s.chanSend(st, held)
		s.expr(st.Chan, held)
		s.expr(st.Value, held)
	case *ast.IfStmt:
		if st.Init != nil {
			held = s.stmt(st.Init, held)
		}
		s.expr(st.Cond, held)
		s.block(st.Body.List, copyHeld(held))
		if st.Else != nil {
			s.stmt(st.Else, copyHeld(held))
		}
	case *ast.ForStmt:
		if st.Init != nil {
			held = s.stmt(st.Init, held)
		}
		if st.Cond != nil {
			s.expr(st.Cond, held)
		} else {
			s.fn.Summary.InfiniteFor = append(s.fn.Summary.InfiniteFor, st.Pos())
		}
		s.loopDepth++
		s.block(st.Body.List, copyHeld(held))
		if st.Post != nil {
			s.stmt(st.Post, copyHeld(held))
		}
		s.loopDepth--
	case *ast.RangeStmt:
		if t := s.pkg.Info.TypeOf(st.X); t != nil {
			if _, ok := t.Underlying().(*types.Chan); ok {
				cls := s.g.classOf(s.pkg, st.X)
				s.fn.Summary.Recvs = append(s.fn.Summary.Recvs, ChanUse{Chan: cls, Pos: st.X.Pos(), Held: copyHeld(held)})
				if cf := s.g.chanFactsFor(cls); cf != nil {
					cf.Ranges = append(cf.Ranges, st.X.Pos())
				}
			}
		}
		s.expr(st.X, held)
		s.loopDepth++
		s.block(st.Body.List, copyHeld(held))
		s.loopDepth--
	case *ast.SelectStmt:
		info := &selectInfo{pos: st.Pos()}
		var comms []*ast.CommClause
		for _, c := range st.Body.List {
			cc, ok := c.(*ast.CommClause)
			if !ok {
				continue
			}
			comms = append(comms, cc)
			if cc.Comm == nil {
				info.hasDefault = true
				continue
			}
			for _, r := range commRecvExprs(cc.Comm) {
				if cls := s.g.classOf(s.pkg, ast.Unparen(r.X)); !cls.Zero() {
					info.recvs = append(info.recvs, cls)
				}
			}
		}
		if len(comms) == 0 {
			// select {} blocks forever, as a receive from a nil channel.
			s.fn.Summary.Recvs = append(s.fn.Summary.Recvs, ChanUse{Pos: st.Pos(), Held: copyHeld(held), Select: st.Pos()})
		}
		prev := s.sel
		s.sel = info
		for _, cc := range comms {
			if cc.Comm != nil {
				s.stmt(cc.Comm, held)
			}
		}
		s.sel = prev
		for _, cc := range comms {
			s.block(cc.Body, copyHeld(held))
		}
	case *ast.SwitchStmt:
		if st.Init != nil {
			held = s.stmt(st.Init, held)
		}
		if st.Tag != nil {
			s.expr(st.Tag, held)
		}
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				s.block(cc.Body, copyHeld(held))
			}
		}
	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			held = s.stmt(st.Init, held)
		}
		s.stmt(st.Assign, held)
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				s.block(cc.Body, copyHeld(held))
			}
		}
	case *ast.BlockStmt:
		held = s.block(st.List, held)
	case *ast.ReturnStmt:
		for _, r := range st.Results {
			s.expr(r, held)
		}
	case *ast.LabeledStmt:
		held = s.stmt(st.Stmt, held)
	}
	return held
}

// commRecvExprs extracts the receive expressions of one comm clause.
func commRecvExprs(comm ast.Stmt) []*ast.UnaryExpr {
	var out []*ast.UnaryExpr
	collect := func(e ast.Expr) {
		if recv, ok := ast.Unparen(e).(*ast.UnaryExpr); ok && recv.Op == token.ARROW {
			out = append(out, recv)
		}
	}
	switch c := comm.(type) {
	case *ast.ExprStmt:
		collect(c.X)
	case *ast.AssignStmt:
		for _, rhs := range c.Rhs {
			collect(rhs)
		}
	}
	return out
}

// expr walks an expression: calls become edges (function literals passed
// as arguments are scanned under the current held-set — the synchronous
// callback assumption), receives become channel facts.
func (s *scanner) expr(e ast.Expr, held []HeldLock) {
	if e == nil {
		return
	}
	switch e := e.(type) {
	case *ast.CallExpr:
		s.call(e, held, Static)
		s.callArgs(e, held)
		// The callee expression is evaluated here too: a receiver, a call
		// that returns the function (mk(<-ch)()) or an index (fns[<-ch]()).
		switch fun := ast.Unparen(e.Fun).(type) {
		case *ast.SelectorExpr:
			s.expr(fun.X, held)
		case *ast.CallExpr:
			s.expr(fun, held)
		case *ast.IndexExpr:
			s.expr(fun.Index, held)
		}
	case *ast.FuncLit:
		// A literal not in call/spawn/argument position: call sites
		// unknown, analyze with nothing held.
		s.scanLit(e, nil)
	case *ast.UnaryExpr:
		if e.Op == token.ARROW {
			s.chanRecv(e, held)
		}
		s.expr(e.X, held)
	case *ast.BinaryExpr:
		s.expr(e.X, held)
		s.expr(e.Y, held)
	case *ast.ParenExpr:
		s.expr(e.X, held)
	case *ast.SelectorExpr:
		s.markTaken(e.Sel)
		s.expr(e.X, held)
	case *ast.Ident:
		s.markTaken(e)
	case *ast.StarExpr:
		s.expr(e.X, held)
	case *ast.IndexExpr:
		s.expr(e.X, held)
		s.expr(e.Index, held)
	case *ast.SliceExpr:
		s.expr(e.X, held)
		s.expr(e.Low, held)
		s.expr(e.High, held)
		s.expr(e.Max, held)
	case *ast.TypeAssertExpr:
		s.expr(e.X, held)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				s.expr(kv.Value, held)
				continue
			}
			s.expr(el, held)
		}
	case *ast.KeyValueExpr:
		s.expr(e.Value, held)
	}
}

// callArgs scans call arguments, treating literal arguments as
// synchronously invoked callbacks.
func (s *scanner) callArgs(call *ast.CallExpr, held []HeldLock) {
	for _, a := range call.Args {
		if lit, ok := ast.Unparen(a).(*ast.FuncLit); ok {
			s.scanLit(lit, copyHeld(held))
			continue
		}
		s.expr(a, held)
	}
}

// scanLit gives a function literal its own node and scans its body with
// the given held-set (callback assumption) while attributing summary
// facts to the literal's node.
func (s *scanner) scanLit(lit *ast.FuncLit, held []HeldLock) *Func {
	f, fresh := s.g.scanLitBody(s.pkg, lit, s.fn.Name, held)
	if !fresh {
		return f
	}
	// The literal runs on the spawner/callee's schedule, but its
	// summary facts surface through the enclosing function's edges: add
	// a synthetic static edge so transitive queries descend into it.
	s.fn.Calls = append(s.fn.Calls, &Call{Caller: s.fn, Callee: f, Kind: Static, Pos: lit.Pos()})
	if len(held) > 0 {
		s.fn.Summary.CallsUnder = append(s.fn.Summary.CallsUnder, CallUnder{
			Call: s.fn.Calls[len(s.fn.Calls)-1], Held: copyHeld(held),
		})
	}
	if f.Summary.SelectsOnDone {
		s.fn.Summary.SelectsOnDone = true
	}
	return f
}

// spawn records a go statement and scans its target with an empty
// held-set (goroutines do not inherit locks).
func (s *scanner) spawn(st *ast.GoStmt, held []HeldLock) {
	site := SpawnSite{Pos: st.Pos(), In: s.fn, InLoop: s.loopDepth > 0, Stmt: st}
	switch fun := ast.Unparen(st.Call.Fun).(type) {
	case *ast.FuncLit:
		// No synthetic edge, held locks or Done-select facts: the
		// goroutine runs on its own.
		site.Target, _ = s.g.scanLitBody(s.pkg, fun, s.fn.Name, nil)
	default:
		obj := CalleeFunc(s.pkg.Info, st.Call)
		site.Obj = obj
		site.Target = s.g.FuncOf(obj)
	}
	s.fn.Summary.Spawns = append(s.fn.Summary.Spawns, site)
	s.fn.Calls = append(s.fn.Calls, &Call{Caller: s.fn, Callee: site.Target, Obj: site.Obj, Kind: Spawn, Pos: st.Pos()})
	// Argument expressions evaluate now, on the spawner's stack.
	for _, a := range st.Call.Args {
		s.expr(a, held)
	}
}

// scanLitBody scans a function literal as a node of its own, named
// after the function it sits in, with the given held-set; fresh is false
// when the literal already has its node.
func (g *Graph) scanLitBody(pkg *Package, lit *ast.FuncLit, outer string, held []HeldLock) (f *Func, fresh bool) {
	id := "lit@" + g.posKey(lit.Pos())
	if f, ok := g.Funcs[id]; ok {
		return f, false
	}
	f = &Func{
		ID:   id,
		Name: fmt.Sprintf("%s.func@%d", outer, g.Fset.Position(lit.Pos()).Line),
		Pkg:  pkg,
		Lit:  lit,
	}
	g.Funcs[id] = f
	sub := &scanner{g: g, pkg: pkg, fn: f}
	sub.funcHeader(lit.Type, nil)
	sub.block(lit.Body.List, held)
	return f, true
}

// call records one call site: an edge when the callee resolves, a
// dynamic or dispatch site otherwise, plus select-on-Done, context
// forwarding and close() facts.
func (s *scanner) call(call *ast.CallExpr, held []HeldLock, kind CallKind) {
	// close(ch) and IIFEs first.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if obj, ok := s.pkg.Info.Uses[id].(*types.Builtin); ok {
			if obj.Name() == "close" && len(call.Args) == 1 {
				cls := s.g.classOf(s.pkg, call.Args[0])
				s.fn.Summary.Closes = append(s.fn.Summary.Closes, ChanUse{Chan: cls, Pos: call.Pos()})
				if cf := s.g.chanFactsFor(cls); cf != nil {
					cf.Closes = append(cf.Closes, call.Pos())
				}
			}
			return
		}
	}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		s.scanLit(lit, copyHeld(held)) // immediately-invoked: runs here
		return
	}
	for _, a := range call.Args {
		if t := s.pkg.Info.TypeOf(a); t != nil && isContext(t) {
			s.fn.Summary.ForwardsCtx = true
		}
	}
	obj := CalleeFunc(s.pkg.Info, call)
	if obj == nil {
		// A call through a function value: dynamic site.
		if t := s.pkg.Info.TypeOf(call.Fun); t != nil {
			if sig, ok := t.Underlying().(*types.Signature); ok {
				s.g.dynSites = append(s.g.dynSites, dynSite{caller: s.fn, sig: sig, pos: call.Pos()})
			}
		}
		return
	}
	if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
		if _, isIface := sig.Recv().Type().Underlying().(*types.Interface); isIface {
			if iface, ok := sig.Recv().Type().Underlying().(*types.Interface); ok {
				s.g.dispSites = append(s.g.dispSites, dispSite{caller: s.fn, iface: iface, method: obj.Name(), pos: call.Pos()})
			}
			return
		}
	}
	callee := s.g.FuncOf(obj)
	edge := &Call{Caller: s.fn, Callee: callee, Obj: obj, Kind: kind, Pos: call.Pos()}
	s.fn.Calls = append(s.fn.Calls, edge)
	if len(held) > 0 {
		recvBase := ""
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			recvBase = baseExpr(sel.X)
		}
		s.fn.Summary.CallsUnder = append(s.fn.Summary.CallsUnder, CallUnder{
			Call: edge, Held: copyHeld(held), RecvBase: recvBase,
		})
	}
}

// chanRecv records one receive, noting Done() receives specially. A
// receive from a call's result (<-time.After(d), <-ctx.Done()) has the
// Zero class.
func (s *scanner) chanRecv(recv *ast.UnaryExpr, held []HeldLock) {
	operand := ast.Unparen(recv.X)
	if call, ok := operand.(*ast.CallExpr); ok {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
			if t := s.pkg.Info.TypeOf(sel.X); t != nil && isContext(t) {
				s.fn.Summary.SelectsOnDone = true
			}
		}
	}
	cls := s.g.classOf(s.pkg, operand)
	use := ChanUse{Chan: cls, Pos: recv.Pos(), Held: copyHeld(held)}
	s.applySelect(&use)
	s.fn.Summary.Recvs = append(s.fn.Summary.Recvs, use)
	if cf := s.g.chanFactsFor(cls); cf != nil {
		cf.Recvs = append(cf.Recvs, recv.Pos())
	}
}

func (s *scanner) chanSend(st *ast.SendStmt, held []HeldLock) {
	cls := s.g.classOf(s.pkg, st.Chan)
	use := ChanUse{Chan: cls, Pos: st.Pos(), Held: copyHeld(held)}
	s.applySelect(&use)
	s.fn.Summary.Sends = append(s.fn.Summary.Sends, use)
	if cf := s.g.chanFactsFor(cls); cf != nil {
		cf.Sends = append(cf.Sends, st.Pos())
	}
}

// applySelect attaches the enclosing select's context to one channel op:
// default case means non-blocking, sibling receives are escape hatches.
func (s *scanner) applySelect(use *ChanUse) {
	if s.sel == nil {
		return
	}
	use.Select = s.sel.pos
	use.NonBlocking = s.sel.hasDefault
	for _, rc := range s.sel.recvs {
		if rc.Key != use.Chan.Key {
			use.EscapeChans = append(use.EscapeChans, rc)
		}
	}
}

// markBufferedMake records `lhs = make(chan T, n)` with constant n > 0.
func (s *scanner) markBufferedMake(lhs []ast.Expr, rhs ast.Expr) {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "make" {
		return
	}
	if t := s.pkg.Info.TypeOf(call.Args[0]); t == nil {
		return
	} else if _, isChan := t.Underlying().(*types.Chan); !isChan {
		return
	}
	tv, ok := s.pkg.Info.Types[call.Args[1]]
	if !ok || tv.Value == nil {
		return
	}
	if v, ok := constantInt(tv); !ok || v <= 0 {
		return
	}
	for _, l := range lhs {
		if cf := s.g.chanFactsFor(s.g.classOf(s.pkg, l)); cf != nil {
			cf.Buffered = true
		}
	}
}

func constantInt(tv types.TypeAndValue) (int64, bool) {
	if tv.Value == nil {
		return 0, false
	}
	s := tv.Value.ExactString()
	var v int64
	if _, err := fmt.Sscanf(s, "%d", &v); err != nil {
		return 0, false
	}
	return v, true
}

// markTaken flags declared functions whose value is referenced outside
// call position — candidates for dynamic call edges.
func (s *scanner) markTaken(id *ast.Ident) {
	obj, ok := s.pkg.Info.Uses[id].(*types.Func)
	if !ok {
		return
	}
	if f := s.g.FuncOf(obj); f != nil {
		s.g.taken[f] = true
	}
}

// mutexOp resolves call as a Lock/RLock/Unlock/RUnlock on a sync.Mutex
// or sync.RWMutex (including promoted methods via embedding), returning
// the lock as a held-set entry and the method name.
func (s *scanner) mutexOp(call *ast.CallExpr) (lock HeldLock, name string, ok bool) {
	fn := CalleeFunc(s.pkg.Info, call)
	if fn == nil {
		return HeldLock{}, "", false
	}
	switch fn.Name() {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return HeldLock{}, "", false
	}
	if !isSyncLockMethod(fn) {
		return HeldLock{}, "", false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return HeldLock{}, "", false
	}
	var cls Class
	if isSyncLockType(s.pkg.Info.TypeOf(sel.X)) {
		cls = s.g.classOf(s.pkg, sel.X)
	} else {
		// Promoted method: x.Lock() reaches a mutex embedded in x's
		// type; the lock class is the embedded field, not x itself.
		cls = s.g.embeddedLockClass(s.pkg, sel.X)
	}
	if cls.Zero() {
		return HeldLock{}, "", false
	}
	return HeldLock{Lock: cls, Base: baseExpr(sel.X), Expr: types.ExprString(sel.X), Pos: call.Pos()}, fn.Name(), true
}

func isSyncLockMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return isSyncLockType(sig.Recv().Type())
}

func isSyncLockType(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// CalleeFunc resolves the called function or method of call, or nil for
// indirect calls (function values, conversions, builtins).
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}
