package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"soc/internal/lint/flow"
)

// AtomicDiscipline enforces the all-or-nothing rule of sync/atomic: a
// word (struct field or package-level variable) accessed via the atomic
// functions anywhere in the module may never be read or written plainly
// anywhere else — mixed access is a data race the race detector only
// catches when a test happens to hit it. The check is transitive through
// accessor helpers: `&x.f` passed to a function whose pointer parameter
// is used atomically marks x.f atomic, chained to any depth.
//
// Approximations: taking a word's address is not itself an access, so a
// pointer that escapes into code the fixpoint does not follow (stored in
// a struct, returned, passed by value onward through untyped interfaces)
// is not tracked — an under-approximation. Local variables are out of
// scope: the common `var n int64` counter bumped atomically inside
// worker goroutines and read plainly after wg.Wait() is a correct and
// idiomatic pattern that a class-based check cannot separate from the
// racy one. Composite-literal keys and declarations are sanctioned
// (pre-publication initialization). The typed atomic.Int64 family needs
// no checking — its API makes plain access impossible.
var AtomicDiscipline = &Analyzer{
	Name:  "atomicdiscipline",
	Doc:   "a field accessed via sync/atomic anywhere must never be accessed plainly elsewhere",
	Tests: true,
	Flow:  true,
	Run:   runAtomicDiscipline,
}

func runAtomicDiscipline(pass *Pass) error {
	if len(pass.Config.AtomicScope) == 0 {
		return nil
	}
	g := pass.FlowGraph()
	facts := g.Memo("atomicdiscipline.facts", func() any { return collectAtomicFacts(g) }).(*atomicFacts)
	for _, u := range facts.plain {
		if !pass.InFiles(u.Pos) {
			continue // another package's pass owns this access
		}
		if !InScope(u.Class.PkgPath, pass.Config.AtomicScope) {
			continue
		}
		pass.Reportf(u.Pos, "plain access of %s, which is accessed via sync/atomic (%s); mixed access is a data race — use atomic ops or a mutex consistently", u.Class.Name, relPos(g.Fset, u.AtomicAt))
	}
	return nil
}

// atomicUse is one plain access of an atomically-accessed class.
type atomicUse struct {
	Class flow.Class
	Pos   token.Pos
	// AtomicAt is one site where the class is accessed atomically, for
	// the report.
	AtomicAt token.Pos
}

type atomicFacts struct {
	plain []atomicUse
}

// collectAtomicFacts runs the module-wide scan once per graph: find the
// atomic classes (directly and through the pointer-parameter fixpoint),
// then every unsanctioned plain use of them.
func collectAtomicFacts(g *flow.Graph) *atomicFacts {
	type classInfo struct {
		cls flow.Class
		at  token.Pos
	}
	classes := map[string]classInfo{}
	sanctioned := map[token.Pos]bool{}
	// atomicParams maps canonical keys of pointer parameters that are
	// operands of atomic calls to one such call site.
	atomicParams := map[string]token.Pos{}
	// callArg is a candidate edge for the fixpoint: an address-of or
	// pointer-forwarding argument at a statically resolved call.
	type callArg struct {
		pkg     *flow.Package
		callee  *types.Func
		index   int
		operand ast.Expr   // &operand passed; nil when forwarding
		fwd     *types.Var // pointer variable passed by value
		pos     token.Pos
	}
	var pointerArgs []callArg

	sanctionIdents := func(e ast.Expr) {
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				sanctioned[id.Pos()] = true
			}
			return true
		})
	}
	markAtomic := func(pkg *flow.Package, operand ast.Expr, at token.Pos) {
		v := varOf(pkg.Info, operand)
		if v == nil || !sharedWord(v) {
			return
		}
		cls := g.ClassOfExpr(pkg, operand)
		if cls.Zero() {
			return
		}
		if _, ok := classes[cls.Key]; !ok {
			classes[cls.Key] = classInfo{cls: cls, at: at}
		}
	}

	// Pass 1: atomic call sites, address-of sanctioning, composite keys,
	// fixpoint candidates.
	for _, pkg := range g.Packages {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					for _, el := range n.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								sanctioned[id.Pos()] = true
							}
						}
					}
				case *ast.UnaryExpr:
					// Taking the address is not a read or write of the
					// word; where the pointer goes is tracked (only)
					// through the parameter fixpoint below.
					if n.Op == token.AND {
						sanctionIdents(n.X)
					}
				case *ast.CallExpr:
					fn := flow.CalleeFunc(pkg.Info, n)
					if fn == nil {
						return true
					}
					if fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic" && isAtomicWordFunc(fn) {
						for _, a := range n.Args {
							if operand := addrOperand(a); operand != nil {
								markAtomic(pkg, operand, n.Pos())
								continue
							}
							// atomic.AddInt64(p, 1): p is a pointer
							// variable — seed the parameter fixpoint.
							if id, ok := ast.Unparen(a).(*ast.Ident); ok {
								if v, ok2 := pkg.Info.Uses[id].(*types.Var); ok2 && isPointer(v.Type()) {
									key := g.VarClass(v, v.Name()).Key
									if _, seen := atomicParams[key]; !seen {
										atomicParams[key] = n.Pos()
									}
								}
							}
						}
						return true
					}
					sig, ok := fn.Type().(*types.Signature)
					if !ok {
						return true
					}
					for i, a := range n.Args {
						if i >= sig.Params().Len() {
							break // variadic tail: not followed
						}
						if operand := addrOperand(a); operand != nil {
							pointerArgs = append(pointerArgs, callArg{pkg: pkg, callee: fn, index: i, operand: operand, pos: n.Pos()})
							continue
						}
						if id, ok := ast.Unparen(a).(*ast.Ident); ok {
							if v, ok2 := pkg.Info.Uses[id].(*types.Var); ok2 && isPointer(v.Type()) {
								pointerArgs = append(pointerArgs, callArg{pkg: pkg, callee: fn, index: i, fwd: v, pos: n.Pos()})
							}
						}
					}
				}
				return true
			})
		}
	}

	// Fixpoint: &x.f (or a forwarded pointer) reaching a parameter that
	// is used atomically makes x.f atomic / keeps the chain going.
	for changed := true; changed; {
		changed = false
		for _, ca := range pointerArgs {
			sig, ok := ca.callee.Type().(*types.Signature)
			if !ok || ca.index >= sig.Params().Len() {
				continue
			}
			p := sig.Params().At(ca.index)
			at, isAtomic := atomicParams[g.VarClass(p, p.Name()).Key]
			if !isAtomic {
				continue
			}
			if ca.operand != nil {
				v := varOf(ca.pkg.Info, ca.operand)
				if v == nil || !sharedWord(v) {
					continue
				}
				cls := g.ClassOfExpr(ca.pkg, ca.operand)
				if cls.Zero() {
					continue
				}
				if _, seen := classes[cls.Key]; !seen {
					classes[cls.Key] = classInfo{cls: cls, at: at}
					changed = true
				}
				continue
			}
			key := g.VarClass(ca.fwd, ca.fwd.Name()).Key
			if _, seen := atomicParams[key]; !seen {
				atomicParams[key] = at
				changed = true
			}
		}
	}

	// Pass 2: every unsanctioned plain use of an atomic class.
	facts := &atomicFacts{}
	for _, pkg := range g.Packages {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				v, ok := pkg.Info.Uses[id].(*types.Var)
				if !ok || !sharedWord(v) {
					return true
				}
				info, tracked := classes[g.VarClass(v, v.Name()).Key]
				if !tracked || sanctioned[id.Pos()] {
					return true
				}
				facts.plain = append(facts.plain, atomicUse{Class: info.cls, Pos: id.Pos(), AtomicAt: info.at})
				return true
			})
		}
	}
	sort.Slice(facts.plain, func(i, j int) bool { return facts.plain[i].Pos < facts.plain[j].Pos })
	return facts
}

// varOf resolves expr to the variable it denotes (identifier or field
// selector); nil for anything else.
func varOf(info *types.Info, e ast.Expr) *types.Var {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		v, _ := info.Uses[e].(*types.Var)
		return v
	case *ast.SelectorExpr:
		v, _ := info.Uses[e.Sel].(*types.Var)
		return v
	}
	return nil
}

// sharedWord restricts the discipline to words that outlive a single
// call frame: struct fields and package-level variables.
func sharedWord(v *types.Var) bool {
	if v.IsField() {
		return true
	}
	return v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

func isPointer(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Pointer)
	return ok
}

// addrOperand returns x for the expression &x, nil otherwise.
func addrOperand(e ast.Expr) ast.Expr {
	if u, ok := ast.Unparen(e).(*ast.UnaryExpr); ok && u.Op == token.AND {
		return u.X
	}
	return nil
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
