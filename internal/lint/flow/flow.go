// Package flow is the interprocedural layer under soclint's concurrency
// analyzers. Where every analyzer in soc/internal/lint before it reasoned
// about one function at a time, flow builds a module-wide view once —
// a call graph over every loaded package plus a per-function Summary of
// the concurrency-relevant facts (mutexes acquired and released, channels
// sent, received and closed, goroutines spawned, context threading) —
// and lets analyzers query it transitively: "which locks does this call
// eventually take?", "does cancellation ever reach a select in this
// goroutine?", "does any program reach this function?".
//
// The package is deliberately stdlib-only (go/ast + go/types), matching
// the rest of the lint framework, and it makes its approximations
// explicit:
//
//   - The call graph records static calls (declared functions and
//     methods), `go` and `defer` sites, function values passed around
//     (candidate callees matched by signature at indirect call sites),
//     and interface-method dispatch (candidate callees from the method
//     sets of module types implementing the interface).
//   - Transitive queries follow only synchronous edges (static calls and
//     defers) by default: a spawned goroutine does not inherit its
//     spawner's locks, and dynamic/interface candidates are available but
//     over-approximate, so analyzers opt into them.
//   - A function literal passed as a call argument is assumed to run
//     synchronously inside the callee (the sync.Once.Do / Bulkhead.Do
//     shape); a literal assigned to a variable is analyzed with no locks
//     held, because its call sites are unknown.
//
// Identity is canonical by declaration position, not by types.Object
// pointer: the same field seen through two typechecking passes (the
// import-resolution check and the test-inclusive analysis check of a
// package) maps to the same class, so cross-package facts stay coherent.
package flow

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Package is one typechecked package contributed to the graph. Files may
// include _test.go files when the loader was asked to analyze them.
type Package struct {
	// Path is the import path used for scope decisions.
	Path string
	// Files are the parsed sources backing Info.
	Files []*ast.File
	// Info is the type information covering exactly Files, and Types
	// the package it checked.
	Info  *types.Info
	Types *types.Package
}

// CallKind classifies a call-graph edge.
type CallKind int

const (
	// Static is a direct call of a declared function or method.
	Static CallKind = iota
	// Deferred is a `defer f()` site; it runs synchronously at return,
	// conservatively treated as running under the locks held at the
	// defer statement.
	Deferred
	// Spawn is a `go f()` site: asynchronous, inherits no locks.
	Spawn
	// Dynamic is a call through a function value; Callee is one
	// signature-compatible candidate whose value was taken somewhere.
	Dynamic
	// Dispatch is a call through an interface method; Callee is one
	// concrete method from a module type implementing the interface.
	Dispatch
)

func (k CallKind) String() string {
	switch k {
	case Static:
		return "static"
	case Deferred:
		return "defer"
	case Spawn:
		return "go"
	case Dynamic:
		return "dynamic"
	case Dispatch:
		return "dispatch"
	}
	return "?"
}

// Call is one edge of the call graph.
type Call struct {
	Caller *Func
	// Callee is the module-local target, nil when the target is outside
	// the graph (stdlib, unresolved).
	Callee *Func
	// Obj is the called *types.Func when statically known (set even for
	// stdlib callees), nil for calls of plain function values.
	Obj  *types.Func
	Kind CallKind
	Pos  token.Pos
}

// Func is one node: a declared function/method or a function literal.
type Func struct {
	// ID is the canonical identity (declaration position based).
	ID string
	// Name is the display name: "pkg.Type.Method", "pkg.Func" or
	// "pkg.Func.func@line" for literals.
	Name string
	Pkg  *Package
	Decl *ast.FuncDecl // nil for literals
	Lit  *ast.FuncLit  // nil for declared functions
	Obj  *types.Func   // nil for literals

	Calls   []*Call
	Summary Summary
}

// Body returns the function body, nil for bodiless declarations.
func (f *Func) Body() *ast.BlockStmt {
	if f.Decl != nil {
		return f.Decl.Body
	}
	if f.Lit != nil {
		return f.Lit.Body
	}
	return nil
}

// Class identifies a mutex or channel statically: the
// declared field or variable backing the expression. Two expressions
// share a Class when they denote the same declaration, so `c.mu` in two
// methods is one class while two instances of the same type also share
// it — the distinct-instance blindness analyzers must account for.
type Class struct {
	// Key is the canonical identity: the declaring object's position.
	Key string
	// Name is the display form, e.g. "registry.Registry.mu".
	Name string
	// PkgPath is the import path of the declaring package ("" for
	// objects declared in function scope outside any package clause —
	// does not happen for fields and package vars).
	PkgPath string
}

// Zero reports whether the class is unresolved.
func (c Class) Zero() bool { return c.Key == "" }

// Graph is the module-wide interprocedural view.
type Graph struct {
	Fset     *token.FileSet
	Packages []*Package
	// Funcs maps canonical IDs to nodes; use SortedFuncs for
	// deterministic iteration.
	Funcs map[string]*Func

	funcByPos map[token.Pos]*Func // declared functions by Name position
	sorted    []*Func

	chans map[string]*ChanFacts

	// address-taken declared functions (candidates for Dynamic edges)
	taken map[*Func]bool
	// pending indirect call sites and interface dispatch sites
	dynSites  []dynSite
	dispSites []dispSite
	// byMethod indexes the pointer types of the module's non-generic
	// named types by the names in their method sets.
	byMethod map[string][]types.Type

	// memo is scratch space for analyzers that compute module-wide
	// results once (keyed by analyzer-chosen strings).
	memo map[string]any

	acquiresMemo map[*Func]map[string]AcqWitness
	inProgress   map[*Func]bool
}

type dynSite struct {
	caller *Func
	sig    *types.Signature
	pos    token.Pos
}

type dispSite struct {
	caller *Func
	iface  *types.Interface
	method *types.Func
	pos    token.Pos
}

// ChanFacts aggregates what the whole module does to one channel class.
type ChanFacts struct {
	Class  Class
	Sends  []token.Pos
	Recvs  []token.Pos
	Closes []token.Pos
	Ranges []token.Pos
	// Buffered is set when some `make(chan T, n)` with constant n > 0
	// is assigned to this class.
	Buffered bool
}

// Memo returns the analyzer scratch value under key, computing and
// caching it on first use.
func (g *Graph) Memo(key string, compute func() any) any {
	if v, ok := g.memo[key]; ok {
		return v
	}
	v := compute()
	g.memo[key] = v
	return v
}

// Chan returns the module-wide facts for a channel class, nil when the
// class was never touched.
func (g *Graph) Chan(key string) *ChanFacts { return g.chans[key] }

// SortedFuncs returns every node ordered by ID for deterministic walks.
func (g *Graph) SortedFuncs() []*Func { return g.sorted }

// FuncOf returns the node for a statically known callee, nil for
// functions outside the graph.
func (g *Graph) FuncOf(obj *types.Func) *Func {
	if obj == nil {
		return nil
	}
	return g.funcByPos[obj.Origin().Pos()]
}

// LitOf returns the node of a function literal, nil when the scan
// never reached it.
func (g *Graph) LitOf(lit *ast.FuncLit) *Func { return g.Funcs["lit@"+g.posKey(lit.Pos())] }

// Build constructs the graph over the given packages. Packages must share
// one token.FileSet and one loader-coherent type universe (stdlib objects
// are shared; module-local objects are canonicalized by position).
func Build(fset *token.FileSet, pkgs []*Package) *Graph {
	g := &Graph{
		Fset:         fset,
		Packages:     pkgs,
		Funcs:        map[string]*Func{},
		funcByPos:    map[token.Pos]*Func{},
		chans:        map[string]*ChanFacts{},
		taken:        map[*Func]bool{},
		byMethod:     map[string][]types.Type{},
		memo:         map[string]any{},
		acquiresMemo: map[*Func]map[string]AcqWitness{},
		inProgress:   map[*Func]bool{},
	}
	// Pass 1: index declared functions so call sites anywhere can
	// resolve to nodes.
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				f := &Func{
					ID:   "fn@" + g.posKey(fd.Name.Pos()),
					Name: funcDisplay(obj),
					Pkg:  pkg,
					Decl: fd,
					Obj:  obj,
				}
				g.Funcs[f.ID] = f
				g.funcByPos[fd.Name.Pos()] = f
			}
		}
	}
	// Pass 2: scan bodies — summaries, static edges, channel facts,
	// dynamic/dispatch sites, address-taken functions. A function literal
	// in a package-level initializer is scanned as its own node, with
	// nothing held.
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				if gd, ok := decl.(*ast.GenDecl); ok {
					ast.Inspect(gd, func(n ast.Node) bool {
						lit, isLit := n.(*ast.FuncLit)
						if isLit {
							g.scanLitBody(pkg, lit, file.Name.Name, nil)
						}
						return !isLit
					})
				}
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				f := g.funcByPos[fd.Name.Pos()]
				if f == nil {
					continue
				}
				s := &scanner{g: g, pkg: pkg, fn: f}
				s.funcHeader(fd.Type, fd.Recv)
				s.block(fd.Body.List, nil)
			}
		}
	}
	// Pass 3: resolve dynamic call sites against address-taken functions
	// and interface dispatch against module method sets.
	g.resolveDynamic()
	g.resolveDispatch()
	for _, f := range g.Funcs {
		g.sorted = append(g.sorted, f)
	}
	sort.Slice(g.sorted, func(i, j int) bool { return g.sorted[i].ID < g.sorted[j].ID })
	return g
}

func (g *Graph) posKey(pos token.Pos) string {
	p := g.Fset.Position(pos)
	return fmt.Sprintf("%s:%d:%d", p.Filename, p.Line, p.Column)
}

func funcDisplay(obj *types.Func) string {
	pkg := ""
	if obj.Pkg() != nil {
		pkg = obj.Pkg().Name() + "."
	}
	if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return pkg + named.Obj().Name() + "." + obj.Name()
		}
	}
	return pkg + obj.Name()
}

// classOf canonicalizes the declared object behind expr (a field
// selector, package var or local var) into a Class.
func (g *Graph) classOf(pkg *Package, expr ast.Expr) Class {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		obj := pkg.Info.Uses[e]
		if obj == nil {
			obj = pkg.Info.Defs[e]
		}
		v, ok := obj.(*types.Var)
		if !ok {
			return Class{}
		}
		name := v.Name()
		if v.Pkg() != nil {
			name = v.Pkg().Name() + "." + name
		}
		return g.classFor(v, name)
	case *ast.SelectorExpr:
		v, ok := pkg.Info.Uses[e.Sel].(*types.Var)
		if !ok || !v.IsField() {
			return Class{}
		}
		owner := ""
		if t := pkg.Info.TypeOf(e.X); t != nil {
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				owner = named.Obj().Name() + "."
				if named.Obj().Pkg() != nil {
					owner = named.Obj().Pkg().Name() + "." + owner
				}
			}
		}
		return g.classFor(v, owner+v.Name())
	}
	return Class{}
}

func (g *Graph) classFor(v *types.Var, name string) Class {
	pkgPath := ""
	if v.Pkg() != nil {
		pkgPath = v.Pkg().Path()
	}
	return Class{Key: "var@" + g.posKey(v.Pos()), Name: name, PkgPath: pkgPath}
}

// embeddedLockClass resolves a promoted `x.Lock()` (x's type embeds a
// sync.Mutex/RWMutex) to the embedded field's class.
func (g *Graph) embeddedLockClass(pkg *Package, recv ast.Expr) Class {
	t := pkg.Info.TypeOf(recv)
	if t == nil {
		return Class{}
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return Class{}
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return Class{}
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if !f.Embedded() {
			continue
		}
		ft := f.Type()
		if ptr, ok := ft.(*types.Pointer); ok {
			ft = ptr.Elem()
		}
		if n, ok := ft.(*types.Named); ok && n.Obj().Pkg() != nil &&
			n.Obj().Pkg().Path() == "sync" && (n.Obj().Name() == "Mutex" || n.Obj().Name() == "RWMutex") {
			owner := named.Obj().Name()
			if named.Obj().Pkg() != nil {
				owner = named.Obj().Pkg().Name() + "." + owner
			}
			return g.classFor(f, owner+"."+f.Name())
		}
	}
	return Class{}
}

func (g *Graph) chanFactsFor(c Class) *ChanFacts {
	if c.Zero() {
		return nil
	}
	cf := g.chans[c.Key]
	if cf == nil {
		cf = &ChanFacts{Class: c}
		g.chans[c.Key] = cf
	}
	return cf
}

func (g *Graph) resolveDynamic() {
	var candidates []*Func
	for f := range g.taken {
		candidates = append(candidates, f)
	}
	sort.Slice(candidates, func(i, j int) bool { return candidates[i].ID < candidates[j].ID })
	for _, site := range g.dynSites {
		for _, cand := range candidates {
			if cand.Obj == nil {
				continue
			}
			sig, ok := cand.Obj.Type().(*types.Signature)
			if !ok || !compatibleSignatures(site.sig, sig) {
				continue
			}
			site.caller.Calls = append(site.caller.Calls, &Call{
				Caller: site.caller, Callee: cand, Obj: cand.Obj, Kind: Dynamic, Pos: site.pos,
			})
		}
	}
}

// compatibleSignatures is a shallow shape match: same arity both ways.
// Precise assignability would need identical type universes; arity is
// enough to keep the candidate set small and is honestly documented as
// an over-approximation.
func compatibleSignatures(a, b *types.Signature) bool {
	if a == nil || b == nil {
		return false
	}
	return a.Params().Len() == b.Params().Len() &&
		a.Results().Len() == b.Results().Len() &&
		a.Variadic() == b.Variadic()
}

// resolveDispatch gives each interface call site an edge to the method
// every module type implementing the interface runs for it: a method
// declared on the type, or one promoted through an embedded field (a
// struct embedding *core satisfies the interface even when *core alone
// does not). Generic types are left out.
func (g *Graph) resolveDispatch() {
	var named []*types.Named
	for _, pkg := range g.Packages {
		for _, obj := range pkg.Info.Defs {
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 && !types.IsInterface(n) {
				named = append(named, n)
			}
		}
	}
	sort.Slice(named, func(i, j int) bool { return named[i].Obj().Pos() < named[j].Obj().Pos() })
	for _, n := range named {
		ptr := types.NewPointer(n)
		ms := types.NewMethodSet(ptr)
		for i := 0; i < ms.Len(); i++ {
			name := ms.At(i).Obj().Name()
			g.byMethod[name] = append(g.byMethod[name], ptr)
		}
	}
	for _, site := range g.dispSites {
		for _, t := range g.implementers(site.iface) {
			if callee := g.methodOf(t, site.method); callee != nil {
				site.caller.Calls = append(site.caller.Calls, &Call{
					Caller: site.caller, Callee: callee, Obj: callee.Obj, Kind: Dispatch, Pos: site.pos,
				})
			}
		}
	}
}

// MethodsFor returns the methods through which module types implement
// iface: for each implementing type, the node each method of iface
// resolves to.
func (g *Graph) MethodsFor(iface *types.Interface) []*Func {
	var out []*Func
	for _, t := range g.implementers(iface) {
		for i := 0; i < iface.NumMethods(); i++ {
			if f := g.methodOf(t, iface.Method(i)); f != nil {
				out = append(out, f)
			}
		}
	}
	return out
}

// implementers returns the pointer types of the module's non-generic
// named types that implement iface.
func (g *Graph) implementers(iface *types.Interface) []types.Type {
	if iface.NumMethods() == 0 {
		return nil
	}
	var out []types.Type
	for _, t := range g.byMethod[iface.Method(0).Name()] {
		if implements(t, iface) {
			out = append(out, t)
		}
	}
	return out
}

// methodOf returns the node of the method m names on t, nil when it is
// outside the graph.
func (g *Graph) methodOf(t types.Type, m *types.Func) *Func {
	obj, _, _ := types.LookupFieldOrMethod(t, false, m.Pkg(), m.Name())
	fn, _ := obj.(*types.Func)
	return g.FuncOf(fn)
}

// implements reports whether t has every method of iface with the same
// signature, telling named types apart by package path and name rather
// than by identity: a module package with tests is checked twice (as
// its importers see it, and with its _test.go files), so an interface
// and a type implementing it may come from different checks.
func implements(t types.Type, iface *types.Interface) bool {
	for i := 0; i < iface.NumMethods(); i++ {
		m := iface.Method(i)
		obj, _, _ := types.LookupFieldOrMethod(t, false, m.Pkg(), m.Name())
		fn, ok := obj.(*types.Func)
		if !ok || sigKey(fn.Type().(*types.Signature)) != sigKey(m.Type().(*types.Signature)) {
			return false
		}
	}
	return true
}

// sigKey renders a signature's parameter and result types, without
// their names, with every named type qualified by its package path.
func sigKey(sig *types.Signature) string {
	var b strings.Builder
	for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteByte('(')
		for i := 0; i < tuple.Len(); i++ {
			b.WriteString(types.TypeString(tuple.At(i).Type(), nil))
			b.WriteByte(',')
		}
		b.WriteByte(')')
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}

// baseExpr renders the receiver/base of a selector chain for
// distinct-instance filtering: "c" for c.mu, "h.cache" for h.cache.mu.
func baseExpr(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return types.ExprString(e.X)
	}
	return strings.TrimSpace(types.ExprString(e))
}
