// Package lint is a self-contained static-analysis framework for this
// repository, built only on the standard library's go/ast, go/parser,
// go/token and go/types (no golang.org/x/tools dependency). It exists
// because the paper's dependability unit teaches that trustworthy service
// composition requires *verifying* services, not just testing them: the
// analyzers here enforce, at build time, the concurrency, context and
// durability disciplines the runtime layers (soc/internal/host,
// soc/internal/reliability) assume. The published WSDL contracts are
// verified at run time instead, by cmd/contractgen's golden test, so this
// package imports none of the service stack it lints.
//
// The framework is deliberately small: an Analyzer is a named Run
// function over a typechecked Pass; the Runner applies a registry of
// analyzers to one loaded package and collects positioned Findings.
// Findings can be suppressed, one line at a time, with an explanatory
// directive:
//
//	//soclint:ignore analyzer1,analyzer2 reason for the exception
//
// placed either on the offending line or alone on the line above it. A
// directive without a reason is itself reported: every exception must
// say why it is safe.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"soc/internal/lint/flow"
)

// Config carries the repository-specific policy knobs shared by the
// analyzers. Zero values disable the corresponding checks.
type Config struct {
	// LockBlockScope lists import-path prefixes subject to the
	// lock-held-across-blocking-call analysis of locksafe.
	LockBlockScope []string
	// ErrDiscardScope lists import-path prefixes (service/handler code)
	// subject to the errdiscard analyzer.
	ErrDiscardScope []string
	// CallPlanePath is the import path of the call-plane package — the
	// one package allowed to call http.NewRequestWithContext directly;
	// everywhere else the ctxpropagate analyzer requires its NewRequest
	// helper. Empty disables the check.
	CallPlanePath string
	// BindingScope lists import-path prefixes subject to the callplanedo
	// analyzer: the binding packages, whose service requests must leave
	// through callplane.Do rather than an http.Client's own methods.
	BindingScope []string
	// ClockScope lists import-path prefixes subject to the clockdiscipline
	// analyzer: packages the deterministic simulation harness runs in
	// virtual time, where direct wall-clock reads/waits are forbidden.
	ClockScope []string
	// DurableScope lists import-path prefixes subject to the
	// fsyncdiscipline analyzer: packages that persist state the stack
	// promises to recover after a crash, where fsync-free writes and
	// rename-before-fsync are forbidden.
	DurableScope []string
	// LockOrderScope lists import-path prefixes whose mutexes
	// participate in the global lock-acquisition-order graph of the
	// lockorder analyzer; a cycle among their locks is a potential
	// deadlock.
	LockOrderScope []string
	// GoLeakScope lists import-path prefixes subject to the goleak
	// analyzer: every `go` statement there must have a provable
	// termination path.
	GoLeakScope []string
	// RequestPathScope lists import-path prefixes on the request path,
	// where goleak additionally requires that goroutines spawned inside
	// loops are joined or pooled (reliability.Bulkhead or equivalent) —
	// unbounded per-request fan-out is how hosts fall over.
	RequestPathScope []string
	// AtomicScope lists import-path prefixes subject to the
	// atomicdiscipline analyzer: a word accessed via sync/atomic
	// anywhere may never be accessed plainly elsewhere.
	AtomicScope []string
	// NoTestAnalyzers names analyzers that must NOT see _test.go files
	// even though they declare Tests: true — the per-analyzer knob for
	// excluding test code from the concurrency checks.
	NoTestAnalyzers []string
}

// DefaultConfig is the policy soclint applies to this module: for each
// scoped analyzer, the packages it covers (all internal packages get the
// lock-blocking check, the service/handler packages the error-discard
// check, and so on).
func DefaultConfig() Config {
	return Config{
		LockBlockScope: []string{
			"soc/internal/",
		},
		ErrDiscardScope: []string{
			"soc/internal/core",
			"soc/internal/crawler",
			"soc/internal/eventbus",
			"soc/internal/faultinject",
			"soc/internal/host",
			"soc/internal/mortgageapp",
			"soc/internal/registry",
			"soc/internal/reliability",
			"soc/internal/rest",
			"soc/internal/security",
			"soc/internal/services",
			"soc/internal/session",
			"soc/internal/soap",
			"soc/internal/wsdl",
			"soc/internal/workflow",
			"soc/internal/xmlstore",
			"soc/cmd/",
		},
		CallPlanePath: "soc/internal/callplane",
		BindingScope: []string{
			"soc/internal/cloud",
			"soc/internal/host",
			"soc/internal/registry",
			"soc/internal/soap",
		},
		ClockScope: []string{
			"soc/internal/cloud",
			"soc/internal/faultinject",
			"soc/internal/loadgen",
			"soc/internal/reliability",
			"soc/internal/respcache",
			"soc/internal/vtime",
		},
		DurableScope: []string{
			"soc/internal/registry",
			"soc/internal/wal",
			"soc/internal/xmlstore",
			"soc/cmd/wsrepo",
		},
		LockOrderScope: []string{
			"soc/internal/cloud",
			"soc/internal/host",
			"soc/internal/registry",
			"soc/internal/respcache",
			"soc/internal/reliability",
			"soc/internal/telemetry",
			"soc/internal/workflow",
		},
		GoLeakScope: []string{
			"soc", "soc/",
		},
		RequestPathScope: []string{
			"soc/internal/host",
			"soc/internal/registry",
			"soc/internal/respcache",
			"soc/internal/rest",
			"soc/internal/soap",
			"soc/internal/workflow",
			"soc/internal/eventbus",
		},
		AtomicScope: []string{
			"soc", "soc/",
		},
	}
}

// InScope reports whether path falls under any of the listed prefixes.
// A prefix matches exactly or at a path-segment boundary, so
// "soc/internal/host" covers "soc/internal/host/sub" but not
// "soc/internal/hostile"; prefixes ending in "/" match any extension.
func InScope(path string, prefixes []string) bool {
	for _, p := range prefixes {
		if p == "" {
			continue
		}
		if strings.HasSuffix(p, "/") {
			if strings.HasPrefix(path, p) {
				return true
			}
			continue
		}
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// Analyzer is one named static check.
type Analyzer struct {
	// Name is the identifier used in reports and ignore directives.
	Name string
	// Doc is a one-line description.
	Doc string
	// Tests marks analyzers that also examine _test.go files (tests
	// spawn goroutines and take locks too); Config.NoTestAnalyzers can
	// switch this off per analyzer without editing the registry.
	Tests bool
	// Flow marks analyzers that query the interprocedural flow graph;
	// drivers build the module-wide graph once when any selected
	// analyzer sets it.
	Flow bool
	// Run applies the check to one typechecked package.
	Run func(*Pass) error
}

// Finding is one reported violation.
type Finding struct {
	Pos      token.Position `json:"-"`
	Analyzer string         `json:"analyzer"`
	Message  string         `json:"message"`
	// IgnoredBy carries the reason text of the //soclint:ignore
	// directive that suppressed this finding; empty for active
	// findings. Suppressed findings never fail a run — they exist so
	// machine-readable output can show what the directives are hiding.
	IgnoredBy string `json:"ignored_by,omitempty"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Pos, f.Analyzer, f.Message)
}

// Pass is the per-(package, analyzer) unit of work handed to Run.
type Pass struct {
	Analyzer *Analyzer
	Config   Config

	Fset *token.FileSet
	// Files are the files this analyzer examines: the package sources,
	// plus its _test.go files when the analyzer sets Tests and
	// Config.NoTestAnalyzers does not veto it.
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// Path is the package import path; Dir its directory.
	Path string
	Dir  string

	suppressed    map[string]map[int]map[string]string // file → line → analyzer → reason
	findings      *[]Finding
	suppressedOut *[]Finding
	flowGraph     func() *flow.Graph
}

// FlowGraph returns the interprocedural view backing this pass: the
// module-wide graph when the driver built one, else a graph of just
// this package (which is exactly right for fixture tests). The graph's
// fact base always includes _test.go files of the packages it covers.
func (p *Pass) FlowGraph() *flow.Graph { return p.flowGraph() }

// InFiles reports whether pos falls inside one of the files this pass
// examines — how interprocedural analyzers keep module-wide results
// from being reported once per package.
func (p *Pass) InFiles(pos token.Pos) bool {
	for _, f := range p.Files {
		if f.FileStart <= pos && pos <= f.FileEnd {
			return true
		}
	}
	return false
}

// Reportf records a finding at pos. A covering ignore directive routes
// the finding to the suppressed list (surfaced by -json) instead of the
// active one.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	f := Finding{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	}
	if set := p.suppressed[position.Filename]; set != nil {
		if reason, ok := set[position.Line][p.Analyzer.Name]; ok {
			f.IgnoredBy = reason
			if p.suppressedOut != nil {
				*p.suppressedOut = append(*p.suppressedOut, f)
			}
			return
		}
	}
	*p.findings = append(*p.findings, f)
}

// Runner applies a set of analyzers to loaded packages.
type Runner struct {
	Analyzers []*Analyzer
	Config    Config
	// Flow is the module-wide interprocedural graph; nil makes each
	// pass fall back to a per-package graph.
	Flow *flow.Graph
	// Suppressed accumulates findings silenced by ignore directives
	// across RunPackage calls, for machine-readable output.
	Suppressed []Finding

	pkgFlows map[*Package]*flow.Graph
}

// flowFor returns the graph a pass over pkg should query.
func (r *Runner) flowFor(pkg *Package) func() *flow.Graph {
	return func() *flow.Graph {
		if r.Flow != nil {
			return r.Flow
		}
		if r.pkgFlows == nil {
			r.pkgFlows = map[*Package]*flow.Graph{}
		}
		if g, ok := r.pkgFlows[pkg]; ok {
			return g
		}
		g := flow.Build(pkg.Fset, []*flow.Package{pkg.FlowPackage()})
		r.pkgFlows[pkg] = g
		return g
	}
}

// directiveFinding is a malformed-ignore report produced during comment
// scanning, before any analyzer runs.
const directiveAnalyzer = "soclint"

// RunPackage runs every analyzer over pkg and returns the active
// findings sorted by position; directive-suppressed findings accumulate
// on r.Suppressed.
func (r *Runner) RunPackage(pkg *Package) ([]Finding, error) {
	var findings []Finding
	suppressed := scanDirectives(pkg, &findings)
	for _, a := range r.Analyzers {
		files := pkg.Files
		if a.Tests && !contains(r.Config.NoTestAnalyzers, a.Name) {
			files = append(append([]*ast.File(nil), files...), pkg.TestFiles...)
		}
		pass := &Pass{
			Analyzer:      a,
			Config:        r.Config,
			Fset:          pkg.Fset,
			Files:         files,
			Pkg:           pkg.Types,
			Info:          pkg.Info,
			Path:          pkg.Path,
			Dir:           pkg.Dir,
			suppressed:    suppressed,
			findings:      &findings,
			suppressedOut: &r.Suppressed,
			flowGraph:     r.flowFor(pkg),
		}
		if err := a.Run(pass); err != nil {
			return findings, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.Path, err)
		}
	}
	SortFindings(findings)
	return findings, nil
}

// RunModule is one soclint run over the module packages at paths: each
// is loaded (with its in-package tests when loader.Tests is set) and its
// external test package, if any, joins as a unit of its own; one
// module-wide flow graph over every unit is built when any analyzer is
// interprocedural; then every unit is run. It returns the active
// findings, sorted, and the number of units analyzed; directive-
// suppressed findings accumulate on r.Suppressed. The soclint driver and
// the self-check test both call it, so they cannot drift apart.
func (r *Runner) RunModule(loader *Loader, paths []string) ([]Finding, int, error) {
	var units []*Package
	for _, path := range paths {
		pkg, err := loader.Load(path)
		if err != nil {
			return nil, 0, err
		}
		units = append(units, pkg)
		xpkg, err := loader.ExternalTests(path)
		if err != nil {
			return nil, 0, err
		}
		if xpkg != nil {
			units = append(units, xpkg)
		}
	}
	for _, a := range r.Analyzers {
		if a.Flow {
			fps := make([]*flow.Package, 0, len(units))
			for _, u := range units {
				fps = append(fps, u.FlowPackage())
			}
			r.Flow = flow.Build(loader.FileSet(), fps)
			break
		}
	}
	var all []Finding
	for _, pkg := range units {
		findings, err := r.RunPackage(pkg)
		if err != nil {
			return nil, 0, err
		}
		all = append(all, findings...)
	}
	SortFindings(all)
	return all, len(units), nil
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

// SortFindings orders findings by file, line, column, analyzer.
func SortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// scanDirectives indexes //soclint:ignore directives per file and line
// (test files included — tests carry exceptions too). The directive
// covers its own line and, when it stands alone on a line, the
// following line as well; the mapped value is the directive's reason.
func scanDirectives(pkg *Package, findings *[]Finding) map[string]map[int]map[string]string {
	out := map[string]map[int]map[string]string{}
	files := append(append([]*ast.File(nil), pkg.Files...), pkg.TestFiles...)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//soclint:ignore")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				names, reason := splitDirective(text)
				if len(names) == 0 || reason == "" {
					*findings = append(*findings, Finding{
						Pos:      pos,
						Analyzer: directiveAnalyzer,
						Message:  "malformed ignore directive: want //soclint:ignore <analyzer>[,<analyzer>] <reason>",
					})
					continue
				}
				file := out[pos.Filename]
				if file == nil {
					file = map[int]map[string]string{}
					out[pos.Filename] = file
				}
				for _, line := range []int{pos.Line, pos.Line + 1} {
					set := file[line]
					if set == nil {
						set = map[string]string{}
						file[line] = set
					}
					for _, n := range names {
						set[n] = reason
					}
				}
			}
		}
	}
	return out
}

func splitDirective(text string) (names []string, reason string) {
	fields := strings.Fields(text)
	if len(fields) < 2 {
		return nil, ""
	}
	for _, n := range strings.Split(fields[0], ",") {
		if n != "" {
			names = append(names, n)
		}
	}
	return names, strings.Join(fields[1:], " ")
}

// DefaultAnalyzers returns the full registry in reporting order.
func DefaultAnalyzers() []*Analyzer {
	return []*Analyzer{
		AtomicDiscipline,
		BodyClose,
		CallPlaneDo,
		ClockDiscipline,
		CtxPropagate,
		ErrDiscard,
		FsyncDiscipline,
		GoLeak,
		LockOrder,
		LockSafe,
		NoClientLiteral,
		PoolReset,
	}
}

// AnalyzerByName returns the registered analyzer with the given name.
func AnalyzerByName(name string) (*Analyzer, bool) {
	for _, a := range DefaultAnalyzers() {
		if a.Name == name {
			return a, true
		}
	}
	return nil, false
}

// ---- shared type/AST helpers ----

// IsPkgFunc reports whether fn is the package-level function path.name.
func IsPkgFunc(fn *types.Func, path, name string) bool {
	if fn == nil || fn.Pkg() == nil || fn.Name() != name || fn.Pkg().Path() != path {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// IsMethod reports whether fn is a method named name whose receiver's
// named type (after pointer stripping) is path.recvName.
func IsMethod(fn *types.Func, path, recvName, name string) bool {
	if fn == nil || fn.Name() != name {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return IsNamedType(sig.Recv().Type(), path, recvName)
}

// IsNamedType reports whether t (after pointer stripping) is the named
// type path.name.
func IsNamedType(t types.Type, path, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == path
}
