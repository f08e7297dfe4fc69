package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"soc/internal/lint/flow"
)

// Package is one parsed and typechecked module package.
type Package struct {
	// Path is the import path, Dir the directory holding the sources.
	Path string
	Dir  string

	Fset  *token.FileSet
	Files []*ast.File
	// TestFiles are the package's _test.go files when the Loader was
	// asked to analyze tests; Info and Types then cover Files and
	// TestFiles together. For an external test package (package
	// foo_test), Files is empty and ExternalTest is set — Path still
	// names the tested package so scope policies apply unchanged.
	TestFiles    []*ast.File
	ExternalTest bool
	Types        *types.Package
	Info         *types.Info
}

// FlowPackage adapts the package for the interprocedural flow layer:
// the fact base covers sources and test files alike.
func (p *Package) FlowPackage() *flow.Package {
	files := append(append([]*ast.File(nil), p.Files...), p.TestFiles...)
	return &flow.Package{Path: p.Path, Files: files, Info: p.Info}
}

// Loader parses and typechecks packages of one module from source. It is
// built purely on go/parser + go/types: module-local imports are loaded
// recursively from the module directory, and standard-library imports go
// through go/importer's source importer (which reads GOROOT sources), so
// no compiled export data and no external tooling is required.
//
// A Loader caches every package it typechecks, so the cost of checking
// the standard library is paid once per Loader, not once per package.
type Loader struct {
	// ModuleDir is the absolute module root (the directory with go.mod).
	ModuleDir string
	// ModulePath is the module path declared in go.mod.
	ModulePath string
	// GoVersion is the language version declared in go.mod ("go1.22").
	GoVersion string
	// Tests makes Load return packages whose _test.go files are parsed
	// and typechecked alongside the sources. The test-inclusive check
	// is a SEPARATE pass from the import-resolution check: importing
	// packages always see the test-free package, so a test file
	// importing a package that imports its own package does not fake
	// an import cycle. LoadDir ignores this knob (fixtures are
	// test-free by construction).
	Tests bool

	fset    *token.FileSet
	std     types.Importer
	pkgs    map[string]*Package
	tpkgs   map[string]*Package // test-inclusive analysis variants
	xpkgs   map[string]*Package // external (package foo_test) packages
	loading map[string]bool
}

// NewLoader returns a loader rooted at moduleDir, reading the module
// path and language version from its go.mod.
func NewLoader(moduleDir string) (*Loader, error) {
	abs, err := filepath.Abs(moduleDir)
	if err != nil {
		return nil, err
	}
	modPath, goVersion, err := readGoMod(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		ModuleDir:  abs,
		ModulePath: modPath,
		GoVersion:  goVersion,
		fset:       fset,
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       map[string]*Package{},
		tpkgs:      map[string]*Package{},
		xpkgs:      map[string]*Package{},
		loading:    map[string]bool{},
	}, nil
}

// ModuleRoot walks up from the working directory to the directory
// holding go.mod.
func ModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

func readGoMod(path string) (modPath, goVersion string, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", "", fmt.Errorf("lint: reading %s: %w", path, err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok && modPath == "" {
			modPath = strings.TrimSpace(rest)
		}
		if rest, ok := strings.CutPrefix(line, "go "); ok && goVersion == "" {
			goVersion = "go" + strings.TrimSpace(rest)
		}
	}
	if modPath == "" {
		return "", "", fmt.Errorf("lint: no module line in %s", path)
	}
	return modPath, goVersion, nil
}

// Import implements types.Importer over the hybrid resolution scheme.
// Importers always resolve to the test-free check of a package, even
// when the Loader analyzes tests — see the Tests field.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if l.local(path) {
		pkg, err := l.LoadDir(l.dirFor(path), path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// FileSet returns the loader's shared token.FileSet — the one coordinate
// system every loaded package and flow graph position lives in.
func (l *Loader) FileSet() *token.FileSet { return l.fset }

func (l *Loader) local(path string) bool {
	return path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/")
}

// dirFor maps a module-local import path to its directory.
func (l *Loader) dirFor(path string) string {
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
	return filepath.Join(l.ModuleDir, filepath.FromSlash(rel))
}

// Load typechecks the module-local package with the given import path.
// When Tests is set, the returned package's Info and Types additionally
// cover its in-package _test.go files (a separate analysis check; the
// package other code imports stays test-free).
func (l *Loader) Load(path string) (*Package, error) {
	if !l.local(path) {
		return nil, fmt.Errorf("lint: %q is not in module %s", path, l.ModulePath)
	}
	if !l.Tests {
		return l.LoadDir(l.dirFor(path), path)
	}
	return l.loadWithTests(path)
}

// loadWithTests builds the test-inclusive analysis variant of path.
func (l *Loader) loadWithTests(path string) (*Package, error) {
	if pkg, ok := l.tpkgs[path]; ok {
		return pkg, nil
	}
	dir := l.dirFor(path)
	inTests, _, err := l.parseTestFiles(dir)
	if err != nil {
		return nil, err
	}
	base, baseErr := l.LoadDir(dir, path)
	if baseErr != nil {
		// A test-only directory (the module root's integration suite):
		// the "package" is nothing but its in-package test files.
		if len(inTests) == 0 {
			return nil, baseErr
		}
		var mine []*ast.File
		for _, f := range inTests {
			if !strings.HasSuffix(f.Name.Name, "_test") {
				mine = append(mine, f)
			}
		}
		if len(mine) == 0 {
			return nil, baseErr
		}
		pkg, err := l.checkFiles(path, dir, nil, mine)
		if err != nil {
			return nil, err
		}
		l.tpkgs[path] = pkg
		return pkg, nil
	}
	// Keep only test files matching the package clause; foo_test files
	// belong to the external test package (see ExternalTests).
	var mine []*ast.File
	for _, f := range inTests {
		if f.Name.Name == base.Types.Name() {
			mine = append(mine, f)
		}
	}
	if len(mine) == 0 {
		l.tpkgs[path] = base
		return base, nil
	}
	pkg, err := l.checkFiles(path, dir, base.Files, mine)
	if err != nil {
		return nil, err
	}
	l.tpkgs[path] = pkg
	return pkg, nil
}

// ExternalTests returns the external test package (package foo_test) of
// path, or nil when the directory has none. The returned package keeps
// Path == path so scope policies treat it as part of the tested package.
func (l *Loader) ExternalTests(path string) (*Package, error) {
	if pkg, ok := l.xpkgs[path]; ok {
		return pkg, nil
	}
	dir := l.dirFor(path)
	inTests, _, err := l.parseTestFiles(dir)
	if err != nil {
		return nil, err
	}
	var ext []*ast.File
	for _, f := range inTests {
		if strings.HasSuffix(f.Name.Name, "_test") {
			ext = append(ext, f)
		}
	}
	if len(ext) == 0 {
		l.xpkgs[path] = nil
		return nil, nil
	}
	// Warm the tested package so imports of it resolve from cache; a
	// test-only directory has none, which is fine — the external files
	// then simply cannot import it.
	_, _ = l.LoadDir(dir, path)
	pkg, err := l.checkFiles(path, dir, nil, ext)
	if err != nil {
		return nil, err
	}
	pkg.ExternalTest = true
	l.xpkgs[path] = pkg
	return pkg, nil
}

// parseTestFiles parses every _test.go file of dir, returning the files
// and their names.
func (l *Loader) parseTestFiles(dir string) ([]*ast.File, []string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	var files []*ast.File
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, err
		}
		files = append(files, f)
		names = append(names, name)
	}
	return files, names, nil
}

// checkFiles typechecks sources+tests as one fresh package under path.
func (l *Loader) checkFiles(path, dir string, sources, tests []*ast.File) (*Package, error) {
	all := append(append([]*ast.File(nil), sources...), tests...)
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: l, GoVersion: l.GoVersion}
	tpkg, err := conf.Check(path, l.fset, all, info)
	if err != nil {
		return nil, fmt.Errorf("lint: typechecking %s (with tests): %w", path, err)
	}
	return &Package{Path: path, Dir: dir, Fset: l.fset, Files: sources, TestFiles: tests, Types: tpkg, Info: info}, nil
}

// LoadDir typechecks the package in dir under the given import path. It
// is the entry point for both module packages and testdata fixtures.
func (l *Loader) LoadDir(dir, path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	names, err := goSources(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go sources in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: l, GoVersion: l.GoVersion}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: typechecking %s: %w", path, err)
	}
	pkg := &Package{Path: path, Dir: dir, Fset: l.fset, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = pkg
	return pkg, nil
}

// goSources lists the non-test .go files of dir, sorted.
func goSources(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// hasTestSources reports whether dir holds any _test.go file.
func hasTestSources(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, "_test.go") &&
			!strings.HasPrefix(name, ".") && !strings.HasPrefix(name, "_") {
			return true
		}
	}
	return false
}

// ModulePackages walks the module tree and returns the import paths of
// every buildable package, skipping testdata, vendor, hidden and
// underscore directories — the same set `go build ./...` would see (plus
// test-only directories when Tests is set).
func (l *Loader) ModulePackages() ([]string, error) {
	var paths []string
	err := filepath.WalkDir(l.ModuleDir, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != l.ModuleDir && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		srcs, err := goSources(p)
		if err != nil {
			return err
		}
		if len(srcs) == 0 {
			// Test-only directories (the module root's integration suite)
			// count as packages when the loader analyzes tests.
			if !l.Tests || !hasTestSources(p) {
				return nil
			}
		}
		rel, err := filepath.Rel(l.ModuleDir, p)
		if err != nil {
			return err
		}
		if rel == "." {
			paths = append(paths, l.ModulePath)
		} else {
			paths = append(paths, l.ModulePath+"/"+filepath.ToSlash(rel))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	return paths, nil
}
