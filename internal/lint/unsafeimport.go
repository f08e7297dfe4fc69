package lint

import (
	"go/ast"
	"go/types"
	"strconv"
)

// UnsafeImport keeps the module's memory safety checkable by grep: every
// escape from the type system must carry a //soclint:ignore directive
// saying why it is sound. It flags two things outside the benchmark
// harness (soc/bench, whose sample buffer is a shared-memory mapping):
//
//   - an import of "unsafe";
//   - a conversion of an unsafe.Pointer value to another type. The
//     reflect package hands such values out (reflect.Value.UnsafePointer)
//     to code that never imports unsafe, so the import alone would miss
//     the kind of pointer cast that matters most.
var UnsafeImport = &Analyzer{
	Name:  "unsafeimport",
	Doc:   "flags unsafe imports and unsafe.Pointer conversions outside soc/bench unless a directive justifies them",
	Tests: true,
	Run:   runUnsafeImport,
}

// unsafeExempt is the one place unsafe needs no per-site reason.
var unsafeExempt = []string{"soc/bench"}

func runUnsafeImport(pass *Pass) error {
	if InScope(pass.Path, unsafeExempt) {
		return nil
	}
	for _, file := range pass.Files {
		for _, spec := range file.Imports {
			if path, err := strconv.Unquote(spec.Path.Value); err == nil && path == "unsafe" {
				pass.Reportf(spec.Pos(), `import of "unsafe": justify it with //soclint:ignore unsafeimport <reason>, or stay inside the type system`)
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			if tv, ok := pass.Info.Types[call.Fun]; !ok || !tv.IsType() || isUnsafePointer(tv.Type) {
				return true
			}
			if isUnsafePointer(pass.Info.TypeOf(call.Args[0])) {
				pass.Reportf(call.Pos(), "conversion of an unsafe.Pointer to %s: justify it with //soclint:ignore unsafeimport <reason>, or stay inside the type system",
					types.TypeString(pass.Info.TypeOf(call), types.RelativeTo(pass.Pkg)))
			}
			return true
		})
	}
	return nil
}

func isUnsafePointer(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Kind() == types.UnsafePointer
}
