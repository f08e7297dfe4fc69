package lint

import (
	"go/ast"
	"strings"

	"soc/internal/lint/flow"
)

// FsyncDiscipline enforces the crash-safety discipline of the durable
// storage engine (DESIGN.md "Crash-safe durable storage"): in packages
// that persist state the stack promises to recover (Config.DurableScope
// — the WAL engine, the XML record store, registry persistence and the
// repository server), a file rename that publishes data must be preceded
// by an fsync, and the fsync-free conveniences are banned outright:
//
//   - os.WriteFile writes without syncing the file or its directory; a
//     crash can leave the path empty, partial or absent even after the
//     call returned. Use wal.WriteFileAtomic.
//   - os.Rename with no lexically preceding Sync call in the same
//     function publishes whatever happens to have reached the disk: the
//     classic rename-before-fsync bug that surfaces as a zero-length
//     file after power loss.
//
// Thin FS adapters that merely forward a rename (the caller owns the
// sync sequencing) carry //soclint:ignore directives explaining why.
var FsyncDiscipline = &Analyzer{
	Name: "fsyncdiscipline",
	Doc:  "requires fsync before publishing renames and bans os.WriteFile in durability-scoped packages",
	Run:  runFsyncDiscipline,
}

func runFsyncDiscipline(pass *Pass) error {
	if !InScope(pass.Path, pass.Config.DurableScope) {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := flow.CalleeFunc(pass.Info, call)
			switch {
			case IsPkgFunc(fn, "os", "WriteFile"):
				pass.Reportf(call.Pos(), "os.WriteFile in a durability-scoped package: nothing is fsynced, a crash can lose or tear the file after the call returned; use wal.WriteFileAtomic")
			case IsPkgFunc(fn, "os", "Rename"):
				if !syncPrecedes(file, call) {
					pass.Reportf(call.Pos(), "os.Rename without a preceding fsync: the rename publishes data that may not have reached the disk; Sync the file (and the directory) first, or use wal.WriteFileAtomic")
				}
			}
			return true
		})
	}
	return nil
}

// syncPrecedes reports whether any call to a function or method whose
// name contains "sync" (Sync, SyncDir, fsyncAll, ...) lexically precedes
// the rename inside its enclosing function. The check is deliberately
// lexical, not flow-sensitive: a Sync on any earlier line of the same
// function counts, because the repository idiom is a straight-line
// write → sync → rename sequence and a conditional sync would be its own
// bug.
func syncPrecedes(file *ast.File, rename *ast.CallExpr) bool {
	path := enclosingPath(file, rename)
	var body *ast.BlockStmt
	for i := len(path) - 1; i >= 0; i-- {
		switch n := path[i].(type) {
		case *ast.FuncDecl:
			body = n.Body
		case *ast.FuncLit:
			body = n.Body
		}
		if body != nil {
			break
		}
	}
	if body == nil {
		return false
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found || n == nil {
			return false
		}
		if n.Pos() >= rename.Pos() {
			return false // at or past the rename: nothing here precedes it
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.End() > rename.Pos() {
			return true // not a call, or a call enclosing the rename
		}
		var name string
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			name = fun.Name
		case *ast.SelectorExpr:
			name = fun.Sel.Name
		}
		if strings.Contains(strings.ToLower(name), "sync") {
			found = true
		}
		return !found
	})
	return found
}
