package lint

import (
	"go/ast"
	"go/types"
)

// ClockDiscipline enforces the virtual-clock discipline of the
// dependability stack: packages whose behavior the deterministic
// simulation harness must control in virtual time (Config.ClockScope;
// DefaultConfig lists them) may not read or wait on the wall clock
// directly. Every timestamp, sleep, timer, ticker and deadline there must
// go through the vtime.Clock the context carries (vtime.Now, vtime.Sleep,
// vtime.ClockFrom(ctx).WithTimeout), because one stray time.Now,
// time.NewTimer or context.WithTimeout is exactly one site where a
// simulated run silently leaks real time and stops being reproducible.
// Naming vtime.Real outside package vtime is the same leak spelled as a
// Clock, so it is a finding too. The sanctioned wall-clock sites —
// vtime.Real's own methods, and the health checker's shutdown watchdog —
// carry //soclint:ignore directives explaining why.
var ClockDiscipline = &Analyzer{
	Name: "clockdiscipline",
	Doc:  "forbids direct wall-clock reads/waits/deadlines (time.Now, time.Sleep, timers, context.WithTimeout, vtime.Real) in clock-disciplined packages; use the context's vtime.Clock",
	Run:  runClockDiscipline,
}

// wallClockFuncs are, per package, the functions that read or wait on
// the wall clock. Pure-arithmetic helpers (time.Duration, time.Unix,
// time.Parse, ...) are fine anywhere. context.WithTimeout and
// context.WithDeadline arm a wall-clock timer: a deadline set with them
// never fires in virtual time, so it must come from the clock's own
// WithTimeout.
var wallClockFuncs = map[string]map[string]bool{
	"time": {
		"Now":       true,
		"Sleep":     true,
		"Since":     true,
		"Until":     true,
		"After":     true,
		"AfterFunc": true,
		"Tick":      true,
		"NewTimer":  true,
		"NewTicker": true,
	},
	"context": {
		"WithTimeout":  true,
		"WithDeadline": true,
	},
}

// vtimePath is the package whose Real clock only vtime itself may name.
const vtimePath = "soc/internal/vtime"

func runClockDiscipline(pass *Pass) error {
	if !InScope(pass.Path, pass.Config.ClockScope) {
		return nil
	}
	// Every *use* of the named functions is a leak, not just direct
	// calls: `now = time.Now` stores the wall clock behind a function
	// value and defeats the discipline just as thoroughly as calling it.
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if tn, ok := pass.Info.Uses[sel.Sel].(*types.TypeName); ok {
				if tn.Pkg() != nil && tn.Pkg().Path() == vtimePath && tn.Name() == "Real" {
					pass.Reportf(sel.Pos(), "vtime.Real in a clock-disciplined package is the wall clock behind the context's back; read vtime.ClockFrom(ctx)")
				}
				return true
			}
			fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil || !wallClockFuncs[fn.Pkg().Path()][fn.Name()] {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
				return true
			}
			pass.Reportf(sel.Pos(), "wall-clock %s.%s in a clock-disciplined package breaks deterministic simulation; consult vtime.Clock (vtime.Now/vtime.Sleep, ClockFrom(ctx).WithTimeout or an injected clock)", fn.Pkg().Name(), fn.Name())
			return true
		})
	}
	return nil
}
