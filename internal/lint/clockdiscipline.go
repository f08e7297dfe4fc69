package lint

import (
	"go/ast"
	"go/types"
)

// ClockDiscipline enforces the virtual-clock discipline of the
// dependability stack: packages whose behavior the deterministic
// simulation harness must control in virtual time (Config.ClockScope —
// reliability, respcache, faultinject) may not read or wait on the wall
// clock directly. Every timestamp, sleep, timer, ticker and deadline
// there must go through the vtime.Clock threaded via context (vtime.Now
// / vtime.Sleep / ClockFrom(ctx).WithTimeout / an injected clock),
// because one stray time.Now, time.NewTimer or context.WithTimeout is
// exactly one site where a simulated run silently leaks real time and
// stops being reproducible. The sanctioned wall-clock sites — vtime.Real
// itself, and the health checker's shutdown watchdog — carry
// //soclint:ignore directives explaining why.
var ClockDiscipline = &Analyzer{
	Name: "clockdiscipline",
	Doc:  "forbids direct wall-clock reads/waits/deadlines (time.Now, time.Sleep, timers, context.WithTimeout) in clock-disciplined packages; use vtime.Clock",
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
