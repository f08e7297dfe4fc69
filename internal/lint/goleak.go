package lint

import (
	"go/types"

	"soc/internal/lint/flow"
)

// GoLeak demands a provable termination path for every `go` statement in
// the packages it runs on. A goroutine passes if any of these disciplines
// holds:
//
//   - WaitGroup pairing: the body (transitively, over synchronous calls)
//     calls sync.WaitGroup.Done — someone is joining it.
//   - Cancellation: the body transitively selects or receives on some
//     ctx.Done(), so cancelling the context unblocks it.
//   - Bounded body: every channel operation the body can reach is
//     provably non-blocking-forever — sends go to buffered channels or
//     channels something in the module receives from, receives come from
//     channels something sends to or closes, and condition-free loops
//     have a closed-channel escape. Unknown callees (stdlib, other
//     modules) are assumed to return; unresolvable channel expressions
//     are assumed fine. Both are under-approximations, documented in
//     DESIGN, that keep the rule usable without whole-program pointer
//     analysis.
//
// Additionally, inside Config.RequestPathScope, a `go` statement in a
// loop must be joined (WaitGroup pairing) or issued from
// reliability.Bulkhead — per-request unbounded fan-out is how hosts fall
// over under load, which is exactly what the bulkhead exists to prevent.
var GoLeak = &Analyzer{
	Name:  "goleak",
	Doc:   "every spawned goroutine needs a provable termination path; request-path loops must bound their fan-out",
	Tests: true,
	Flow:  true,
	Run:   runGoLeak,
}

func runGoLeak(pass *Pass) error {
	g := pass.FlowGraph()
	for _, site := range g.Spawns() {
		if !pass.InFiles(site.Pos) {
			continue // another package's pass owns this site
		}
		v := classifySpawn(g, site)
		if v.reason != "" {
			pass.Reportf(site.Pos, "goroutine has no provable termination path: %s (join it with a WaitGroup, select on ctx.Done, or bound its channel operations)", v.reason)
			continue
		}
		if site.InLoop && InScope(site.In.Pkg.Path, pass.Config.RequestPathScope) &&
			!v.joined && !isBulkheadFunc(site.In) {
			pass.Reportf(site.Pos, "request-path loop spawns an unjoined goroutine per iteration; join with a WaitGroup or route through reliability.Bulkhead")
		}
	}
	return nil
}

// spawnVerdict is the analysis result for one go statement.
type spawnVerdict struct {
	// joined is set when the WaitGroup discipline proved termination —
	// the one discipline that also bounds request-path fan-out.
	joined bool
	// reason is non-empty when no discipline applies.
	reason string
}

func classifySpawn(g *flow.Graph, site flow.SpawnSite) spawnVerdict {
	t := site.Target
	if t == nil {
		if site.Obj != nil {
			// Known callee outside the graph (stdlib or vendored):
			// assumed to return, like any other unknown callee.
			return spawnVerdict{}
		}
		return spawnVerdict{reason: "it runs an opaque function value whose body this analysis cannot see"}
	}
	if callsWGDone(g, t, map[*flow.Func]bool{}, 6) {
		return spawnVerdict{joined: true}
	}
	if channelJoined(t, site.In) {
		return spawnVerdict{joined: true}
	}
	if g.ReachesDoneSelect(t, 8) {
		return spawnVerdict{}
	}
	if reason := unboundedReason(g, t, map[*flow.Func]bool{}, 6); reason != "" {
		return spawnVerdict{reason: reason}
	}
	return spawnVerdict{}
}

// callsWGDone reports whether f transitively (static/deferred calls,
// nested literals) calls sync.WaitGroup.Done.
func callsWGDone(g *flow.Graph, f *flow.Func, visited map[*flow.Func]bool, depth int) bool {
	if f == nil || depth < 0 || visited[f] {
		return false
	}
	visited[f] = true
	for _, c := range f.Calls {
		if c.Obj != nil && IsMethod(c.Obj, "sync", "WaitGroup", "Done") {
			return true
		}
		if (c.Kind == flow.Static || c.Kind == flow.Deferred) && c.Callee != nil &&
			callsWGDone(g, c.Callee, visited, depth-1) {
			return true
		}
	}
	return false
}

// unboundedReason returns a human-readable reason the body can block
// forever, or "" when every reachable operation is provably bounded.
func unboundedReason(g *flow.Graph, f *flow.Func, visited map[*flow.Func]bool, depth int) string {
	if f == nil || depth < 0 || visited[f] {
		return ""
	}
	visited[f] = true
	if f.Summary.SelectsOnDone {
		return "" // cancellable from here on down
	}
	if len(f.Summary.InfiniteFor) > 0 && !hasClosedEscape(g, f) {
		return f.Name + " loops forever with no ctx.Done select or closed-channel escape"
	}
	for _, s := range f.Summary.Sends {
		if s.Chan.Zero() || s.NonBlocking || escapeClosed(g, s.EscapeChans) {
			continue // unresolved, select-with-default, or escapable
		}
		cf := g.Chan(s.Chan.Key)
		if cf == nil || cf.Buffered || len(cf.Recvs) > 0 || len(cf.Ranges) > 0 {
			continue
		}
		return "send on " + s.Chan.Name + " can block forever (unbuffered, and nothing in the module receives from it)"
	}
	for _, r := range f.Summary.Recvs {
		if r.Chan.Zero() || r.NonBlocking || escapeClosed(g, r.EscapeChans) {
			continue
		}
		cf := g.Chan(r.Chan.Key)
		if cf == nil || len(cf.Sends) > 0 || len(cf.Closes) > 0 {
			continue
		}
		return "receive on " + r.Chan.Name + " can block forever (nothing in the module sends to or closes it)"
	}
	for _, c := range f.Calls {
		if (c.Kind == flow.Static || c.Kind == flow.Deferred) && c.Callee != nil && c.Callee != f {
			if reason := unboundedReason(g, c.Callee, visited, depth-1); reason != "" {
				return reason
			}
		}
	}
	return ""
}

// channelJoined recognizes the result-funnel join: the spawned body sends
// its result on a channel the spawning function receives from, so the
// spawner drains its own fan-out (the errs-channel pattern). An
// approximation: the drain count is not checked, so stragglers must
// terminate by another discipline — which the bounded-body check
// already enforced for their sends (buffered or escapable).
func channelJoined(t, in *flow.Func) bool {
	if in == nil {
		return false
	}
	for _, s := range t.Summary.Sends {
		if s.Chan.Zero() {
			continue
		}
		for _, r := range in.Summary.Recvs {
			if r.Chan.Key == s.Chan.Key {
				return true
			}
		}
	}
	return false
}

// escapeClosed reports whether any sibling select case receives from a
// channel the module closes somewhere.
func escapeClosed(g *flow.Graph, escapes []flow.Class) bool {
	for _, e := range escapes {
		if cf := g.Chan(e.Key); cf != nil && len(cf.Closes) > 0 {
			return true
		}
	}
	return false
}

// hasClosedEscape reports a receive (or range) in f on a channel some
// module code closes — the quit-channel loop escape.
func hasClosedEscape(g *flow.Graph, f *flow.Func) bool {
	for _, r := range f.Summary.Recvs {
		if r.Chan.Zero() {
			continue
		}
		if cf := g.Chan(r.Chan.Key); cf != nil && len(cf.Closes) > 0 {
			return true
		}
	}
	return false
}

// isBulkheadFunc reports whether f is a method of reliability.Bulkhead —
// the sanctioned bounded worker pool for request-path fan-out.
func isBulkheadFunc(f *flow.Func) bool {
	if f.Obj == nil {
		return false
	}
	sig, ok := f.Obj.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return IsNamedType(sig.Recv().Type(), "soc/internal/reliability", "Bulkhead")
}
