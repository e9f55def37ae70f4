package lint

import (
	"go/ast"
)

// wallClockFuncs are the time package entry points that read or wait
// on the machine clock. Simulated-time code must instead derive time
// from the run's virtual clock (the simulator's event time, or the
// testbed Clock which owns the one sanctioned wall-clock anchor).
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// WallTime forbids wall-clock reads in simulated-time packages. A
// single time.Now in the replay path makes WeightedJCT depend on host
// load, breaking seed reproducibility across the engines. Real-time
// packages (rpcnet, obs) are exempted by the policy table; testbed
// enforces it, with its wall Clock the annotated exception.
var WallTime = &Analyzer{
	Name:  "walltime",
	Doc:   "forbids time.Now/Since/Sleep and friends in simulated-time packages",
	Level: func(r Rules) Level { return r.WallTime },
	Run:   runWallTime,
}

func runWallTime(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkgPathOf(p.Info, sel.X) != "time" || !wallClockFuncs[sel.Sel.Name] {
				return true
			}
			p.Reportf(sel.Pos(),
				"wall-clock time.%s in a simulated-time package; use the run's virtual clock instead (see docs/STATIC_ANALYSIS.md)",
				sel.Sel.Name)
			return true
		})
	}
}
