package faults

import (
	"fmt"
	"sort"
	"strings"
)

// Engine is a class of execution engine, ordered by how much of the
// -fault-spec grammar it can replay: each class replays everything the
// one before it does, plus the clauses clauseNeeds lists for it.
type Engine int

const (
	// InProcess is the in-process testbed: executor goroutines that
	// cannot be lost, calling the control plane directly.
	InProcess Engine = iota
	// Simulator can also lose a GPU and re-plan.
	Simulator
	// Distributed is the rpcnet control plane with executors dialling in
	// over TCP or an in-memory pipe: it also has a network to disturb.
	Distributed
	// Orchestrated is Distributed under a supervisor that kills and
	// recovers the coordinator — the chaos harness.
	Orchestrated
)

func (e Engine) String() string {
	return [...]string{"in-process testbed", "simulator", "distributed control plane", "chaos harness (harechaos)"}[e]
}

// clause is one -fault-spec key: the least capable engine class that
// replays it and the shape of its value (Parse documents the letters).
type clause struct {
	need  Engine
	value string
}

// clauseNeeds is the one fault-clause × engine table (rendered in
// docs/ROBUSTNESS.md and, through SpecHelp, in every -fault-spec help
// text). seed and netseed only seed streams other clauses draw from, so
// on their own they are replayable anywhere.
var clauseNeeds = map[string]clause{
	"rate": {InProcess, "F"}, "seed": {InProcess, "N"}, "slow": {InProcess, "GxF"}, "netseed": {InProcess, "N"},
	"fail": {Simulator, "G@T"}, "crash": {Simulator, "G@T"},
	"netdrop": {Distributed, "F"}, "netdup": {Distributed, "F"}, "netreorder": {Distributed, "F"},
	"netdelay": {Distributed, "MIN~MAX"}, "partition": {Distributed, "G@T+D"},
	"codown": {Orchestrated, "T+D"},
}

// SpecHelp renders the -fault-spec grammar from clauseNeeds, grouped by
// the least capable engine class that replays each clause: the help
// text of every CLI that takes the flag.
func SpecHelp() string {
	keys := make([]string, 0, len(clauseNeeds))
	for key := range clauseNeeds {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString("comma-separated key=value clauses, listed under the least capable engine that replays them (each engine also replays the ones before it)")
	for e := InProcess; e <= Orchestrated; e++ {
		fmt.Fprintf(&b, "; %s:", e)
		for _, key := range keys {
			if c := clauseNeeds[key]; c.need == e {
				fmt.Fprintf(&b, " %s=%s", key, c.value)
			}
		}
	}
	b.WriteString("; fail, crash, slow, partition and codown may repeat (docs/ROBUSTNESS.md, \"Fault clauses and engines\")")
	return b.String()
}

// CheckEngine reports whether engine class e can replay every clause of
// the plan, naming the first clause it cannot and the engines that can:
// a clause an engine would silently ignore is an error, not a no-op.
// Engine entry points call it, so a plan is checked wherever it is run
// from. Nil-safe.
func (p *Plan) CheckEngine(e Engine) error {
	if p.Empty() {
		return nil // the simulator's hot path: no plan, no allocation
	}
	for _, clause := range strings.Split(p.String(), ",") {
		key, _, _ := strings.Cut(clause, "=")
		if need := clauseNeeds[key].need; need > e {
			able := "the " + Orchestrated.String()
			for ok := Orchestrated - 1; ok >= need; ok-- {
				able = "the " + ok.String() + ", " + able
			}
			return fmt.Errorf("faults: the %s cannot replay %s; %s clauses run on %s", e, clause, key, able)
		}
	}
	return nil
}
