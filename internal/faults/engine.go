package faults

import (
	"fmt"
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
	// over TCP: it also has a network to disturb.
	Distributed
	// Orchestrated is Distributed under a supervisor that kills and
	// recovers the coordinator — the chaos harness.
	Orchestrated
)

func (e Engine) String() string {
	return [...]string{"in-process testbed", "simulator", "distributed control plane", "chaos harness (harechaos)"}[e]
}

// clauseNeeds is the one fault-clause × engine table (rendered in
// docs/ROBUSTNESS.md): the least capable engine class that replays each
// -fault-spec key. seed and netseed only seed streams other clauses
// draw from, so on their own they are replayable anywhere.
var clauseNeeds = map[string]Engine{
	"rate": InProcess, "seed": InProcess, "slow": InProcess, "netseed": InProcess,
	"fail": Simulator, "crash": Simulator,
	"netdrop": Distributed, "netdup": Distributed, "netreorder": Distributed,
	"netdelay": Distributed, "partition": Distributed,
	"codown": Orchestrated,
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
		if need := clauseNeeds[key]; need > e {
			able := "the " + Orchestrated.String()
			for ok := Orchestrated - 1; ok >= need; ok-- {
				able = "the " + ok.String() + ", " + able
			}
			return fmt.Errorf("faults: the %s cannot replay %s; %s clauses run on %s", e, clause, key, able)
		}
	}
	return nil
}
