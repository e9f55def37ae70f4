package sched

import (
	"fmt"
	"math"

	"hare/internal/core"
	"hare/internal/sched/relax"
)

// HareStrict is the strict-gang ablation of Hare: it keeps the same
// relaxation-driven round ordering, but schedules every round
// scale-fixed in the *traditional* sense — all of a round's tasks
// must start simultaneously on distinct GPUs (Fig. 4(a)), instead of
// Hare's relaxed rule that lets them run sequentially when that
// finishes earlier (Fig. 4(b)). The gap between HareStrict and Hare
// quantifies the benefit of relaxed scale-fixed synchronization.
type HareStrict struct{}

// NewHareStrict returns the strict-gang ablation scheduler.
func NewHareStrict() *HareStrict { return &HareStrict{} }

// Name implements Algorithm.
func (*HareStrict) Name() string { return "Hare-strict" }

// Schedule implements Algorithm.
func (*HareStrict) Schedule(in *core.Instance) (*core.Schedule, error) {
	if err := validateGang(in); err != nil {
		return nil, err
	}
	sol, err := relax.Fluid(in)
	if err != nil {
		return nil, fmt.Errorf("hare-strict: relaxation failed: %w", err)
	}
	pi, err := roundOrder(in, sol)
	if err != nil {
		return nil, fmt.Errorf("hare-strict: %w", err)
	}

	s := core.NewSchedule(in)
	g := newGangState(in)
	barrier := make([]float64, len(in.Jobs))
	for _, j := range in.Jobs {
		barrier[j.ID] = j.Arrival
	}
	for _, rk := range pi {
		j := in.Jobs[rk.job]
		t0 := g.earliestForScale(j.Scale, barrier[rk.job])
		gpus := pickFastest(in, j, g.idleAt(t0), j.Scale)
		var roundEnd float64
		for k, m := range gpus {
			s.Place(core.TaskRef{Job: j.ID, Round: rk.round, Index: k}, m, t0)
			end := t0 + in.Train[j.ID][m] + in.Sync[j.ID][m]
			roundEnd = math.Max(roundEnd, end)
			g.free[m] = t0 + in.Train[j.ID][m]
		}
		barrier[rk.job] = roundEnd
	}
	return s, nil
}
