package sched

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"hare/internal/core"
	"hare/internal/obs"
	"hare/internal/sched/relax"
)

// GPUPick selects how Algorithm 1's line 12 chooses a GPU for the
// next task.
type GPUPick int

const (
	// PickEarliestAvailable is the paper's rule: m* = argmin_m φ_m.
	PickEarliestAvailable GPUPick = iota
	// PickEarliestFinish is the ablation variant: m* minimizes the
	// task's finish time max(t_i, φ_m) + T^c_{i,m}, trading a later
	// slot on a fast GPU against an early slot on a slow one.
	PickEarliestFinish
)

func (p GPUPick) String() string {
	switch p {
	case PickEarliestAvailable:
		return "earliest-available"
	case PickEarliestFinish:
		return "earliest-finish"
	}
	return fmt.Sprintf("GPUPick(%d)", int(p))
}

// Hare implements the paper's Algorithm 1: solve the relaxed problem,
// sort tasks by middle completion time H_i, then list-schedule each
// task at the earliest feasible time on the chosen GPU. Tasks of the
// same round may land sequentially on one GPU — the relaxed
// scale-fixed synchronization that distinguishes Hare from strict
// gang scheduling.
type Hare struct {
	// Pick selects the line-12 GPU choice; the zero value is the
	// paper's earliest-available rule.
	Pick GPUPick
	// name overrides the display name (used by ablation variants).
	name string
	// rec, when set, traces every placement decision: the task, its
	// relaxation sort key H_i, the chosen GPU and the planned start.
	rec *obs.Recorder
}

// SetRecorder attaches an observability recorder; each Schedule call
// then emits one EvSchedDecision per task placement.
func (h *Hare) SetRecorder(r *obs.Recorder) { h.rec = r }

// NewHare returns the Hare scheduler. It uses the earliest-finish
// GPU pick: the paper's relaxation carries per-GPU assignment
// information (ŷ_{i,m}) into Algorithm 1 that our solver-free fluid
// relaxation does not, so the finish-time-aware pick restores the
// heterogeneity signal at assignment time. The paper-literal
// argmin-φ pick is available as NewHareEA for the ablation study
// (experiments.AblationEFT), where it measurably underperforms.
func NewHare() *Hare { return &Hare{Pick: PickEarliestFinish} }

// NewHareEA returns the paper-literal line-12 variant (m* = argmin_m
// φ_m), kept for the ablation study.
func NewHareEA() *Hare {
	return &Hare{Pick: PickEarliestAvailable, name: "Hare-EA"}
}

// Name implements Algorithm.
func (h *Hare) Name() string {
	if h.name != "" {
		return h.name
	}
	return "Hare"
}

// Schedule implements Algorithm.
func (h *Hare) Schedule(in *core.Instance) (*core.Schedule, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	// Step 1: relaxation (lines 3–4) — x̂_i and H_i, then the
	// non-descending sequence π.
	sol, err := relax.Fluid(in)
	if err != nil {
		return nil, fmt.Errorf("hare: relaxation failed: %w", err)
	}
	pi, err := roundOrder(in, sol)
	if err != nil {
		return nil, fmt.Errorf("hare: %w", err)
	}

	// Step 2: list scheduling (lines 5–17), a round of π at a time.
	s := core.NewSchedule(in)
	phi := make([]float64, in.NumGPUs) // φ_m, line 2
	// ready[j] is when job j's next round becomes available (lines
	// 7–11): its arrival, then max_{i∈D_r}(x̃_i + T̃^c + T̃^s) of the
	// round before (line 10's maximum).
	ready := make([]float64, len(in.Jobs))
	for _, j := range in.Jobs {
		ready[j.ID] = j.Arrival
	}
	for _, rk := range pi {
		train, sync := in.Train[rk.job], in.Sync[rk.job]
		ti := ready[rk.job]
		var barrier float64
		for k := 0; k < in.Jobs[rk.job].Scale; k++ {
			t := core.TaskRef{Job: rk.job, Round: rk.round, Index: k}
			// Line 12: choose the GPU.
			m := h.pickGPU(in, t, phi, ti)
			// Lines 13–16.
			start := math.Max(ti, phi[m])
			s.Place(t, m, start)
			if h.rec.Enabled() {
				h.rec.Emit(obs.Event{
					Type: obs.EvSchedDecision, Time: start, GPU: m,
					Job: int(t.Job), Round: t.Round, Index: t.Index,
					H: rk.h, Note: h.Pick.String(),
				})
			}
			phi[m] = start + train[m]
			if end := start + train[m] + sync[m]; end > barrier {
				barrier = end
			}
		}
		ready[rk.job] = barrier
	}
	return s, nil
}

// roundKey is one round of π with its sort key H_i.
type roundKey struct {
	h     float64
	job   core.JobID
	round int
}

// roundOrder is π: Algorithm 1 sorts tasks on H_i, and every task of a
// round shares H_i = x̂_i + ½·max_m T^c_{i,m}, so π is a sequence of
// whole rounds, sorted on (H, job, round). The keys are unique, and a
// job's rounds keep their order because its H never descends.
func roundOrder(in *core.Instance, sol *relax.Solution) ([]roundKey, error) {
	n := 0
	for _, j := range in.Jobs {
		n += j.Rounds
	}
	pi := make([]roundKey, 0, n)
	for _, j := range in.Jobs {
		half := 0.5 * slices.Max(in.Train[j.ID])
		for r, x := range sol.RoundStart[j.ID] {
			rk := roundKey{h: x + half, job: j.ID, round: r}
			if r > 0 && rk.h < pi[len(pi)-1].h {
				// The relaxation starts rounds in order; a descending H
				// would sequence a round before its predecessor.
				return nil, fmt.Errorf("job %d round %d has H %g below round %d's %g", j.ID, r, rk.h, r-1, pi[len(pi)-1].h)
			}
			pi = append(pi, rk)
		}
	}
	slices.SortFunc(pi, func(a, b roundKey) int {
		return cmp.Or(cmp.Compare(a.h, b.h), cmp.Compare(a.job, b.job), cmp.Compare(a.round, b.round))
	})
	return pi, nil
}

func (h *Hare) pickGPU(in *core.Instance, t core.TaskRef, phi []float64, ti float64) int {
	switch h.Pick {
	case PickEarliestFinish:
		best, bestFinish := 0, math.Inf(1)
		train := in.Train[t.Job]
		for m := 0; m < in.NumGPUs; m++ {
			f := max(ti, phi[m]) + train[m] // the builtin inlines; math.Max is a call
			if f < bestFinish {
				best, bestFinish = m, f
			}
		}
		return best
	default: // PickEarliestAvailable — argmin_m φ_m (line 12).
		best := 0
		for m := 1; m < in.NumGPUs; m++ {
			if phi[m] < phi[best] {
				best = m
			}
		}
		return best
	}
}
