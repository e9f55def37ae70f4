package sched

import (
	"fmt"
	"math"
	"sort"

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

// orderedTask pairs a task with its sort keys.
type orderedTask struct {
	task core.TaskRef
	h    float64
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
	tasks := in.Tasks()
	pi := make([]orderedTask, len(tasks))
	for i, t := range tasks {
		pi[i] = orderedTask{task: t, h: sol.H(in, t.Job, t.Round)}
	}
	sort.SliceStable(pi, func(a, b int) bool {
		if pi[a].h != pi[b].h {
			return pi[a].h < pi[b].h
		}
		// Deterministic tie-break: rounds must not invert within a
		// job, then job/index order.
		ta, tb := pi[a].task, pi[b].task
		if ta.Job != tb.Job {
			return ta.Job < tb.Job
		}
		if ta.Round != tb.Round {
			return ta.Round < tb.Round
		}
		return ta.Index < tb.Index
	})

	// Step 2: list scheduling (lines 5–17).
	s := core.NewSchedule()
	phi := make([]float64, in.NumGPUs) // φ_m, line 2
	// barrier[j][r] caches max_{i∈D_r}(x̃_i + T̃^c + T̃^s) as rounds
	// complete (line 10's maximum).
	barrier := make([][]float64, len(in.Jobs))
	placedInRound := make([][]int, len(in.Jobs))
	for _, j := range in.Jobs {
		barrier[j.ID] = make([]float64, j.Rounds)
		placedInRound[j.ID] = make([]int, j.Rounds)
	}

	for _, ot := range pi {
		t := ot.task
		job := in.Jobs[t.Job]
		// Lines 7–11: task available time t_i.
		var ti float64
		if t.Round == 0 {
			ti = job.Arrival
		} else {
			if placedInRound[t.Job][t.Round-1] != job.Scale {
				// π would violate the barrier ordering; the H sort is
				// stable within a job so this cannot happen, but guard
				// against relaxation bugs.
				return nil, fmt.Errorf("hare: task %v sequenced before round %d completed", t, t.Round-1)
			}
			ti = barrier[t.Job][t.Round-1]
		}
		// Line 12: choose the GPU.
		m := h.pickGPU(in, t, phi, ti)
		// Lines 13–16.
		start := math.Max(ti, phi[m])
		s.Place(t, m, start)
		if h.rec.Enabled() {
			h.rec.Emit(obs.Event{
				Type: obs.EvSchedDecision, Time: start, GPU: m,
				Job: int(t.Job), Round: t.Round, Index: t.Index,
				H: ot.h, Note: h.Pick.String(),
			})
		}
		phi[m] = start + in.Train[t.Job][m]
		end := start + in.Train[t.Job][m] + in.Sync[t.Job][m]
		if end > barrier[t.Job][t.Round] {
			barrier[t.Job][t.Round] = end
		}
		placedInRound[t.Job][t.Round]++
	}
	return s, nil
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
