package faults

import (
	"fmt"
	"sort"

	"hare/internal/core"
)

// Residual is the shrunken scheduling instance left behind by a GPU
// failure: the pending (not yet completed or claimed) tasks of every
// job, restated as a fresh core.Instance over only the surviving GPUs,
// so that Algorithm 1 — or any core scheduler — can be re-run on it
// unchanged. The mapping back to the original task and GPU identities
// is retained, so the resulting plan converts directly into refreshed
// per-GPU executor sequences.
//
// Round semantics: a job's first pending round may be partially
// complete (some of its tasks finished or are in flight on survivors).
// The residual instance still bills the planner a full round for it —
// a deliberate, slightly conservative approximation — and Sequences
// drops the placements of the non-pending tasks afterwards. All later
// rounds are fully pending, because the round barrier means no
// round-(r+1) task can have started while round r was incomplete.
//
// When a job's Scale exceeds the surviving GPU count the planners
// would reject the residual outright, yet under relaxed scale-fixed
// synchronization the work is still executable: same-round tasks need
// not run concurrently, only before the round barrier lifts. Residual
// therefore splits each original round of such a job into k =
// ceil(Scale/survivors) virtual sub-rounds of at most ceil(Scale/k)
// tasks each, so the planner sees a job it can place; ToOriginal folds
// the sub-rounds back together. The split lives only in the plan — the
// executors and the simulator keep enforcing the ORIGINAL round
// barriers — so it costs some planned-sync pessimism but never
// correctness. Sub-round slots beyond the original Scale (when Scale
// is not divisible by k) are fillers: they map to indices outside the
// original round and are dropped by Sequences like any non-pending
// placement.
type Residual struct {
	// Instance is the residual problem over len(alive) GPUs.
	Instance *core.Instance

	jobOf     []core.JobID // residual job -> original job
	baseRound []int        // residual job -> first pending original round
	split     []int        // residual job -> virtual sub-rounds per original round
	subScale  []int        // residual job -> tasks per virtual sub-round
	alive     []int        // residual GPU -> original GPU
	pending   map[core.TaskRef]bool
	origGPUs  int
}

// NewResidual builds the residual instance for the given pending tasks
// (original-instance identities) over the surviving GPUs alive
// (original indices, any order). It fails when no GPU survives or when
// a pending task does not belong to the instance.
func NewResidual(orig *core.Instance, pending []core.TaskRef, alive []int) (*Residual, error) {
	if len(alive) == 0 {
		return nil, fmt.Errorf("faults: no surviving GPUs — run is unrecoverable")
	}
	seen := make(map[int]bool, len(alive))
	aliveSorted := append([]int(nil), alive...)
	sort.Ints(aliveSorted)
	for _, g := range aliveSorted {
		if g < 0 || g >= orig.NumGPUs {
			return nil, fmt.Errorf("faults: surviving GPU %d outside the %d-GPU instance", g, orig.NumGPUs)
		}
		if seen[g] {
			return nil, fmt.Errorf("faults: surviving GPU %d listed twice", g)
		}
		seen[g] = true
	}

	pendSet := make(map[core.TaskRef]bool, len(pending))
	first := make(map[core.JobID]int) // original job -> min pending round
	for _, t := range pending {
		if t.Job < 0 || int(t.Job) >= len(orig.Jobs) {
			return nil, fmt.Errorf("faults: pending task %v names unknown job", t)
		}
		j := orig.Jobs[t.Job]
		if t.Round < 0 || t.Round >= j.Rounds || t.Index < 0 || t.Index >= j.Scale {
			return nil, fmt.Errorf("faults: pending task %v outside job %d (%d rounds × %d)", t, t.Job, j.Rounds, j.Scale)
		}
		pendSet[t] = true
		if r, ok := first[t.Job]; !ok || t.Round < r {
			first[t.Job] = t.Round
		}
	}
	if len(pendSet) == 0 {
		return nil, fmt.Errorf("faults: no pending tasks — nothing to reschedule")
	}

	res := &Residual{
		pending:  pendSet,
		alive:    aliveSorted,
		origGPUs: orig.NumGPUs,
	}
	ri := &core.Instance{NumGPUs: len(aliveSorted)}
	for _, j := range orig.Jobs {
		fr, ok := first[j.ID]
		if !ok {
			continue // job fully done (or fully in flight on survivors)
		}
		// Oversized rounds (Scale > survivors) split into k virtual
		// sub-rounds the planner can place; k == 1 is the common,
		// untransformed case.
		k := 1
		if j.Scale > len(aliveSorted) {
			k = (j.Scale + len(aliveSorted) - 1) / len(aliveSorted)
		}
		sub := (j.Scale + k - 1) / k
		rj := &core.Job{
			ID:     core.JobID(len(ri.Jobs)),
			Name:   j.Name + "~resched",
			Model:  j.Model,
			Weight: j.Weight,
			// The failure happened after the job arrived (it had pending
			// work planned from its arrival onward), so the residual job
			// is available immediately. Planned starts are advisory —
			// executors and the simulator enforce the real barriers.
			Arrival: 0,
			Rounds:  (j.Rounds - fr) * k,
			Scale:   sub,
		}
		ri.Jobs = append(ri.Jobs, rj)
		res.jobOf = append(res.jobOf, j.ID)
		res.baseRound = append(res.baseRound, fr)
		res.split = append(res.split, k)
		res.subScale = append(res.subScale, sub)
		trainRow := make([]float64, len(aliveSorted))
		syncRow := make([]float64, len(aliveSorted))
		for i, g := range aliveSorted {
			trainRow[i] = orig.Train[j.ID][g]
			syncRow[i] = orig.Sync[j.ID][g]
		}
		ri.Train = append(ri.Train, trainRow)
		ri.Sync = append(ri.Sync, syncRow)
	}
	if err := ri.Validate(); err != nil {
		return nil, fmt.Errorf("faults: residual instance: %w", err)
	}
	res.Instance = ri
	return res, nil
}

// ToOriginal maps a residual-instance task back to its original
// identity. For split jobs the k virtual sub-rounds of an original
// round fold back onto it; a filler slot (virtual capacity past the
// original Scale) maps to an Index outside the original round and is
// never pending.
func (r *Residual) ToOriginal(t core.TaskRef) core.TaskRef {
	k := r.split[t.Job]
	return core.TaskRef{
		Job:   r.jobOf[t.Job],
		Round: r.baseRound[t.Job] + t.Round/k,
		Index: (t.Round%k)*r.subScale[t.Job] + t.Index,
	}
}

// Sequences converts a plan over the residual instance into per-GPU
// task sequences over the ORIGINAL instance: sequences are indexed by
// original GPU (failed GPUs get empty sequences), tasks carry their
// original identities, and placements of tasks that were not actually
// pending (the completed or in-flight part of a partial first round)
// are dropped.
func (r *Residual) Sequences(plan *core.Schedule) ([][]core.TaskRef, error) {
	seqs, err := plan.ValidSequences(r.Instance, nil)
	if err != nil {
		return nil, fmt.Errorf("faults: residual plan: %w", err)
	}
	out := make([][]core.TaskRef, r.origGPUs)
	for ri, seq := range seqs {
		g := r.alive[ri]
		for _, t := range seq {
			ot := r.ToOriginal(t)
			if r.pending[ot] {
				out[g] = append(out[g], ot)
			}
		}
	}
	return out, nil
}
