package sched

// OnlineHare as it stood before the incremental rewrite: a full
// reflect-swapper sort of every remaining task by H_i and a full
// list-scheduling pass at every epoch. Run over the distinct arrivals it
// is OnlineHare; run over the single epoch −∞ it is offline Hare. It is
// the oracle TestOnlineMatchesReference and FuzzOnlineMatchesReference
// hold both to, placement for placement and decision event for event.

import (
	"fmt"
	"math"
	"sort"

	"hare/internal/core"
	"hare/internal/obs"
	"hare/internal/sched/relax"
)

// refOnline is the reference planner; Pick and rec mean what they mean
// on OnlineHare.
type refOnline struct {
	Pick   GPUPick
	rec    *obs.Recorder
	epochs []float64 // when to plan, in order
	note   string    // decision events' Note
}

// arrivalEpochs lists in's distinct arrival times in order: the epochs
// OnlineHare plans at.
func arrivalEpochs(in *core.Instance) []float64 {
	epochSet := make(map[float64]bool)
	for _, j := range in.Jobs {
		epochSet[j.Arrival] = true
	}
	epochs := make([]float64, 0, len(epochSet))
	for t := range epochSet {
		epochs = append(epochs, t)
	}
	sort.Float64s(epochs)
	return epochs
}

// refJobState tracks a job's committed progress across planning epochs.
type refJobState struct {
	// committed is the number of leading rounds already fixed.
	committed int
	// barrier is the completion time of the last committed round
	// (the job's arrival before anything commits).
	barrier float64
}

// Schedule implements Algorithm.
func (o *refOnline) Schedule(in *core.Instance) (*core.Schedule, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	epochs := o.epochs
	s := core.NewSchedule(in)
	phi := make([]float64, in.NumGPUs)
	states := make([]refJobState, len(in.Jobs))
	for _, j := range in.Jobs {
		states[j.ID].barrier = j.Arrival
	}

	for ei, now := range epochs {
		next := math.Inf(1)
		if ei+1 < len(epochs) {
			next = epochs[ei+1]
		}
		if err := o.planEpoch(in, s, phi, states, now, next); err != nil {
			return nil, fmt.Errorf("hare-online: epoch at %g: %w", now, err)
		}
	}
	// Everything must be committed after the final epoch.
	for _, j := range in.Jobs {
		if states[j.ID].committed != j.Rounds {
			return nil, fmt.Errorf("hare-online: job %d committed %d/%d rounds", j.ID, states[j.ID].committed, j.Rounds)
		}
	}
	return s, nil
}

// planEpoch plans all remaining rounds of arrived jobs as offline Hare
// would, then commits only the rounds that start before the next
// epoch.
func (o *refOnline) planEpoch(in *core.Instance, s *core.Schedule, phi []float64, states []refJobState, now, next float64) error {
	// Sub-instance over remaining work of arrived jobs. subID[i] is
	// the real job behind sub-job i.
	var subJobs []*core.Job
	var subID []core.JobID
	var train, syncT [][]float64
	for _, j := range in.Jobs {
		st := states[j.ID]
		if j.Arrival >= next || st.committed == j.Rounds {
			continue
		}
		subJobs = append(subJobs, &core.Job{
			ID:      core.JobID(len(subJobs)),
			Name:    j.Name,
			Model:   j.Model,
			Weight:  j.Weight,
			Arrival: math.Max(st.barrier, now),
			Rounds:  j.Rounds - st.committed,
			Scale:   j.Scale,
		})
		subID = append(subID, j.ID)
		train = append(train, in.Train[j.ID])
		syncT = append(syncT, in.Sync[j.ID])
	}
	if len(subJobs) == 0 {
		return nil
	}
	sub := &core.Instance{Jobs: subJobs, NumGPUs: in.NumGPUs, Train: train, Sync: syncT}
	sol, err := relax.Fluid(sub)
	if err != nil {
		return err
	}

	// List-schedule the sub-instance over the *current* φ, exactly as
	// Algorithm 1 does, recording per-round placements.
	type placed struct {
		task  core.TaskRef // sub-instance coordinates
		gpu   int
		start float64
		h     float64
	}
	pi := allTasks(sub)
	sort.SliceStable(pi, func(a, b int) bool {
		ha, hb := middleH(sub, sol, pi[a].Job, pi[a].Round), middleH(sub, sol, pi[b].Job, pi[b].Round)
		if ha != hb {
			return ha < hb
		}
		if pi[a].Job != pi[b].Job {
			return pi[a].Job < pi[b].Job
		}
		if pi[a].Round != pi[b].Round {
			return pi[a].Round < pi[b].Round
		}
		return pi[a].Index < pi[b].Index
	})

	tmpPhi := append([]float64(nil), phi...)
	barrier := make([][]float64, len(subJobs))
	for i, j := range subJobs {
		barrier[i] = make([]float64, j.Rounds)
	}
	var plan []placed
	for _, t := range pi {
		j := subJobs[t.Job]
		ti := j.Arrival
		if t.Round > 0 {
			ti = barrier[t.Job][t.Round-1]
		}
		m := pickGPU(sub, o.Pick, t.Job, tmpPhi, ti)
		start := math.Max(ti, tmpPhi[m])
		tmpPhi[m] = start + sub.Train[t.Job][m]
		end := start + sub.Train[t.Job][m] + sub.Sync[t.Job][m]
		if end > barrier[t.Job][t.Round] {
			barrier[t.Job][t.Round] = end
		}
		plan = append(plan, placed{task: t, gpu: m, start: start, h: middleH(sub, sol, t.Job, t.Round)})
	}

	// Commit the rounds that have *begun* before the next arrival:
	// once a round's first task starts, its sequence entries are
	// already with the executors and — tasks being non-preemptible —
	// the round runs to completion; only rounds that have not begun
	// are re-planned with the new information. Round starts are
	// ordered within a job, so a committed round's predecessors are
	// always committed too.
	roundFirstStart := make(map[[2]int]float64)
	for _, p := range plan {
		key := [2]int{int(p.task.Job), p.task.Round}
		if cur, ok := roundFirstStart[key]; !ok || p.start < cur {
			roundFirstStart[key] = p.start
		}
	}
	for _, p := range plan {
		if roundFirstStart[[2]int{int(p.task.Job), p.task.Round}] >= next {
			continue // round not begun before the next arrival
		}
		realJob := subID[p.task.Job]
		realRound := states[realJob].committed + p.task.Round
		s.Place(core.TaskRef{Job: realJob, Round: realRound, Index: p.task.Index}, p.gpu, p.start)
		if o.rec.Enabled() {
			o.rec.Emit(obs.Event{
				Type: obs.EvSchedDecision, Time: p.start, GPU: p.gpu,
				Job: int(realJob), Round: realRound, Index: p.task.Index,
				H: p.h, Note: o.note,
			})
		}
		if phi[p.gpu] < p.start+in.Train[realJob][p.gpu] {
			phi[p.gpu] = p.start + in.Train[realJob][p.gpu]
		}
	}
	// Advance job states.
	for i, j := range subJobs {
		committedHere := 0
		for r := 0; r < j.Rounds; r++ {
			if roundFirstStart[[2]int{i, r}] < next {
				committedHere = r + 1
			} else {
				break
			}
		}
		if committedHere > 0 {
			real := subID[i]
			states[real].committed += committedHere
			states[real].barrier = barrier[i][committedHere-1]
		}
	}
	return nil
}
