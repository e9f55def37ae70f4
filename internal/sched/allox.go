package sched

import (
	"fmt"
	"math"
	"sort"

	"hare/internal/assign"
	"hare/internal/core"
)

// SchedAllox reproduces the paper's Sched_Allox baseline (AlloX,
// EuroSys '20): heterogeneity-aware *job-level* scheduling via
// minimum-cost bipartite matching. Jobs are matched to (GPU, reverse
// position) slots with cost base_m + k·d_{n,m}, where d_{n,m} is job
// n's full serial duration on GPU m and k counts positions from the
// tail of m's queue — the classic transformation under which the
// matching objective equals total completion time. Each job runs
// entirely on one GPU (AlloX performs job-level scheduling and ignores
// intra-job parallelism: a job's Scale tasks run serially there), and
// the matching is re-solved as new jobs arrive.
//
// Scalability: positions per GPU are capped at ⌈pool/M⌉+2 and arrival
// events are merged into at most alloxMaxBatches re-solves, bounding
// the Hungarian solves without changing the policy's character.
type SchedAllox struct{}

// alloxMaxBatches caps how many times the matching is re-solved over
// the arrival horizon.
const alloxMaxBatches = 32

// NewSchedAllox returns the Sched_Allox baseline.
func NewSchedAllox() *SchedAllox { return &SchedAllox{} }

// Name implements Algorithm.
func (*SchedAllox) Name() string { return "Sched_Allox" }

// serialDur is job n's duration when all Scale tasks of every round
// run back-to-back on GPU m (one sync per round).
func serialDur(in *core.Instance, j *core.Job, m int) float64 {
	perRound := float64(j.Scale)*in.Train[j.ID][m] + in.Sync[j.ID][m]
	return perRound * float64(j.Rounds)
}

// Schedule implements Algorithm.
func (a *SchedAllox) Schedule(in *core.Instance) (*core.Schedule, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	batches := batchArrivals(in.Jobs, alloxMaxBatches)

	s := core.NewSchedule(in)
	phi := make([]float64, in.NumGPUs)
	var pool []*core.Job
	for bi, b := range batches {
		pool = append(pool, b.jobs...)
		nextBatch := math.Inf(1)
		if bi+1 < len(batches) {
			nextBatch = batches[bi+1].at
		}
		var err error
		pool, err = a.matchAndCommit(in, s, phi, pool, b.at, nextBatch)
		if err != nil {
			return nil, err
		}
	}
	if len(pool) != 0 {
		return nil, fmt.Errorf("allox: %d jobs left unscheduled", len(pool))
	}
	return s, nil
}

type arrivalBatch struct {
	at   float64 // batch decision time = max arrival in the batch
	jobs []*core.Job
}

// batchArrivals groups jobs into at most maxBatches decision points.
// A job joins the batch whose time is the smallest batch time ≥ its
// arrival, so no job is scheduled before it arrives.
func batchArrivals(jobs []*core.Job, maxBatches int) []arrivalBatch {
	sorted := append([]*core.Job(nil), jobs...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].Arrival != sorted[j].Arrival {
			return sorted[i].Arrival < sorted[j].Arrival
		}
		return sorted[i].ID < sorted[j].ID
	})
	perBatch := (len(sorted) + maxBatches - 1) / maxBatches
	if perBatch < 1 {
		perBatch = 1
	}
	var out []arrivalBatch
	for i := 0; i < len(sorted); i += perBatch {
		end := i + perBatch
		if end > len(sorted) {
			end = len(sorted)
		}
		chunk := sorted[i:end]
		out = append(out, arrivalBatch{at: chunk[len(chunk)-1].Arrival, jobs: chunk})
	}
	// Merge batches that share a decision time.
	merged := out[:0]
	for _, b := range out {
		//lint:allow floateq batches merge only on bit-identical stored arrival times
		if len(merged) > 0 && merged[len(merged)-1].at == b.at {
			merged[len(merged)-1].jobs = append(merged[len(merged)-1].jobs, b.jobs...)
		} else {
			merged = append(merged, b)
		}
	}
	return merged
}

// matchAndCommit solves the jobs×(GPU,position) matching for the pool
// at time now, commits the jobs whose planned start precedes
// nextBatch (they are running before new information arrives), and
// returns the rest for re-matching.
func (a *SchedAllox) matchAndCommit(in *core.Instance, s *core.Schedule, phi []float64, pool []*core.Job, now, nextBatch float64) ([]*core.Job, error) {
	for len(pool) > 0 {
		p := len(pool)
		kmax := (p+in.NumGPUs-1)/in.NumGPUs + 2
		cols := in.NumGPUs * kmax
		cost := make([][]float64, p)
		for i, j := range pool {
			cost[i] = make([]float64, cols)
			for m := 0; m < in.NumGPUs; m++ {
				d := serialDur(in, j, m)
				base := math.Max(phi[m], now)
				for k := 1; k <= kmax; k++ {
					cost[i][m*kmax+(k-1)] = base + float64(k)*d
				}
			}
		}
		match, _, err := assign.Solve(cost)
		if err != nil {
			return nil, fmt.Errorf("allox: matching failed: %w", err)
		}
		// Decode: on each GPU, descending position runs first
		// (position k from the tail ⇒ k−1 jobs follow it).
		perGPU := make([][]int, in.NumGPUs)
		pos := make([]int, p)
		for i, col := range match {
			m, k := col/kmax, col%kmax+1
			perGPU[m] = append(perGPU[m], i)
			pos[i] = k
		}
		committed := make([]bool, p)
		anyCommitted := false
		for m := 0; m < in.NumGPUs; m++ {
			idxs := perGPU[m]
			sort.Slice(idxs, func(x, y int) bool {
				if pos[idxs[x]] != pos[idxs[y]] {
					return pos[idxs[x]] > pos[idxs[y]]
				}
				return pool[idxs[x]].ID < pool[idxs[y]].ID
			})
			t := math.Max(phi[m], now)
			for _, i := range idxs {
				if t >= nextBatch {
					break // re-matched with the next batch's arrivals
				}
				end := placeSerial(in, s, pool[i], m, t)
				phi[m] = end
				t = end
				committed[i] = true
				anyCommitted = true
			}
		}
		rest := pool[:0]
		for i, j := range pool {
			if !committed[i] {
				rest = append(rest, j)
			}
		}
		pool = append([]*core.Job(nil), rest...)
		if !anyCommitted || !math.IsInf(nextBatch, 1) {
			break
		}
		// Final batch: keep re-matching until the pool drains.
	}
	return pool, nil
}

// placeSerial runs all of a job's tasks back-to-back on one GPU:
// within a round the Scale tasks are serialized, and the next round
// starts after the round's synchronization completes.
func placeSerial(in *core.Instance, s *core.Schedule, j *core.Job, m int, start float64) float64 {
	t := start
	for r := 0; r < j.Rounds; r++ {
		var roundEnd float64
		for k := 0; k < j.Scale; k++ {
			s.Place(core.TaskRef{Job: j.ID, Round: r, Index: k}, m, t)
			end := t + in.Train[j.ID][m] + in.Sync[j.ID][m]
			roundEnd = math.Max(roundEnd, end)
			t += in.Train[j.ID][m]
		}
		t = roundEnd
	}
	return t
}
