// Package relax provides solutions to relaxations of the paper's
// Hare_Sched problem. The paper solves the mixed-integer quadratic
// relaxation Hare_Sched_RL with a commercial solver (CPLEX/Gurobi);
// stdlib-only, this package substitutes:
//
//   - Fluid: a fast deterministic fluid (processor-sharing) relaxation
//     that honors arrivals (4), round barriers (7) and the capacity
//     aggregate behind Queyranne's inequality (9), and yields the
//     relaxed start times x̂_i that Algorithm 1 consumes through the
//     middle-completion-time ordering H_i = x̂_i + ½·max_m T^c_{i,m}.
//   - Exact: a branch-and-bound solver for tiny instances, used by
//     tests to verify that the fluid objective lower-bounds the true
//     optimum in practice and that Algorithm 1 stays within its
//     α(2+α) approximation bound.
package relax

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"hare/internal/core"
)

// Solution is a relaxed schedule: per-(job, round) fluid start times
// and fluid job completions.
type Solution struct {
	// RoundStart[j][r] is x̂ for every task of round r of job j: the
	// moment fluid capacity first flows into the round.
	RoundStart [][]float64
	// Completion[j] is the job's fluid completion time C^fluid_n.
	Completion []float64
	// Objective is Σ w_n · C^fluid_n, a practical lower-bound signal
	// for the true optimum.
	Objective float64
}

// fluidJob is one job's row in the solver arena: its constants, then
// its progress through the fluid schedule.
type fluidJob struct {
	arrival float64
	scale   float64 // Scale, the cap on the job's rate
	work    float64 // Scale·τ: GPU·seconds of compute per round, τ = min_m T^c
	sigma   float64 // min_m T^s — fastest sync time
	density float64 // WSPT priority w / total fastest work
	rounds  int
	rank    int // position in the priority order

	round        int     // current round; rounds once done
	workLeft     float64 // remaining compute work of the round, in GPU·seconds
	syncLeft     float64
	roundStarted bool
}

// solver is the arena a fluid solve runs in. Every table is dense,
// indexed by job or by priority rank, truncated and refilled per solve
// and never freed, so a solver that has seen an instance of some size
// solves the next one without allocating anything but the Solution.
type solver struct {
	jobs      []fluidJob
	prio      []int    // jobs by WSPT density descending
	byArrival []int    // jobs by arrival
	ready     []uint64 // bit k set: job prio[k] is computing (wants capacity)
	run       []int    // jobs holding capacity in the current event …
	rate      []float64
	syncing   []int // … and jobs synchronizing, in no particular order
}

// solvers lends out arenas: OnlineHare's epochs, one after another,
// keep getting the same one back.
var solvers = sync.Pool{New: func() any { return new(solver) }}

// Fluid solves the fluid relaxation. The cluster is abstracted as a
// malleable machine of capacity |M| GPU-equivalents; each job's round
// requires Scale·τ_n GPU·seconds of work at a rate capped by Scale
// (intra-job parallelism cannot exceed the synchronization scale), and
// is followed by σ_n of synchronization. Capacity is allocated
// preemptively by weighted-shortest-processing-time density, the
// optimal single-machine fluid policy. Round starts are recorded when
// capacity first flows into a round, matching the role x̂ plays in
// Algorithm 1.
func Fluid(in *core.Instance) (*Solution, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	sv := solvers.Get().(*solver)
	defer solvers.Put(sv)
	return sv.solve(in)
}

// grow returns s with length n, reallocating only when it must.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// compute moves job j into the compute phase of its current round.
func (sv *solver) compute(j int) {
	fj := &sv.jobs[j]
	fj.workLeft, fj.roundStarted = fj.work, false
	sv.ready[fj.rank>>6] |= 1 << (fj.rank & 63)
}

func (sv *solver) solve(in *core.Instance) (*Solution, error) {
	n := len(in.Jobs)
	sv.jobs, sv.prio, sv.byArrival = grow(sv.jobs, n), grow(sv.prio, n), grow(sv.byArrival, n)
	sv.ready = grow(sv.ready, (n+63)>>6)
	clear(sv.ready)
	sv.syncing = sv.syncing[:0]
	jobs := sv.jobs

	sol := &Solution{RoundStart: make([][]float64, n)}
	// Each event either consumes an arrival or finishes a job phase,
	// so the loop is bounded by arrivals + jobs × rounds × 2 events.
	maxEvents, totalRounds := n+2, 0
	for i, j := range in.Jobs {
		tau, sigma := math.Inf(1), math.Inf(1)
		for m := 0; m < in.NumGPUs; m++ {
			tau = min(tau, in.Train[i][m])
			sigma = min(sigma, in.Sync[i][m])
		}
		total := float64(j.Rounds) * (float64(j.Scale)*tau + sigma)
		jobs[i] = fluidJob{
			arrival: j.Arrival, scale: float64(j.Scale), work: float64(j.Scale) * tau,
			sigma: sigma, density: j.Weight / total, rounds: j.Rounds,
		}
		sv.prio[i], sv.byArrival[i] = i, i
		maxEvents += 2*j.Rounds + 2
		totalRounds += j.Rounds
	}
	// One backing array: the completions, then every job's round starts.
	buf := make([]float64, n+totalRounds)
	sol.Completion, buf = buf[:n:n], buf[n:]
	for i, j := range in.Jobs {
		sol.RoundStart[i], buf = buf[:j.Rounds:j.Rounds], buf[j.Rounds:]
	}

	// Priority order is static: WSPT density descending, ties by
	// arrival then ID for determinism.
	slices.SortFunc(sv.prio, func(a, b int) int {
		return cmp.Or(cmp.Compare(jobs[b].density, jobs[a].density), cmp.Compare(jobs[a].arrival, jobs[b].arrival), a-b)
	})
	for k, j := range sv.prio {
		jobs[j].rank = k
	}
	slices.SortFunc(sv.byArrival, func(a, b int) int {
		return cmp.Or(cmp.Compare(jobs[a].arrival, jobs[b].arrival), a-b)
	})

	const eps = 1e-12
	t := 0.0
	capTotal := float64(in.NumGPUs)
	arrived, done := 0, 0
	for ev := 0; ev < maxEvents; ev++ {
		// Admit arrivals at the current time.
		for ; arrived < n && jobs[sv.byArrival[arrived]].arrival <= t+eps; arrived++ {
			sv.compute(sv.byArrival[arrived])
		}

		// Allocate capacity by priority.
		sv.run, sv.rate = sv.run[:0], sv.rate[:0]
		capLeft := capTotal
		for w := 0; w < len(sv.ready) && capLeft > eps; w++ {
			for word := sv.ready[w]; word != 0 && capLeft > eps; word &= word - 1 {
				j := sv.prio[w<<6+bits.TrailingZeros64(word)]
				fj := &jobs[j]
				r := min(fj.scale, capLeft)
				sv.run, sv.rate = append(sv.run, j), append(sv.rate, r)
				capLeft -= r
				if !fj.roundStarted {
					fj.roundStarted = true
					sol.RoundStart[j][fj.round] = t
				}
			}
		}

		// Find the next event horizon.
		dt := math.Inf(1)
		for k, j := range sv.run {
			dt = min(dt, jobs[j].workLeft/sv.rate[k])
		}
		for _, j := range sv.syncing {
			dt = min(dt, jobs[j].syncLeft)
		}
		if arrived < n {
			dt = min(dt, jobs[sv.byArrival[arrived]].arrival-t)
		}
		if math.IsInf(dt, 1) {
			break // nothing active and no arrivals left: done
		}
		if dt < 0 {
			dt = 0
		}

		// Advance: first the jobs that were already synchronizing, then
		// the ones holding capacity, which may only now begin to.
		t += dt
		for k := 0; k < len(sv.syncing); {
			j := sv.syncing[k]
			fj := &jobs[j]
			fj.syncLeft -= dt
			if fj.syncLeft > eps {
				k++
				continue
			}
			last := len(sv.syncing) - 1
			sv.syncing[k], sv.syncing = sv.syncing[last], sv.syncing[:last]
			if fj.round++; fj.round < fj.rounds {
				sv.compute(j)
			} else {
				sol.Completion[j] = t
				done++
			}
		}
		for k, j := range sv.run {
			fj := &jobs[j]
			fj.workLeft -= sv.rate[k] * dt
			if fj.workLeft <= eps {
				fj.syncLeft = fj.sigma
				sv.ready[fj.rank>>6] &^= 1 << (fj.rank & 63)
				sv.syncing = append(sv.syncing, j)
			}
		}
	}

	if done < n {
		j := slices.IndexFunc(jobs, func(fj fluidJob) bool { return fj.round < fj.rounds })
		return nil, fmt.Errorf("relax: fluid simulation did not finish job %d (round %d of %d)", j, jobs[j].round, jobs[j].rounds)
	}
	for i, j := range in.Jobs {
		sol.Objective += j.Weight * sol.Completion[i]
	}
	return sol, nil
}
