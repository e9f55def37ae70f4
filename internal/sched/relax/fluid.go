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
//     Stream is the same solve advanced one event at a time, for a
//     caller that reads x̂ only up to some point.
//   - Exact: a branch-and-bound solver for tiny instances. Tests use it
//     to check that Algorithm 1 stays within its α(2+α) approximation
//     bound, and to measure how often the fluid objective stays at or
//     below the optimum. It is a heuristic signal, not a proved bound:
//     it exceeds the optimum on some instances (1 of the 30 of
//     harebench's abl-relax; TestFluidObjectiveLowerBoundsExact allows
//     up to a fifth of its 40).
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
	started   []int // jobs whose round began at the last event

	// The solve in progress: its instance and Solution, the fluid clock,
	// and the events left in the budget (0 once the solve has ended).
	in            *core.Instance
	sol           *Solution
	t             float64
	arrived, done int
	events        int

	// own is a Stream's Solution, laid out over buf.
	own Solution
	buf []float64
}

// solvers lends out arenas to Fluid calls and to Streams.
var solvers = sync.Pool{New: func() any { return new(solver) }}

// eps is the solver's event tolerance.
const eps = 1e-12

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
	defer sv.release()
	sol := new(Solution)
	layout(in, sol, nil)
	sv.begin(in, sol)
	for sv.step() {
	}
	if sv.done < len(in.Jobs) {
		jobs := sv.jobs
		j := slices.IndexFunc(jobs, func(fj fluidJob) bool { return fj.round < fj.rounds })
		return nil, fmt.Errorf("relax: fluid simulation did not finish job %d (round %d of %d)", j, jobs[j].round, jobs[j].rounds)
	}
	return sol, nil
}

// Stream is the fluid solve advanced one event at a time. Stepping it
// to its end performs Fluid's floating-point operations in Fluid's
// order, so the Solution it fills is Fluid's, bit for bit; a caller
// that needs x̂ only up to some time stops stepping there. The zero
// Stream is ready for Reset; its arena comes from the pool Fluid draws
// on, and Close gives it back.
type Stream struct{ sv *solver }

// Reset starts solving in, which must be valid (core.Instance.Validate),
// and returns the Solution the steps fill in: a round's RoundStart once
// Started has reported it, a job's Completion when it finishes and
// Objective when the solve ends. The Solution belongs to the Stream and
// is refilled by every Reset: it is valid until the next Reset or Close.
func (s *Stream) Reset(in *core.Instance) *Solution {
	if s.sv == nil {
		s.sv = solvers.Get().(*solver)
	}
	sv := s.sv
	sv.buf = layout(in, &sv.own, sv.buf)
	sv.begin(in, &sv.own)
	return &sv.own
}

// Step runs the solve through its next event and reports whether there
// was one; once it reports false the solve has ended.
func (s *Stream) Step() bool { return s.sv.step() }

// Started lists the jobs whose current round began at the last Step, at
// the time Now read before it. Across the steps every (job, round) is
// reported once, in non-decreasing RoundStart.
func (s *Stream) Started() []int { return s.sv.started }

// Now is the fluid clock: every round Started has not reported yet
// starts at or after it.
func (s *Stream) Now() float64 { return s.sv.t }

// Close returns the Stream's arena to the pool; the Solution of the last
// Reset is invalid afterwards. A closed Stream can be Reset again.
func (s *Stream) Close() {
	if s.sv != nil {
		s.sv.release()
		s.sv = nil
	}
}

// release drops the solver's references to its last solve and returns
// it to the pool.
func (sv *solver) release() {
	sv.in, sv.sol = nil, nil
	solvers.Put(sv)
}

// grow returns s with length n, reallocating only when it must.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// layout zeroes sol and points its rows into buf, grown to fit and
// returned: one backing array holding the completions, then every job's
// round starts.
func layout(in *core.Instance, sol *Solution, buf []float64) []float64 {
	n, size := len(in.Jobs), len(in.Jobs)
	for _, j := range in.Jobs {
		size += j.Rounds
	}
	buf = grow(buf, size)
	clear(buf)
	sol.RoundStart, sol.Objective = grow(sol.RoundStart, n), 0
	rest := buf[n:]
	sol.Completion = buf[:n:n]
	for i, j := range in.Jobs {
		sol.RoundStart[i], rest = rest[:j.Rounds:j.Rounds], rest[j.Rounds:]
	}
	return buf
}

// compute moves job j into the compute phase of its current round.
func (sv *solver) compute(j int) {
	fj := &sv.jobs[j]
	fj.workLeft, fj.roundStarted = fj.work, false
	sv.ready[fj.rank>>6] |= 1 << (fj.rank & 63)
}

// begin readies the arena to solve in into sol, laid out for in.
func (sv *solver) begin(in *core.Instance, sol *Solution) {
	n := len(in.Jobs)
	sv.jobs, sv.prio, sv.byArrival = grow(sv.jobs, n), grow(sv.prio, n), grow(sv.byArrival, n)
	sv.ready = grow(sv.ready, (n+63)>>6)
	clear(sv.ready)
	sv.syncing, sv.started = sv.syncing[:0], sv.started[:0]
	sv.in, sv.sol = in, sol
	sv.t, sv.arrived, sv.done = 0, 0, 0
	jobs := sv.jobs

	// Each event either consumes an arrival or finishes a job phase,
	// so the loop is bounded by arrivals + jobs × rounds × 2 events.
	sv.events = n + 2
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
		sv.events += 2*j.Rounds + 2
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
}

// step runs one event: admit the arrivals due, share capacity by
// priority (recording the rounds it begins), and advance the clock to
// the next event. It reports false, having done nothing, once the solve
// has ended; the step that ends it fills in the objective.
func (sv *solver) step() bool {
	if sv.events == 0 {
		return false
	}
	sv.events--
	jobs, n, t := sv.jobs, len(sv.jobs), sv.t

	// Admit arrivals at the current time.
	for ; sv.arrived < n && jobs[sv.byArrival[sv.arrived]].arrival <= t+eps; sv.arrived++ {
		sv.compute(sv.byArrival[sv.arrived])
	}

	// Allocate capacity by priority.
	sv.run, sv.rate, sv.started = sv.run[:0], sv.rate[:0], sv.started[:0]
	capLeft := float64(sv.in.NumGPUs)
	for w := 0; w < len(sv.ready) && capLeft > eps; w++ {
		for word := sv.ready[w]; word != 0 && capLeft > eps; word &= word - 1 {
			j := sv.prio[w<<6+bits.TrailingZeros64(word)]
			fj := &jobs[j]
			r := min(fj.scale, capLeft)
			sv.run, sv.rate = append(sv.run, j), append(sv.rate, r)
			capLeft -= r
			if !fj.roundStarted {
				fj.roundStarted = true
				sv.sol.RoundStart[j][fj.round] = t
				sv.started = append(sv.started, j)
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
	if sv.arrived < n {
		dt = min(dt, jobs[sv.byArrival[sv.arrived]].arrival-t)
	}
	if math.IsInf(dt, 1) {
		sv.end() // nothing active and no arrivals left: done
		return false
	}
	if dt < 0 {
		dt = 0
	}

	// Advance: first the jobs that were already synchronizing, then
	// the ones holding capacity, which may only now begin to.
	t += dt
	sv.t = t
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
			sv.sol.Completion[j] = t
			sv.done++
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
	if sv.events == 0 {
		sv.end()
	}
	return true
}

// end closes the solve's event budget and fills in the objective.
func (sv *solver) end() {
	sv.events = 0
	for i, j := range sv.in.Jobs {
		sv.sol.Objective += j.Weight * sv.sol.Completion[i]
	}
}
