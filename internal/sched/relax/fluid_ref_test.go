package relax

// The fluid solver as it stood before the dense, arena-backed rewrite
// (map of rates per event, three full job scans per event). It is the
// oracle TestFluidMatchesReference holds Fluid to, bit for bit.

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"hare/internal/core"
	"hare/internal/stats"
)

// refPhase tracks a fluid job's progress.
type refPhase int

const (
	refWaiting refPhase = iota // not yet arrived
	refCompute                 // current round consuming capacity
	refSync                    // current round synchronizing (no capacity)
	refDone
)

type refFluidJob struct {
	job     *core.Job
	tau     float64 // min_m T^c — fastest per-task training time
	sigma   float64 // min_m T^s — fastest sync time
	density float64 // WSPT priority w / total fastest work

	state        refPhase
	round        int
	workLeft     float64 // remaining compute work of the round, in GPU·seconds
	syncLeft     float64
	roundStarted bool
}

// fluidRef solves the fluid relaxation. The cluster is abstracted as a
// malleable machine of capacity |M| GPU-equivalents; each job's round
// requires Scale·τ_n GPU·seconds of work at a rate capped by Scale
// (intra-job parallelism cannot exceed the synchronization scale), and
// is followed by σ_n of synchronization. Capacity is allocated
// preemptively by weighted-shortest-processing-time density, the
// optimal single-machine fluid policy. Round starts are recorded when
// capacity first flows into a round, matching the role x̂ plays in
// Algorithm 1.
func fluidRef(in *core.Instance) (*Solution, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	n := len(in.Jobs)
	jobs := make([]*refFluidJob, n)
	for i, j := range in.Jobs {
		tau, sigma := math.Inf(1), math.Inf(1)
		for m := 0; m < in.NumGPUs; m++ {
			tau = math.Min(tau, in.Train[j.ID][m])
			sigma = math.Min(sigma, in.Sync[j.ID][m])
		}
		total := float64(j.Rounds) * (float64(j.Scale)*tau + sigma)
		jobs[i] = &refFluidJob{
			job:     j,
			tau:     tau,
			sigma:   sigma,
			density: j.Weight / total,
			state:   refWaiting,
		}
	}

	sol := &Solution{
		RoundStart: make([][]float64, n),
		Completion: make([]float64, n),
	}
	for i, j := range in.Jobs {
		sol.RoundStart[i] = make([]float64, j.Rounds)
		for r := range sol.RoundStart[i] {
			sol.RoundStart[i][r] = math.Inf(1)
		}
	}

	// Priority order is static: WSPT density descending, ties by
	// arrival then ID for determinism.
	prio := make([]*refFluidJob, n)
	copy(prio, jobs)
	sort.Slice(prio, func(a, b int) bool {
		if prio[a].density != prio[b].density {
			return prio[a].density > prio[b].density
		}
		if prio[a].job.Arrival != prio[b].job.Arrival {
			return prio[a].job.Arrival < prio[b].job.Arrival
		}
		return prio[a].job.ID < prio[b].job.ID
	})

	arrivals := make([]float64, 0, n)
	for _, j := range in.Jobs {
		arrivals = append(arrivals, j.Arrival)
	}
	sort.Float64s(arrivals)
	nextArrival := 0

	const eps = 1e-12
	t := 0.0
	capTotal := float64(in.NumGPUs)
	// Each event either consumes an arrival or finishes a job refPhase,
	// so the loop is bounded by arrivals + jobs × rounds × 2 events.
	maxEvents := n + 2
	for _, j := range in.Jobs {
		maxEvents += 2*j.Rounds + 2
	}

	for ev := 0; ev < maxEvents; ev++ {
		// Admit arrivals at the current time.
		for nextArrival < n && arrivals[nextArrival] <= t+eps {
			nextArrival++
		}
		for _, fj := range jobs {
			if fj.state == refWaiting && fj.job.Arrival <= t+eps {
				fj.state = refCompute
				fj.round = 0
				fj.workLeft = float64(fj.job.Scale) * fj.tau
				fj.roundStarted = false
			}
		}

		// Allocate capacity by priority.
		rates := make(map[core.JobID]float64)
		capLeft := capTotal
		for _, fj := range prio {
			if fj.state != refCompute || capLeft <= eps {
				continue
			}
			r := math.Min(float64(fj.job.Scale), capLeft)
			rates[fj.job.ID] = r
			capLeft -= r
			if !fj.roundStarted && r > eps {
				fj.roundStarted = true
				sol.RoundStart[fj.job.ID][fj.round] = t
			}
		}

		// Find the next event horizon.
		dt := math.Inf(1)
		for _, fj := range jobs {
			switch fj.state {
			case refCompute:
				if r := rates[fj.job.ID]; r > eps {
					dt = math.Min(dt, fj.workLeft/r)
				}
			case refSync:
				dt = math.Min(dt, fj.syncLeft)
			}
		}
		if nextArrival < n {
			dt = math.Min(dt, arrivals[nextArrival]-t)
		}
		if math.IsInf(dt, 1) {
			break // nothing active and no arrivals left: done
		}
		if dt < 0 {
			dt = 0
		}

		// Advance.
		t += dt
		for _, fj := range jobs {
			switch fj.state {
			case refCompute:
				if r := rates[fj.job.ID]; r > eps {
					fj.workLeft -= r * dt
					if fj.workLeft <= eps {
						fj.workLeft = 0
						fj.syncLeft = fj.sigma
						fj.state = refSync
					}
				}
			case refSync:
				fj.syncLeft -= dt
				if fj.syncLeft > eps {
					continue
				}
				fj.syncLeft = 0
				fj.round++
				if fj.round >= fj.job.Rounds {
					fj.state = refDone
					sol.Completion[fj.job.ID] = t
				} else {
					fj.state = refCompute
					fj.workLeft = float64(fj.job.Scale) * fj.tau
					fj.roundStarted = false
				}
			}
		}
	}

	for _, fj := range jobs {
		if fj.state != refDone {
			return nil, fmt.Errorf("relax: fluid simulation did not finish job %d (state %d)", fj.job.ID, fj.state)
		}
	}
	for j := range sol.RoundStart {
		for r, x := range sol.RoundStart[j] {
			if math.IsInf(x, 1) {
				return nil, fmt.Errorf("relax: round %d of job %d never started in fluid schedule", r, j)
			}
		}
	}
	for i, j := range in.Jobs {
		sol.Objective += j.Weight * sol.Completion[i]
	}
	return sol, nil
}

// fluidCase draws an instance that exercises the solver's corners:
// more jobs than one 64-bit word of ready flags, scales beyond the
// fleet, zero sync times, shared arrival instants and twin jobs whose
// densities tie.
func fluidCase(rng *stats.RNG, trial int) *core.Instance {
	nm := 1 + rng.Intn(16)
	nj := 1 + rng.Intn(12)
	if trial%5 == 4 {
		nj = 60 + rng.Intn(40)
	}
	in := &core.Instance{NumGPUs: nm}
	for j := 0; j < nj; j++ {
		job := &core.Job{
			ID: core.JobID(j), Name: "f", Weight: rng.Uniform(0.5, 4),
			Arrival: rng.Uniform(0, 40), Rounds: 1 + rng.Intn(6), Scale: 1 + rng.Intn(nm+2),
		}
		tr, sy := make([]float64, nm), make([]float64, nm)
		base := rng.Uniform(1, 20)
		for m := range tr {
			tr[m] = base * rng.Uniform(1, 7)
			if trial%3 != 0 {
				sy[m] = base * rng.Uniform(0, 0.9)
			}
		}
		if trial%4 == 1 {
			job.Arrival = 10 * math.Floor(job.Arrival/10)
		}
		if trial%7 == 2 && j > 0 { // twin of the previous job
			prev := in.Jobs[j-1]
			job.Weight, job.Arrival, job.Rounds, job.Scale = prev.Weight, prev.Arrival, prev.Rounds, prev.Scale
			copy(tr, in.Train[j-1])
			copy(sy, in.Sync[j-1])
		}
		in.Jobs = append(in.Jobs, job)
		in.Train = append(in.Train, tr)
		in.Sync = append(in.Sync, sy)
	}
	return in
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestFluidMatchesReference: Fluid performs the reference's
// floating-point operations in the reference's order, so the two
// solutions are equal bit for bit — also when the pooled solver is
// handed instances of changing size back to back.
func TestFluidMatchesReference(t *testing.T) {
	rng := stats.New(20260927)
	for trial := 0; trial < 300; trial++ {
		in := fluidCase(rng.Split(), trial)
		got, err := Fluid(in)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want, err := fluidRef(in)
		if err != nil {
			t.Fatalf("trial %d: reference: %v", trial, err)
		}
		if !sameSolution(got, want) {
			t.Fatalf("trial %d (%d jobs, %d GPUs): solution differs from the reference\n got %+v\nwant %+v",
				trial, len(in.Jobs), in.NumGPUs, got, want)
		}
	}
}

// sameSolution reports whether a and b are equal bit for bit.
func sameSolution(a, b *Solution) bool {
	same := sameBits([]float64{a.Objective}, []float64{b.Objective}) &&
		sameBits(a.Completion, b.Completion) && len(a.RoundStart) == len(b.RoundStart)
	for j := 0; same && j < len(b.RoundStart); j++ {
		same = sameBits(a.RoundStart[j], b.RoundStart[j])
	}
	return same
}

// TestStreamMatchesFluid steps one Stream, Reset for instance after
// instance, to the end of each: its Solution is Fluid's bit for bit,
// Started reports every (job, round) once in non-decreasing RoundStart,
// and no round reported at a step starts before the Now read just
// before that step.
func TestStreamMatchesFluid(t *testing.T) {
	rng := stats.New(20260927)
	var st Stream
	defer st.Close()
	for trial := 0; trial < 300; trial++ {
		in := fluidCase(rng.Split(), trial)
		want, err := Fluid(in)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		sol := st.Reset(in)
		seen := make([]int, len(in.Jobs))
		last := math.Inf(-1)
		for {
			now, more := st.Now(), st.Step()
			for _, j := range st.Started() {
				r := seen[j]
				if r == in.Jobs[j].Rounds {
					t.Fatalf("trial %d: job %d reported started %d times, it has %d rounds", trial, j, r+1, r)
				}
				x := sol.RoundStart[j][r]
				if x < now || x < last {
					t.Fatalf("trial %d: job %d round %d starts at %g, reported after Now %g and a start at %g", trial, j, r, x, now, last)
				}
				seen[j], last = r+1, x
			}
			if !more {
				break
			}
		}
		if st.Step() || len(st.Started()) != 0 {
			t.Fatalf("trial %d: the stream steps on after its end", trial)
		}
		for j, n := range seen {
			if n != in.Jobs[j].Rounds {
				t.Fatalf("trial %d: job %d reported %d of %d rounds started", trial, j, n, in.Jobs[j].Rounds)
			}
		}
		if !sameSolution(sol, want) {
			t.Fatalf("trial %d (%d jobs, %d GPUs): stream's solution differs from Fluid's\n got %+v\nwant %+v",
				trial, len(in.Jobs), in.NumGPUs, sol, want)
		}
	}
}
