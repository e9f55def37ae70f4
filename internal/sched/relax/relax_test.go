package relax

import (
	"math"
	"testing"

	"hare/internal/core"
	"hare/internal/stats"
)

func singleJobInstance(rounds, scale, gpus int, train, sync float64) *core.Instance {
	in := &core.Instance{NumGPUs: gpus}
	in.Jobs = []*core.Job{{ID: 0, Name: "j", Weight: 1, Rounds: rounds, Scale: scale}}
	tr := make([]float64, gpus)
	sy := make([]float64, gpus)
	for m := range tr {
		tr[m], sy[m] = train, sync
	}
	in.Train = [][]float64{tr}
	in.Sync = [][]float64{sy}
	return in
}

func TestFluidSingleJobFullParallel(t *testing.T) {
	// 2 rounds x 2 tasks on 4 GPUs: each round runs at full rate
	// (work 2·τ at rate 2 = τ), plus sync, so completion = 2(τ+σ).
	in := singleJobInstance(2, 2, 4, 3, 1)
	sol, err := Fluid(in)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * (3 + 1.0); math.Abs(sol.Completion[0]-want) > 1e-9 {
		t.Errorf("completion %g, want %g", sol.Completion[0], want)
	}
	if sol.RoundStart[0][0] != 0 {
		t.Errorf("round 0 starts at %g", sol.RoundStart[0][0])
	}
	if want := 3 + 1.0; math.Abs(sol.RoundStart[0][1]-want) > 1e-9 {
		t.Errorf("round 1 starts at %g, want %g", sol.RoundStart[0][1], want)
	}
}

func TestFluidCapacityBound(t *testing.T) {
	// Scale 4 on 2 GPUs: round work 4·τ at rate 2 takes 2τ.
	in := singleJobInstance(1, 4, 2, 5, 0)
	sol, err := Fluid(in)
	if err != nil {
		t.Fatal(err)
	}
	if want := 10.0; math.Abs(sol.Completion[0]-want) > 1e-9 {
		t.Errorf("completion %g, want %g", sol.Completion[0], want)
	}
}

func TestFluidRespectsArrival(t *testing.T) {
	in := singleJobInstance(1, 1, 1, 2, 0)
	in.Jobs[0].Arrival = 7
	sol, err := Fluid(in)
	if err != nil {
		t.Fatal(err)
	}
	if sol.RoundStart[0][0] < 7 {
		t.Errorf("round started at %g before arrival 7", sol.RoundStart[0][0])
	}
	if want := 9.0; math.Abs(sol.Completion[0]-want) > 1e-9 {
		t.Errorf("completion %g, want %g", sol.Completion[0], want)
	}
}

func TestFluidPriorityByDensity(t *testing.T) {
	// Two identical-length jobs, one with far higher weight, sharing
	// one GPU of capacity: the heavy job's fluid completion must come
	// first.
	in := &core.Instance{
		NumGPUs: 1,
		Jobs: []*core.Job{
			{ID: 0, Name: "light", Weight: 1, Rounds: 1, Scale: 1},
			{ID: 1, Name: "heavy", Weight: 10, Rounds: 1, Scale: 1},
		},
		Train: [][]float64{{4}, {4}},
		Sync:  [][]float64{{0}, {0}},
	}
	sol, err := Fluid(in)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Completion[1] >= sol.Completion[0] {
		t.Errorf("heavy job finished at %g, light at %g", sol.Completion[1], sol.Completion[0])
	}
}

func TestFluidObjectiveLowerBoundsExact(t *testing.T) {
	rng := stats.New(31)
	violations := 0
	const trials = 40
	for trial := 0; trial < trials; trial++ {
		in := randomTiny(rng.Split())
		fl, err := Fluid(in)
		if err != nil {
			t.Fatal(err)
		}
		ex, err := Exact(in)
		if err != nil {
			t.Fatal(err)
		}
		if !ex.Optimal {
			t.Fatal("exact search exhausted budget")
		}
		if fl.Objective > ex.Objective+1e-6 {
			violations++
		}
	}
	// The fluid bound is heuristic (priority sharing, not the LP
	// optimum); it may exceed the optimum only rarely.
	if violations > trials/5 {
		t.Errorf("fluid exceeded the exact optimum on %d/%d instances", violations, trials)
	}
}

func TestExactFeasibleAndOptimalOrdering(t *testing.T) {
	rng := stats.New(37)
	for trial := 0; trial < 40; trial++ {
		in := randomTiny(rng.Split())
		res, err := Exact(in)
		if err != nil {
			t.Fatal(err)
		}
		if res.Schedule == nil {
			t.Fatal("no schedule returned")
		}
		if err := core.ValidateSchedule(in, res.Schedule); err != nil {
			t.Fatalf("trial %d: exact schedule infeasible: %v", trial, err)
		}
		if w := res.Schedule.WeightedJCT(in); math.Abs(w-res.Objective) > 1e-6 {
			t.Fatalf("trial %d: objective %g but schedule scores %g", trial, res.Objective, w)
		}
	}
}

func TestExactBeatsGreedyOnAdversarialCase(t *testing.T) {
	// One heavy short job arriving just after a light long job: the
	// optimum delays the long job.
	in := &core.Instance{
		NumGPUs: 1,
		Jobs: []*core.Job{
			{ID: 0, Name: "long", Weight: 1, Rounds: 1, Scale: 1, Arrival: 0},
			{ID: 1, Name: "short", Weight: 100, Rounds: 1, Scale: 1, Arrival: 1},
		},
		Train: [][]float64{{10}, {2}},
		Sync:  [][]float64{{0}, {0}},
	}
	res, err := Exact(in)
	if err != nil {
		t.Fatal(err)
	}
	// Optimal: idle until 1, run short (C=3, w=100), then long
	// (C=13): 300 + 13 = 313. Greedy long-first would score
	// 1·10 + 100·12 = 1210.
	if math.Abs(res.Objective-313) > 1e-6 {
		t.Errorf("objective %g, want 313", res.Objective)
	}
}

// TestHMonotoneInRounds: Algorithm 1's H_i = x̂_i + ½·max_m T^c_{i,m}
// shifts a job's round starts by one constant, so it never descends
// within a job when x̂ does not (float addition is monotone).
func TestHMonotoneInRounds(t *testing.T) {
	rng := stats.New(41)
	for trial := 0; trial < 20; trial++ {
		in := randomTiny(rng.Split())
		sol, err := Fluid(in)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range in.Jobs {
			for r := 1; r < j.Rounds; r++ {
				if sol.RoundStart[j.ID][r] < sol.RoundStart[j.ID][r-1] {
					t.Fatalf("H not monotone for job %d round %d", j.ID, r)
				}
			}
		}
	}
}

func randomTiny(rng *stats.RNG) *core.Instance {
	nm := 2 + rng.Intn(2)
	in := &core.Instance{NumGPUs: nm}
	budget := 5
	j := 0
	for budget > 0 {
		scale := 1 + rng.Intn(2)
		rounds := 1 + rng.Intn(2)
		if scale*rounds > budget {
			scale, rounds = 1, 1
		}
		budget -= scale * rounds
		in.Jobs = append(in.Jobs, &core.Job{
			ID: core.JobID(j), Name: "t", Weight: rng.Uniform(0.5, 3),
			Arrival: rng.Uniform(0, 3), Rounds: rounds, Scale: scale,
		})
		tr := make([]float64, nm)
		sy := make([]float64, nm)
		base := rng.Uniform(1, 5)
		for m := 0; m < nm; m++ {
			tr[m] = base * rng.Uniform(1, 3)
			sy[m] = base * rng.Uniform(0, 0.4)
		}
		in.Train = append(in.Train, tr)
		in.Sync = append(in.Sync, sy)
		j++
	}
	return in
}
