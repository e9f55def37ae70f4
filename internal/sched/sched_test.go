package sched

import (
	"math"
	"testing"

	"hare/internal/core"
	"hare/internal/sched/relax"
	"hare/internal/stats"
)

// randomInstance builds a feasible random instance for property tests.
func randomInstance(rng *stats.RNG, maxJobs, maxGPUs int) *core.Instance {
	nj := 1 + rng.Intn(maxJobs)
	nm := 1 + rng.Intn(maxGPUs)
	in := &core.Instance{NumGPUs: nm}
	for j := 0; j < nj; j++ {
		job := &core.Job{
			ID:      core.JobID(j),
			Name:    "rnd",
			Weight:  rng.Uniform(0.5, 4),
			Arrival: rng.Uniform(0, 50),
			Rounds:  1 + rng.Intn(4),
			Scale:   1 + rng.Intn(nm),
		}
		in.Jobs = append(in.Jobs, job)
		tr := make([]float64, nm)
		sy := make([]float64, nm)
		base := rng.Uniform(1, 20)
		for m := 0; m < nm; m++ {
			tr[m] = base * rng.Uniform(1, 7)
			sy[m] = rng.Uniform(0.05, 0.9) * base
		}
		in.Train = append(in.Train, tr)
		in.Sync = append(in.Sync, sy)
	}
	return in
}

// allTasks enumerates every task of in in (job, round, index) order.
func allTasks(in *core.Instance) []core.TaskRef {
	var out []core.TaskRef
	for _, j := range in.Jobs {
		for r := 0; r < j.Rounds; r++ {
			for k := 0; k < j.Scale; k++ {
				out = append(out, core.TaskRef{Job: j.ID, Round: r, Index: k})
			}
		}
	}
	return out
}

// middleH is Algorithm 1's sort key for a task of round r of job j:
// H_i = x̂_i + ½·max_m T^c_{i,m}.
func middleH(in *core.Instance, sol *relax.Solution, j core.JobID, r int) float64 {
	var tmax float64
	for m := 0; m < in.NumGPUs; m++ {
		tmax = math.Max(tmax, in.Train[j][m])
	}
	return sol.RoundStart[j][r] + 0.5*tmax
}

// at is t's placement in s, the zero Placement if it is not placed.
func at(s *core.Schedule, t core.TaskRef) core.Placement {
	p, _ := s.At(t)
	return p
}

// TestAllAlgorithmsProduceFeasibleSchedules drives every algorithm
// over many random instances and validates constraints (4)–(8).
func TestAllAlgorithmsProduceFeasibleSchedules(t *testing.T) {
	rng := stats.New(7)
	algos := append(All(), NewHareEA())
	for trial := 0; trial < 60; trial++ {
		in := randomInstance(rng.Split(), 6, 5)
		for _, a := range algos {
			s, err := a.Schedule(in)
			if err != nil {
				t.Fatalf("trial %d: %s: %v", trial, a.Name(), err)
			}
			if err := core.ValidateSchedule(in, s); err != nil {
				t.Fatalf("trial %d: %s produced infeasible schedule: %v", trial, a.Name(), err)
			}
			if w := s.WeightedJCT(in); math.IsNaN(w) || w <= 0 {
				t.Fatalf("trial %d: %s weighted JCT = %g", trial, a.Name(), w)
			}
		}
	}
}

// FuzzSchedulersValidate: every scheme of the table plans a fuzzed
// instance (≤ 8 jobs, ≤ 6 GPUs, bent into one of reshape's shapes)
// into a schedule that satisfies constraints (4)–(8).
func FuzzSchedulersValidate(f *testing.F) {
	for shape := uint8(0); shape < shapes; shape++ {
		f.Add(int64(shape), shape)
	}
	f.Fuzz(func(t *testing.T, seed int64, shape uint8) {
		in := randomInstance(stats.New(seed), 8, 6)
		reshape(in, int(shape%shapes))
		for _, name := range Names() {
			a, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			s, err := a.Schedule(in)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if err := core.ValidateSchedule(in, s); err != nil {
				t.Fatalf("%s: infeasible: %v", name, err)
			}
		}
	})
}

// TestHareBeatsBaselinesOnHeterogeneousLoad checks the headline claim
// qualitatively: on a heterogeneous instance with intra-job
// parallelism, Hare's weighted JCT is no worse than every baseline's.
func TestHareBeatsBaselinesOnHeterogeneousLoad(t *testing.T) {
	rng := stats.New(11)
	wins, trials := 0, 30
	for trial := 0; trial < trials; trial++ {
		in := randomInstance(rng.Split(), 8, 6)
		hs, err := NewHare().Schedule(in)
		if err != nil {
			t.Fatal(err)
		}
		hw := hs.WeightedJCT(in)
		best := math.Inf(1)
		for _, a := range Baselines() {
			s, err := a.Schedule(in)
			if err != nil {
				t.Fatal(err)
			}
			if w := s.WeightedJCT(in); w < best {
				best = w
			}
		}
		if hw <= best*1.001 {
			wins++
		}
	}
	// Hare should match or beat the best baseline in a strong
	// majority of random heterogeneous instances.
	if wins < trials*6/10 {
		t.Errorf("Hare matched/beat the best baseline in only %d/%d trials", wins, trials)
	}
}

// TestScaleTooLargeRejected: a job wider than the fleet is infeasible
// for every gang scheduler, which must say which job; the schemes that
// can serialize a round on fewer GPUs (relaxed sync, serial placement)
// plan it.
func TestScaleTooLargeRejected(t *testing.T) {
	in := &core.Instance{
		NumGPUs: 2,
		Jobs: []*core.Job{{
			ID: 0, Name: "wide", Weight: 1, Rounds: 1, Scale: 3,
		}},
		Train: [][]float64{{1, 1}},
		Sync:  [][]float64{{0.1, 0.1}},
	}
	accepts := map[string]bool{"Hare": true, "Hare-EA": true, "Hare-online": true, "Sched_Allox": true}
	for _, name := range Names() {
		a, _ := ByName(name)
		s, err := a.Schedule(in)
		switch {
		case accepts[name] && err != nil:
			t.Errorf("%s: %v, want a plan", name, err)
		case accepts[name]:
			if err := core.ValidateSchedule(in, s); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		case err == nil || err.Error() != "sched: job 0 (wide) needs 3 GPUs but cluster has 2":
			t.Errorf("%s: error %v, want the too-wide job named", name, err)
		}
	}
}
