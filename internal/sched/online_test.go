package sched

import (
	"math"
	"testing"

	"hare/internal/core"
	"hare/internal/stats"
)

func TestOnlineHareFeasible(t *testing.T) {
	rng := stats.New(103)
	for trial := 0; trial < 60; trial++ {
		in := randomInstance(rng.Split(), 6, 5)
		s, err := NewOnlineHare().Schedule(in)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := core.ValidateSchedule(in, s); err != nil {
			t.Fatalf("trial %d: infeasible: %v", trial, err)
		}
	}
}

func TestOnlineMatchesOfflineWithoutArrivals(t *testing.T) {
	// When every job arrives at time 0 there is a single planning
	// epoch, so online and offline Hare coincide.
	rng := stats.New(107)
	for trial := 0; trial < 20; trial++ {
		in := randomInstance(rng.Split(), 5, 4)
		for _, j := range in.Jobs {
			j.Arrival = 0
		}
		off, err := NewHare().Schedule(in)
		if err != nil {
			t.Fatal(err)
		}
		on, err := NewOnlineHare().Schedule(in)
		if err != nil {
			t.Fatal(err)
		}
		if ow, nw := off.WeightedJCT(in), on.WeightedJCT(in); math.Abs(ow-nw) > 1e-6 {
			t.Fatalf("trial %d: offline %.4f != online %.4f with no arrivals", trial, ow, nw)
		}
	}
}

func TestOnlineNeverRevokesCommittedWork(t *testing.T) {
	// A job arriving late must not displace tasks that necessarily
	// started earlier: every task starting before a job's arrival is
	// untouched by that job's arrival. We check this indirectly: the
	// schedule restricted to early starts is identical whether or not
	// the late job exists.
	earlyJobs := func() []*core.Job {
		return []*core.Job{
			{ID: 0, Name: "a", Weight: 1, Arrival: 0, Rounds: 3, Scale: 1},
			{ID: 1, Name: "b", Weight: 1, Arrival: 0, Rounds: 2, Scale: 2},
		}
	}
	base := &core.Instance{
		NumGPUs: 2,
		Jobs:    earlyJobs(),
		Train:   [][]float64{{2, 3}, {1.5, 2.5}},
		Sync:    [][]float64{{0.2, 0.2}, {0.1, 0.1}},
	}
	extended := &core.Instance{
		NumGPUs: 2,
		Jobs: append(earlyJobs(), &core.Job{
			ID: 2, Name: "late", Weight: 5, Arrival: 4, Rounds: 1, Scale: 1,
		}),
		Train: append(append([][]float64{}, base.Train...), []float64{1, 1}),
		Sync:  append(append([][]float64{}, base.Sync...), []float64{0, 0}),
	}
	sBase, err := NewOnlineHare().Schedule(base)
	if err != nil {
		t.Fatal(err)
	}
	sExt, err := NewOnlineHare().Schedule(extended)
	if err != nil {
		t.Fatal(err)
	}
	sBase.Each(func(tr core.TaskRef, p core.Placement) {
		pe, ok := sExt.At(tr)
		if !ok {
			t.Fatalf("task %v missing in extended schedule", tr)
		}
		// Rounds fully started before the arrival at 4 must be
		// identical (committed before the arrival was known).
		if p.Start < 4 && roundFullyBefore(sBase, base, tr, 4) {
			if pe != p {
				t.Errorf("committed task %v moved: %+v -> %+v", tr, p, pe)
			}
		}
	})
}

// roundFullyBefore reports whether every task of tr's round starts
// before cutoff in s.
func roundFullyBefore(s *core.Schedule, in *core.Instance, tr core.TaskRef, cutoff float64) bool {
	for k := 0; k < in.Jobs[tr.Job].Scale; k++ {
		p, ok := s.At(core.TaskRef{Job: tr.Job, Round: tr.Round, Index: k})
		if !ok || p.Start >= cutoff {
			return false
		}
	}
	return true
}

func TestOnlineCompetitiveWithOffline(t *testing.T) {
	// Without clairvoyance the online variant loses some ground, but
	// it should stay within a modest factor of offline Hare on
	// arrival-heavy workloads.
	rng := stats.New(109)
	var ratioSum float64
	const trials = 30
	for trial := 0; trial < trials; trial++ {
		in := randomInstance(rng.Split(), 8, 5)
		off, err := NewHare().Schedule(in)
		if err != nil {
			t.Fatal(err)
		}
		on, err := NewOnlineHare().Schedule(in)
		if err != nil {
			t.Fatal(err)
		}
		ratioSum += on.WeightedJCT(in) / off.WeightedJCT(in)
	}
	mean := ratioSum / trials
	t.Logf("online/offline weighted JCT ratio: %.3f", mean)
	if mean > 1.5 {
		t.Errorf("online variant %.2fx worse than offline on average", mean)
	}
}
