package sched

import (
	"testing"

	"hare/internal/core"
	"hare/internal/stats"
)

func TestSlicingSchedulersFeasible(t *testing.T) {
	rng := stats.New(113)
	for trial := 0; trial < 40; trial++ {
		in := randomInstance(rng.Split(), 6, 5)
		for _, a := range []Algorithm{NewGandivaRR(), NewTiresiasLAS()} {
			s, err := a.Schedule(in)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, a.Name(), err)
			}
			if err := core.ValidateSchedule(in, s); err != nil {
				t.Fatalf("trial %d %s: %v", trial, a.Name(), err)
			}
		}
	}
}

func TestGandivaRRInterleavesJobs(t *testing.T) {
	// Two identical jobs on one GPU: round robin must alternate
	// their rounds rather than run one job to completion.
	jobs := []*core.Job{
		{ID: 0, Name: "a", Weight: 1, Rounds: 3, Scale: 1},
		{ID: 1, Name: "b", Weight: 1, Rounds: 3, Scale: 1},
	}
	in := uniformInstance(jobs, 1, 2, 0)
	s, err := NewGandivaRR().Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	seq := s.Sequences(1)[0]
	if len(seq) != 6 {
		t.Fatalf("%d tasks", len(seq))
	}
	switches := 0
	for i := 1; i < len(seq); i++ {
		if seq[i].Job != seq[i-1].Job {
			switches++
		}
	}
	// A strict alternation has 5 job switches; running jobs
	// back-to-back would have 1.
	if switches < 4 {
		t.Errorf("round robin barely interleaved: %d job switches in %v", switches, seq)
	}
}

func TestTiresiasLASPrefersLeastServed(t *testing.T) {
	// A short job arriving while a long job has already consumed
	// service gets priority at the next round boundary.
	jobs := []*core.Job{
		{ID: 0, Name: "long", Weight: 1, Arrival: 0, Rounds: 5, Scale: 1},
		{ID: 1, Name: "late", Weight: 1, Arrival: 3, Rounds: 1, Scale: 1},
	}
	in := uniformInstance(jobs, 1, 2, 0)
	s, err := NewTiresiasLAS().Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	// Long job runs rounds at 0-2, 2-4; the late job (attained 0)
	// preempts at the round boundary t=4.
	if p := at(s, core.TaskRef{Job: 1, Round: 0}); p.Start > 4.01 {
		t.Errorf("late job started at %.2f; LAS should run it at the first boundary after arrival", p.Start)
	}
}

func TestSlicingSchedulersRejectWideJobs(t *testing.T) {
	jobs := []*core.Job{{ID: 0, Name: "wide", Weight: 1, Rounds: 1, Scale: 3}}
	in := uniformInstance(jobs, 2, 1, 0)
	for _, a := range []Algorithm{NewGandivaRR(), NewTiresiasLAS()} {
		if _, err := a.Schedule(in); err == nil {
			t.Errorf("%s accepted scale > cluster", a.Name())
		}
	}
}

func TestExtendedLineup(t *testing.T) {
	ext := Extended()
	if len(ext) != 8 {
		t.Fatalf("%d algorithms, want 8", len(ext))
	}
	names := map[string]bool{}
	for _, a := range ext {
		names[a.Name()] = true
	}
	for _, want := range []string{"Hare", "Gavel_FIFO", "SRTF", "Sched_Homo", "Sched_Allox", "Gandiva_RR", "Tiresias_LAS", "Themis_Fair"} {
		if !names[want] {
			t.Errorf("missing %s", want)
		}
	}
}
