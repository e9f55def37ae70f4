package sched

import (
	"testing"

	"hare/internal/core"
	"hare/internal/stats"
)

func TestThemisFairFeasible(t *testing.T) {
	rng := stats.New(127)
	for trial := 0; trial < 40; trial++ {
		in := randomInstance(rng.Split(), 6, 5)
		s, err := NewThemisFair().Schedule(in)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := core.ValidateSchedule(in, s); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestThemisFairPrefersMostBehind(t *testing.T) {
	// Two identical jobs; job 1 has waited since t=0 while job 0 just
	// arrived — the fairness policy runs the long-waiting one first.
	jobs := []*core.Job{
		{ID: 0, Name: "fresh", Weight: 1, Arrival: 5, Rounds: 2, Scale: 1},
		{ID: 1, Name: "waiting", Weight: 1, Arrival: 0, Rounds: 2, Scale: 1},
	}
	in := uniformInstance(jobs, 1, 2, 0)
	s, err := NewThemisFair().Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	p0 := at(s, core.TaskRef{Job: 0, Round: 0})
	p1 := at(s, core.TaskRef{Job: 1, Round: 0})
	if p1.Start > p0.Start {
		t.Errorf("waiting job started at %.1f after the fresh job's %.1f", p1.Start, p0.Start)
	}
}

func TestThemisFairRejectsWideJobs(t *testing.T) {
	jobs := []*core.Job{{ID: 0, Name: "wide", Weight: 1, Rounds: 1, Scale: 5}}
	in := uniformInstance(jobs, 2, 1, 0)
	if _, err := NewThemisFair().Schedule(in); err == nil {
		t.Error("scale > cluster accepted")
	}
}
