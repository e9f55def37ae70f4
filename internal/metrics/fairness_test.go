package metrics

import (
	"math"
	"testing"

	"hare/internal/core"
	"hare/internal/trace"
)

func fairnessFixture() (*core.Instance, *trace.Trace) {
	in := &core.Instance{
		NumGPUs: 2,
		Jobs: []*core.Job{
			{ID: 0, Name: "a", Weight: 1, Arrival: 0, Rounds: 2, Scale: 1},
			{ID: 1, Name: "b", Weight: 1, Arrival: 5, Rounds: 1, Scale: 1},
		},
		Train: [][]float64{{2, 4}, {3, 6}},
		Sync:  [][]float64{{0, 0}, {1, 1}},
	}
	tr := &trace.Trace{}
	// Job 0: rounds at 0-2 and 2-4 on its fast GPU — a perfect run.
	tr.Add(trace.TaskRecord{Task: core.TaskRef{Job: 0, Round: 0}, GPU: 0, Start: 0, Train: 2})
	tr.Add(trace.TaskRecord{Task: core.TaskRef{Job: 0, Round: 1}, GPU: 0, Start: 2, Train: 2})
	// Job 1: waits 3 s after arrival, runs 8-11 (+1 sync).
	tr.Add(trace.TaskRecord{Task: core.TaskRef{Job: 1, Round: 0}, GPU: 0, Start: 8, Train: 3, Sync: 1})
	return in, tr
}

func TestFairnessRho(t *testing.T) {
	in, tr := fairnessFixture()
	rep := NewFairnessReport(in, tr)
	// Job 0: duration 4, dedicated 4 ⇒ ρ = 1.
	if math.Abs(rep.Rho[0]-1) > 1e-9 {
		t.Errorf("job 0 rho %g, want 1", rep.Rho[0])
	}
	// Job 1: duration 12−5 = 7, dedicated 4 ⇒ ρ = 1.75.
	if math.Abs(rep.Rho[1]-1.75) > 1e-9 {
		t.Errorf("job 1 rho %g, want 1.75", rep.Rho[1])
	}
	if math.Abs(rep.MaxRho-1.75) > 1e-9 || math.Abs(rep.MeanRho-1.375) > 1e-9 {
		t.Errorf("summary rho max=%g mean=%g", rep.MaxRho, rep.MeanRho)
	}
}

func TestFairnessWait(t *testing.T) {
	in, tr := fairnessFixture()
	rep := NewFairnessReport(in, tr)
	if rep.Wait[0] != 0 {
		t.Errorf("job 0 wait %g", rep.Wait[0])
	}
	if math.Abs(rep.Wait[1]-3) > 1e-9 || math.Abs(rep.MaxWait-3) > 1e-9 {
		t.Errorf("job 1 wait %g (max %g), want 3", rep.Wait[1], rep.MaxWait)
	}
}

func TestStarvationFree(t *testing.T) {
	in, tr := fairnessFixture()
	rep := NewFairnessReport(in, tr)
	// The paper's starvation-freedom goal, on the report's own fields:
	// every job starts within its dedicated duration of arriving — the
	// longest wait (3 s) is inside job 1's dedicated 4 s, not half of it.
	for _, j := range in.Jobs {
		if rep.Wait[j.ID] > in.DedicatedRuntime(j) {
			t.Errorf("job %d waited %g s, longer than its dedicated duration", j.ID, rep.Wait[j.ID])
		}
	}
	if rep.MaxWait <= 0.5*in.DedicatedRuntime(in.Jobs[1]) {
		t.Errorf("max wait %g, want beyond half of job 1's dedicated duration", rep.MaxWait)
	}
}
