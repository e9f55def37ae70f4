package metrics

import (
	"math"

	"hare/internal/core"
	"hare/internal/trace"
)

// Fairness and starvation metrics. The paper's third design goal is
// starvation-freedom ("every task has a chance to run"); related work
// (Themis, Gandiva_fair) additionally evaluates finish-time fairness.
// FairnessReport quantifies both for any executed trace:
//
//   - Rho (finish-time fairness, Themis): a job's realized duration
//     divided by its idealized dedicated-cluster duration — rounds on
//     its fastest GPUs with no queueing. ρ = 1 is as good as running
//     alone; large ρ means the job paid heavily for sharing.
//   - Wait: time from arrival to the job's first task start — the
//     direct starvation signal.
type FairnessReport struct {
	// Rho[j] is job j's finish-time fairness.
	Rho []float64
	// Wait[j] is job j's queueing delay before its first task.
	Wait []float64
	// MeanRho, MaxRho, MaxWait summarize.
	MeanRho, MaxRho float64
	MaxWait         float64
}

// NewFairnessReport derives fairness metrics from an executed trace.
func NewFairnessReport(in *core.Instance, tr *trace.Trace) *FairnessReport {
	n := len(in.Jobs)
	firstStart := make([]float64, n)
	completion := make([]float64, n)
	for j := range firstStart {
		firstStart[j] = math.Inf(1)
	}
	for _, r := range tr.Records {
		if r.Start < firstStart[r.Task.Job] {
			firstStart[r.Task.Job] = r.Start
		}
		if e := r.End(); e > completion[r.Task.Job] {
			completion[r.Task.Job] = e
		}
	}
	rep := &FairnessReport{Rho: make([]float64, n), Wait: make([]float64, n)}
	var sum float64
	for _, j := range in.Jobs {
		dur := completion[j.ID] - j.Arrival
		ded := in.DedicatedRuntime(j)
		rho := math.NaN()
		if ded > 0 && !math.IsInf(firstStart[j.ID], 1) {
			rho = dur / ded
		}
		rep.Rho[j.ID] = rho
		if !math.IsNaN(rho) {
			sum += rho
			if rho > rep.MaxRho {
				rep.MaxRho = rho
			}
		}
		wait := 0.0
		if !math.IsInf(firstStart[j.ID], 1) {
			wait = firstStart[j.ID] - j.Arrival
		}
		rep.Wait[j.ID] = wait
		if wait > rep.MaxWait {
			rep.MaxWait = wait
		}
	}
	rep.MeanRho = sum / float64(n)
	return rep
}
