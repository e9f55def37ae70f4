package experiments

import (
	"fmt"

	"hare/internal/cluster"
	"hare/internal/core"
	"hare/internal/faults"
	"hare/internal/sched"
	"hare/internal/sim"
)

// simPlan caches one scheme's plan and fault-free baseline.
type simPlan struct {
	algo                   sched.Algorithm
	plan                   *core.Schedule
	baseWJCT, baseMakespan float64
}

// FaultSchemeResult is one scheduler's outcome under one fault
// condition, next to its own fault-free baseline on the same plan.
type FaultSchemeResult struct {
	Scheme      string
	WeightedJCT float64
	Makespan    float64
	// Baseline is the scheme's fault-free weighted JCT;
	// DegradationPct is the relative slowdown the faults cost.
	Baseline       float64
	DegradationPct float64
	// Recovery accounting (see sim.Result).
	Retries       int
	LostSeconds   float64
	GPUFailures   int
	TasksMigrated int
	Reschedules   int
}

// FaultRow is one fault condition (a transient rate, or a number of
// permanent GPU failures) across all schedulers.
type FaultRow struct {
	Label string
	// Rate is the transient fault rate of this row (0 for failure
	// rows); Failures the number of permanent GPU failures (0 for
	// rate rows).
	Rate     float64
	Failures int
	Results  []FaultSchemeResult
}

// FaultSweep measures robustness: every scheduler's weighted JCT
// degradation as transient fault rates grow (2, 5, 10, 20 % of
// attempts), and as permanent GPU failures pile up (1, 2, 4). Each scheme plans once; the fault-free replay of
// that plan is its own baseline. Permanent failures are placed
// deterministically — failure i of k kills GPU i·NumGPUs/k at sim
// time (i+1)/(k+1) of the scheme's fault-free makespan — so the whole
// table is a pure function of cfg.Seed. The re-plan on failure uses
// the same algorithm that produced the original plan, i.e. each
// scheme recovers with its own policy.
func FaultSweep(cfg Config) ([]FaultRow, error) {
	cfg = cfg.Defaults()
	rates := []float64{0.02, 0.05, 0.1, 0.2}
	failureCounts := []int{1, 2, 4}
	cl := cluster.Heterogeneous(cluster.HighHeterogeneity, cfg.GPUs)
	for _, k := range failureCounts {
		if k >= cl.Size() {
			return nil, fmt.Errorf("faultsweep: %d failures on a %d-GPU fleet leaves no survivors", k, cl.Size())
		}
	}
	in, _, models, err := buildWorkload(cfg, cl, cfg.Jobs, nil, 1)
	if err != nil {
		return nil, err
	}
	algos := sched.All()

	// Plan and fault-free baseline, once per scheme.
	plans := make([]*simPlan, len(algos))
	err = cfg.pool.forEach(len(algos), func(i int) error {
		a := algos[i]
		s, err := a.Schedule(in)
		if err != nil {
			return fmt.Errorf("faultsweep: %s: %w", a.Name(), err)
		}
		res, err := sim.Run(in, s, cl, models, cfg.simOptions(a.Name()))
		if err != nil {
			return fmt.Errorf("faultsweep: baseline %s: %w", a.Name(), err)
		}
		plans[i] = &simPlan{algo: a, plan: s, baseWJCT: res.WeightedJCT, baseMakespan: res.Makespan}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// One row per condition: transient rates first, then failure
	// counts.
	type cond struct {
		label    string
		rate     float64
		failures int
	}
	var conds []cond
	for _, r := range rates {
		conds = append(conds, cond{label: fmt.Sprintf("rate=%g", r), rate: r})
	}
	for _, k := range failureCounts {
		conds = append(conds, cond{label: fmt.Sprintf("failures=%d", k), failures: k})
	}
	rows := make([]FaultRow, len(conds))
	err = cfg.pool.forEach(len(conds), func(ci int) error {
		c := conds[ci]
		row := FaultRow{Label: c.label, Rate: c.rate, Failures: c.failures}
		for _, p := range plans {
			plan := &faults.Plan{Rate: c.rate, Seed: cfg.Seed + 13}
			for i := 0; i < c.failures; i++ {
				plan.Failures = append(plan.Failures, faults.GPUFailure{
					GPU:  i * in.NumGPUs / c.failures,
					Time: p.baseMakespan * float64(i+1) / float64(c.failures+1),
				})
			}
			opts := cfg.simOptions(p.algo.Name())
			opts.Faults = plan
			opts.Replanner = p.algo
			res, err := sim.Run(in, p.plan, cl, models, opts)
			if err != nil {
				return fmt.Errorf("faultsweep: %s %s: %w", p.algo.Name(), c.label, err)
			}
			row.Results = append(row.Results, FaultSchemeResult{
				Scheme:         p.algo.Name(),
				WeightedJCT:    res.WeightedJCT,
				Makespan:       res.Makespan,
				Baseline:       p.baseWJCT,
				DegradationPct: 100 * (res.WeightedJCT - p.baseWJCT) / p.baseWJCT,
				Retries:        res.Retries,
				LostSeconds:    res.LostSeconds,
				GPUFailures:    len(res.FailedGPUs),
				TasksMigrated:  res.TasksMigrated,
				Reschedules:    res.Reschedules,
			})
		}
		rows[ci] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}
