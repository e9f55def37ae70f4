// Package experiments regenerates every table and figure of the
// paper's evaluation (Section 7) plus the motivation studies
// (Section 2) and the ablations called out in DESIGN.md. Each
// experiment is a pure function of its Config, returning typed rows;
// All (registry.go) lists them with the renderer of each, which is what
// cmd/harebench prints and bench_test.go times, so every number in
// EXPERIMENTS.md is reproducible from a seed.
package experiments

import (
	"fmt"

	"hare/internal/cluster"
	"hare/internal/core"
	"hare/internal/metrics"
	"hare/internal/model"
	"hare/internal/obs"
	"hare/internal/sched"
	"hare/internal/sim"
	"hare/internal/switching"
	"hare/internal/trace"
	"hare/internal/workload"
)

// Config scales experiments. The zero value is upgraded to the
// paper's full-size settings; tests shrink RoundsScale and job counts
// to run in milliseconds.
type Config struct {
	// Seed drives all randomness.
	Seed int64
	// RoundsScale multiplies per-model round counts (1 = paper size).
	RoundsScale float64
	// Jobs overrides the default job count of large-scale experiments
	// (200 in the paper's Fig. 14/16/17/18/19).
	Jobs int
	// GPUs overrides the default fleet size of large-scale
	// experiments (160).
	GPUs int
	// HorizonSeconds spreads job arrivals (Google-trace-like).
	HorizonSeconds float64
	// Recorder, when set, receives structured events from every
	// simulator replay an experiment performs (harebench's
	// -trace-out/-events-out flags); nil disables instrumentation.
	// The obs sinks are safe for concurrent emission, but with
	// Parallel > 1 events from different replays interleave differently
	// every run, so harebench refuses a capture of a parallel run.
	Recorder *obs.Recorder
	// Parallel fans independent runs — sweep points, seeds, and
	// per-scheme schedule+replay pairs — out across this many worker
	// goroutines. 0 (the zero value) and 1 run serially; negative
	// takes GOMAXPROCS. Results are identical to a serial run: every
	// experiment is a pure function of its Config and rows are
	// collected by index (see parallel.go).
	Parallel int

	// pool is the worker pool Defaults derives from Parallel; nested
	// experiment layers share it through the copied Config.
	pool *workerPool
}

// Defaults fills in the paper's full-scale settings.
func (c Config) Defaults() Config {
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.RoundsScale == 0 {
		c.RoundsScale = 1
	}
	if c.Jobs == 0 {
		c.Jobs = 200
	}
	if c.GPUs == 0 {
		c.GPUs = 160
	}
	if c.HorizonSeconds == 0 {
		// Keep the offered load constant as jobs shrink. The 900 s
		// full-size horizon loads the default 160-GPU fleet well past
		// saturation, the regime in which the paper's gaps (Hare ~2×
		// ahead) appear; longer horizons drain the queue and compress
		// every scheme toward the arrival process.
		c.HorizonSeconds = 900 * c.RoundsScale
	}
	if c.pool == nil {
		if w := c.Workers(); w > 1 {
			c.pool = newWorkerPool(w)
		}
	}
	return c
}

// buildWorkload generates a job population with arrivals and the
// matching instance on the given cluster.
func buildWorkload(cfg Config, cl *cluster.Cluster, numJobs int, mix workload.Mix, batchScale float64) (*core.Instance, []*workload.Spec, []*model.Model, error) {
	arr := trace.Arrivals(numJobs, cfg.HorizonSeconds, cfg.Seed+1)
	specs := workload.Generate(workload.Options{
		NumJobs:     numJobs,
		Mix:         mix,
		Arrivals:    arr,
		BatchScale:  batchScale,
		RoundsScale: cfg.RoundsScale,
		MaxSync:     cl.Size(),
		Seed:        cfg.Seed + 2,
	})
	in, models, err := workload.BuildInstance(specs, cl, cfg.Seed+3)
	return in, specs, models, err
}

// SchemeResult is one scheduler's outcome on one setting.
type SchemeResult struct {
	Scheme      string
	WeightedJCT float64
	Makespan    float64
	MeanUtil    float64
	TotalSwitch float64
	// Report carries per-job durations for CDFs.
	Report *metrics.JCTReport
	// Fairness carries finish-time fairness and waiting metrics.
	Fairness *metrics.FairnessReport
}

// runSchemes plans with every algorithm and replays each plan in the
// simulator. Baselines pay the default switching cost when they
// preempt between jobs (they rarely do — they hold GPUs job-level);
// Hare pays its fast-switching cost including speculative residency.
// The schedulers treat the shared Instance as read-only and every
// replay builds private state, so scheme runs fan out over cfg.pool;
// results land by index to keep the lineup order.
func runSchemes(cfg Config, in *core.Instance, cl *cluster.Cluster, models []*model.Model, algos []sched.Algorithm) ([]SchemeResult, error) {
	out := make([]SchemeResult, len(algos))
	err := cfg.pool.forEach(len(algos), func(i int) error {
		a := algos[i]
		s, err := a.Schedule(in)
		if err != nil {
			return fmt.Errorf("experiments: %s: %w", a.Name(), err)
		}
		res, err := sim.Run(in, s, cl, models, cfg.simOptions(a.Name()))
		if err != nil {
			return fmt.Errorf("experiments: simulate %s: %w", a.Name(), err)
		}
		out[i] = SchemeResult{
			Scheme:      a.Name(),
			WeightedJCT: res.WeightedJCT,
			Makespan:    res.Makespan,
			MeanUtil:    res.MeanUtilization(),
			TotalSwitch: res.TotalSwitch,
			Report:      metrics.NewJCTReport(in, res.JobCompletion),
			Fairness:    metrics.NewFairnessReport(in, res.Trace),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// simOptions are the replay options of one scheme's plan in the
// comparison experiments: switching is charged under the scheme the
// scheduler ships with (sched.Switching), speculative memory with it
// under Hare's.
func (c Config) simOptions(algoName string) sim.Options {
	scheme := sched.Switching(algoName)
	return sim.Options{
		Scheme:      scheme,
		Speculative: scheme == switching.Hare,
		Seed:        c.Seed + 7,
		Recorder:    c.Recorder,
	}
}

// findResult returns the named scheme's row.
func findResult(rs []SchemeResult, name string) (SchemeResult, error) {
	for _, r := range rs {
		if r.Scheme == name {
			return r, nil
		}
	}
	return SchemeResult{}, fmt.Errorf("experiments: scheme %q missing from results", name)
}
