package experiments

import (
	"fmt"
	"math"

	"hare/internal/cluster"
	"hare/internal/model"
	"hare/internal/sched"
	"hare/internal/switching"
	"hare/internal/testbed"
	"hare/internal/workload"
)

// Fig12Row compares one scheme's weighted JCT on the simulator and,
// for the lineup's leaders, on the in-process testbed.
type Fig12Row struct {
	Scheme         string
	SimWeightedJCT float64
	// TestbedWeightedJCT is NaN for schemes not run on the testbed.
	TestbedWeightedJCT float64
	// GapPercent is |testbed − sim| / testbed · 100 (the paper's
	// "no more than 5% difference" fidelity check), NaN likewise.
	GapPercent float64
}

// Fig. 12's workload: jobs on the 15-GPU testbed fleet, and the
// testbed clock scale in wall seconds per simulated second.
const (
	fig12Jobs      = 24
	fig12TimeScale = 3e-3
)

// Fig12Options control the testbed-scale experiment.
type Fig12Options struct {
	// TestbedSchemes names the schemes also executed on the testbed
	// (default: all five).
	TestbedSchemes []string
}

// Fig12Testbed reproduces Fig. 12: total weighted JCT of all five
// schemes on the paper's 15-GPU heterogeneous testbed workload, on
// both the simulator and the concurrently-executing testbed, with the
// per-scheme fidelity gap.
func Fig12Testbed(cfg Config, opts Fig12Options) ([]Fig12Row, error) {
	cfg = cfg.Defaults()
	cl := cluster.Testbed()
	cfg.HorizonSeconds = math.Min(cfg.HorizonSeconds, 600)
	in, _, models, err := buildWorkload(cfg, cl, fig12Jobs, nil, 1)
	if err != nil {
		return nil, err
	}
	algos := sched.All()
	simRes, err := runSchemes(cfg, in, cl, models, algos)
	if err != nil {
		return nil, err
	}

	runOnTestbed := make(map[string]bool)
	if opts.TestbedSchemes == nil {
		for _, a := range algos {
			runOnTestbed[a.Name()] = true
		}
	} else {
		for _, n := range opts.TestbedSchemes {
			runOnTestbed[n] = true
		}
	}

	// The testbed replays in scaled wall-clock time with its own
	// worker goroutines; running schemes one at a time keeps its
	// timing (and the fidelity gap it measures) honest, so this loop
	// stays serial regardless of cfg.Parallel.
	rows := make([]Fig12Row, 0, len(algos))
	for _, a := range algos {
		sr, err := findResult(simRes, a.Name())
		if err != nil {
			return nil, err
		}
		row := Fig12Row{Scheme: a.Name(), SimWeightedJCT: sr.WeightedJCT, TestbedWeightedJCT: math.NaN(), GapPercent: math.NaN()}
		if runOnTestbed[a.Name()] {
			plan, err := a.Schedule(in)
			if err != nil {
				return nil, err
			}
			scheme := sched.Switching(a.Name())
			tb, err := testbed.Run(in, plan, cl, models, testbed.Options{
				TimeScale:   fig12TimeScale,
				Scheme:      scheme,
				Speculative: scheme == switching.Hare,
			})
			if err != nil {
				return nil, err
			}
			row.TestbedWeightedJCT, row.GapPercent = tb.WeightedJCT, 0
			if tb.WeightedJCT > 0 {
				row.GapPercent = math.Abs(tb.WeightedJCT-sr.WeightedJCT) / tb.WeightedJCT * 100
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig13Row is one scheme's JCT CDF.
type Fig13Row struct {
	Scheme string
	// Thresholds are in seconds; Fractions[i] is the fraction of jobs
	// completing within Thresholds[i] of their arrival.
	Thresholds []float64
	Fractions  []float64
	// Within25Min is the paper's headline point on the CDF.
	Within25Min float64
}

// Fig13CDF reproduces Fig. 13: the CDF of job completion time under
// Hare, Sched_Allox and Sched_Homo on a 48-job testbed workload.
func Fig13CDF(cfg Config) ([]Fig13Row, error) {
	cfg = cfg.Defaults()
	cl := cluster.Testbed()
	cfg.HorizonSeconds = math.Min(cfg.HorizonSeconds, 600)
	in, _, models, err := buildWorkload(cfg, cl, 48, nil, 1)
	if err != nil {
		return nil, err
	}
	algos := []sched.Algorithm{sched.NewHare(), sched.NewSchedAllox(), sched.NewSchedHomo()}
	results, err := runSchemes(cfg, in, cl, models, algos)
	if err != nil {
		return nil, err
	}
	thresholds := make([]float64, 30)
	for i := range thresholds {
		thresholds[i] = float64(i+1) * 120 // 2-minute grid up to 1 hour
	}
	rows := make([]Fig13Row, 0, len(results))
	for _, r := range results {
		rows = append(rows, Fig13Row{
			Scheme:      r.Scheme,
			Thresholds:  thresholds,
			Fractions:   r.Report.CDF(thresholds),
			Within25Min: r.Report.FractionWithin(25 * 60),
		})
	}
	return rows, nil
}

// SweepRow is one (x, scheme) cell of a sweep figure.
type SweepRow struct {
	X       float64 // the swept parameter (GPUs, jobs, Gbps, ...)
	Label   string  // textual form of X where non-numeric
	Results []SchemeResult
}

// point is one x-axis position of a sweep figure: how it is labelled
// and everything that varies with it.
type point struct {
	x     float64
	label string
	tag   string // names the point in errors, after the figure id
	cl    *cluster.Cluster
	jobs  int
	mix   workload.Mix // nil = the default mix
	// batch multiplies every job's batch size; rounds shrink by the
	// same factor, so each job still trains the same number of samples.
	batch float64
}

// sweep plans and replays the paper's five schemes at each of n points,
// fanned out over cfg.pool with rows landing by index.
func sweep(cfg Config, fig string, n int, at func(i int) point) ([]SweepRow, error) {
	rows := make([]SweepRow, n)
	err := cfg.pool.forEach(n, func(i int) error {
		p := at(i)
		c := cfg // per-point copy: RoundsScale differs across batch sizes
		c.RoundsScale = cfg.RoundsScale / p.batch
		in, _, models, err := buildWorkload(c, p.cl, p.jobs, p.mix, p.batch)
		if err != nil {
			return err
		}
		results, err := runSchemes(c, in, p.cl, models, sched.All())
		if err != nil {
			return fmt.Errorf("%s %s: %w", fig, p.tag, err)
		}
		rows[i] = SweepRow{X: p.x, Label: p.label, Results: results}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// fiveAround is the x axis of Fig. 14 and 15: the configured size and
// two steps to either side of it (80–240 GPUs, 100–300 jobs at the
// paper's sizes), so a shrunken Config shrinks the sweep with it.
func fiveAround(n int) []int {
	return []int{n / 2, n * 3 / 4, n, n * 5 / 4, n * 3 / 2}
}

// Fig14GPUSweep reproduces Fig. 14: weighted JCT of every scheme as
// the fleet grows (80–240 GPUs at high heterogeneity), with the job
// count fixed (paper: 200).
func Fig14GPUSweep(cfg Config) ([]SweepRow, error) {
	cfg = cfg.Defaults()
	gpuCounts := fiveAround(cfg.GPUs)
	return sweep(cfg, "fig14", len(gpuCounts), func(i int) point {
		n := gpuCounts[i]
		return point{x: float64(n), label: fmt.Sprintf("%d GPUs", n), tag: fmt.Sprintf("n=%d", n),
			cl: cluster.Heterogeneous(cluster.HighHeterogeneity, n), jobs: cfg.Jobs, batch: 1}
	})
}

// Fig15JobSweep reproduces Fig. 15: weighted JCT as the number of
// jobs grows (100–300) on a fixed 160-GPU fleet.
func Fig15JobSweep(cfg Config) ([]SweepRow, error) {
	cfg = cfg.Defaults()
	jobCounts := fiveAround(cfg.Jobs)
	cl := cluster.Heterogeneous(cluster.HighHeterogeneity, cfg.GPUs)
	return sweep(cfg, "fig15", len(jobCounts), func(i int) point {
		n := jobCounts[i]
		return point{x: float64(n), label: fmt.Sprintf("%d jobs", n), tag: fmt.Sprintf("n=%d", n),
			cl: cl, jobs: n, batch: 1}
	})
}

// Fig16Heterogeneity reproduces Fig. 16: weighted JCT at the paper's
// three heterogeneity levels (pure V100; V100×K80; V100×T4×K80×M60)
// with fleet and job counts fixed.
func Fig16Heterogeneity(cfg Config) ([]SweepRow, error) {
	cfg = cfg.Defaults()
	levels := []cluster.HeterogeneityLevel{
		cluster.LowHeterogeneity, cluster.MidHeterogeneity, cluster.HighHeterogeneity,
	}
	return sweep(cfg, "fig16", len(levels), func(i int) point {
		lv := levels[i]
		return point{x: float64(i), label: lv.String(), tag: lv.String(),
			cl: cluster.Heterogeneous(lv, cfg.GPUs), jobs: cfg.Jobs, batch: 1}
	})
}

// Fig17JobMix reproduces Fig. 17: weighted JCT as one workload class's
// share grows from the default 25 % to 40, 55 and 70 %, for each of the
// four classes.
func Fig17JobMix(cfg Config) (map[model.Class][]SweepRow, error) {
	cfg = cfg.Defaults()
	fractions := []float64{0.25, 0.40, 0.55, 0.70}
	cl := cluster.Heterogeneous(cluster.HighHeterogeneity, cfg.GPUs)
	classes := model.Classes()
	// The (class, fraction) grid is one flat sweep, class-major; the map
	// is cut out of its rows afterwards.
	rows, err := sweep(cfg, "fig17", len(classes)*len(fractions), func(i int) point {
		class, f := classes[i/len(fractions)], fractions[i%len(fractions)]
		return point{x: f, label: fmt.Sprintf("%s=%.0f%%", class, f*100), tag: fmt.Sprintf("%s f=%g", class, f),
			cl: cl, jobs: cfg.Jobs, mix: workload.DefaultMix().Boost(class, f), batch: 1}
	})
	if err != nil {
		return nil, err
	}
	out := make(map[model.Class][]SweepRow, len(classes))
	for ci, class := range classes {
		lo, hi := ci*len(fractions), (ci+1)*len(fractions)
		out[class] = rows[lo:hi:hi]
	}
	return out, nil
}

// Fig18Bandwidth reproduces Fig. 18: weighted JCT as the data-center
// network speed varies (10–25 Gbps). Faster networks shrink T^s and
// so the JCT, sub-linearly.
func Fig18Bandwidth(cfg Config) ([]SweepRow, error) {
	cfg = cfg.Defaults()
	gbps := []float64{10, 15, 20, 25}
	return sweep(cfg, "fig18", len(gbps), func(i int) point {
		g := gbps[i]
		return point{x: g, label: fmt.Sprintf("%gGbps", g), tag: fmt.Sprintf("%gGbps", g),
			cl:   cluster.Heterogeneous(cluster.HighHeterogeneity, cfg.GPUs).WithNetwork(g * 1e9),
			jobs: cfg.Jobs, batch: 1}
	})
}

// Fig19BatchSize reproduces Fig. 19: weighted JCT at half, default
// and double batch sizes (B0/2, B0, 2B0). A bigger batch means longer
// tasks but proportionally fewer rounds — each job still trains the
// same number of samples — so most schemes are nearly flat, while the
// gang schedulers pay more straggler idle per (longer) round.
func Fig19BatchSize(cfg Config) ([]SweepRow, error) {
	cfg = cfg.Defaults()
	scales := []float64{0.5, 1, 2}
	cl := cluster.Heterogeneous(cluster.HighHeterogeneity, cfg.GPUs)
	return sweep(cfg, "fig19", len(scales), func(i int) point {
		bs := scales[i]
		return point{x: bs, label: fmt.Sprintf("%gxB0", bs), tag: fmt.Sprintf("b=%g", bs),
			cl: cl, jobs: cfg.Jobs, batch: bs}
	})
}
