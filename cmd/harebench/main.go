// Command harebench regenerates every table and figure of the paper's
// evaluation and prints the rows/series the paper reports. Each
// experiment is selectable by ID; "all" runs the full battery.
//
// Usage:
//
//	harebench -experiment all                      # everything, scaled
//	harebench -experiment fig14 -scale 1 -jobs 200 # paper-size sweep
//	harebench -list                                # show experiment IDs
package main

import (
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"hare/internal/cliflags"
	"hare/internal/experiments"
	"hare/internal/metrics"
	"hare/internal/model"
	"hare/internal/obs"
	"hare/internal/obs/perf"
	"hare/internal/obs/span"
	"hare/internal/sim"
	"hare/internal/switching"
	"hare/internal/trace"
)

var (
	experiment = flag.String("experiment", "all", "experiment ID (see -list) or 'all'")
	scale      = flag.Float64("scale", 0.2, "rounds scale: 1 = paper-size jobs, smaller = faster")
	jobs       = flag.Int("jobs", 0, "job count override (0 = experiment default)")
	gpus       = flag.Int("gpus", 0, "GPU count override (0 = experiment default)")
	seed       = flag.Int64("seed", 42, "random seed")
	listOnly   = flag.Bool("list", false, "list experiment IDs and exit")
	export     = cliflags.NewExport(flag.CommandLine, "all simulator replays", "the attrib experiment's per-scheme critical-path reports")
	parallel   = flag.Int("parallel", 1, "worker goroutines per experiment (1 = serial, <=0 = GOMAXPROCS); results are identical either way")
	profiles   = cliflags.Profiles(flag.CommandLine)
	perfOut    = flag.Bool("perf-summary", false, "print per-experiment wall time and process runtime stats after the run")
)

type runner struct {
	id   string
	desc string
	run  func(cfg experiments.Config) error
}

func main() {
	flag.Parse()
	// run does the work so its defers (profile flushing) execute
	// before os.Exit.
	os.Exit(run())
}

func run() int {
	runners := allRunners()
	if *listOnly {
		for _, r := range runners {
			fmt.Printf("%-8s %s\n", r.id, r.desc)
		}
		return 0
	}
	stop, err := profiles()
	if err != nil {
		fmt.Fprintf(os.Stderr, "harebench: %v\n", err)
		return 1
	}
	defer stop()
	cfg := experiments.Config{
		Seed:          *seed,
		RoundsScale:   *scale,
		Jobs:          *jobs,
		GPUs:          *gpus,
		WithSwitching: true,
		Speculative:   true,
		Parallel:      *parallel,
	}
	if *parallel <= 0 {
		cfg.Parallel = -1 // experiments.Config: negative = GOMAXPROCS
	}
	if export.TraceOut != "" || export.EventsOut != "" {
		cfg.Recorder = export.Recorder()
	}
	// With -perf-summary every experiment runs under a phase timer and
	// the registry (phase timings + a runtime/metrics sample) prints at
	// the end — the CLI face of internal/obs/perf's self-telemetry.
	var perfReg *obs.Registry
	var phases *perf.PhaseRecorder
	if *perfOut {
		perfReg = obs.NewRegistry()
		phases = perf.NewPhaseRecorder(perfReg)
	}
	want := strings.ToLower(*experiment)
	ran := 0
	for _, r := range runners {
		if want != "all" && want != r.id {
			continue
		}
		fmt.Printf("== %s: %s ==\n", r.id, r.desc)
		stopPhase := phases.Start("experiment_" + r.id)
		err := r.run(cfg)
		stopPhase()
		if err != nil {
			fmt.Fprintf(os.Stderr, "harebench: %s: %v\n", r.id, err)
			return 1
		}
		fmt.Println()
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "harebench: unknown experiment %q (use -list)\n", *experiment)
		return 2
	}
	// Many replays land in one capture, so there is no single span tree
	// to draw. The attrib runner fills attribRows; compute them here when
	// a different experiment selection skipped it.
	if err := export.Write(os.Stdout, false, func(*span.Tree) (any, error) {
		if attribRows != nil {
			return attribRows, nil
		}
		return experiments.AttribSweep(cfg)
	}); err != nil {
		fmt.Fprintf(os.Stderr, "harebench: %v\n", err)
		return 1
	}
	if perfReg != nil {
		perf.SampleRuntime(perfReg)
		fmt.Println("== perf summary ==")
		if err := perfReg.WriteText(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "harebench: %v\n", err)
			return 1
		}
	}
	return 0
}

func allRunners() []runner {
	return []runner{
		{"fig1", "toy example: 3 schedulers on 3 jobs x 3 GPUs", runFig1},
		{"fig2", "training speedup of 8 models on 4 GPU types", runFig2},
		{"fig3", "GPU compute utilization (GraphSAGE vs ResNet50)", runFig3},
		{"fig5", "ResNet152 epoch time across GPU combinations", runFig5},
		{"fig6", "per-GPU utilization of a mixed K80/V100 gang", runFig6},
		{"fig7", "switching-cost ratio Omega under 3 settings", runFig7},
		{"fig8", "V100 utilization with/without task switching", runFig8},
		{"fig11", "per-round train/sync stability on the testbed", runFig11},
		{"tab3", "average task switching time per model", runTable3},
		{"fig12", "weighted JCT: testbed vs simulator, 5 schemes", runFig12},
		{"fig13", "CDF of job completion time", runFig13},
		{"fig14", "weighted JCT vs number of GPUs", runFig14},
		{"fig15", "weighted JCT vs number of jobs", runFig15},
		{"fig16", "weighted JCT vs heterogeneity level", runFig16},
		{"fig17", "weighted JCT vs job-type fractions", runFig17},
		{"fig18", "weighted JCT vs network bandwidth", runFig18},
		{"fig19", "weighted JCT vs batch size", runFig19},
		{"abl-eft", "ablation: earliest-finish vs earliest-available pick", variantTable(experiments.AblationEFT)},
		{"abl-relax", "ablation: fluid relaxation vs exact optimum", runAblRelax},
		{"abl-sync", "ablation: relaxed vs strict scale-fixed sync", variantTable(experiments.AblationSync)},
		{"abl-mem", "ablation: speculative memory on/off", runAblMem},
		{"abl-mempol", "ablation: keep-latest vs Belady eviction", runAblMemPolicy},
		{"abl-online", "extension: online (non-clairvoyant) Hare vs offline", variantTable(experiments.AblationOnline)},
		{"ext-base", "extension: +Gandiva_RR and Tiresias_LAS time-slicing baselines", runExtBaselines},
		{"ext-fair", "extension: finish-time fairness and waiting per scheme", runExtFairness},
		{"ext-seeds", "extension: fig16 across 3 seeds, mean±std per scheme", runExtSeeds},
		{"faults", "robustness: weighted-JCT degradation vs fault rate and GPU failures", runFaults},
		{"attrib", "diagnosis: WJCT critical-path attribution per scheme", runAttrib},
		{"largetrace", "scale: sharded parallel replay of a multi-tenant trace vs serial", runLargeTrace},
	}
}

// runLargeTrace builds a multi-tenant trace, replays it serially and
// sharded, and reports the wall-clock ratio. The replays must agree
// bit-for-bit — weighted JCT compared exactly and the full trace
// fingerprinted — so the speedup column can never hide a divergence.
func runLargeTrace(cfg experiments.Config) error {
	const numTenants = 8
	buildStart := time.Now()
	tr, err := experiments.BuildLargeTrace(cfg, numTenants)
	if err != nil {
		return err
	}
	buildTime := time.Since(buildStart)

	opts := sim.Options{Scheme: switching.Hare, Speculative: true, Seed: cfg.Seed}
	serialStart := time.Now()
	serial, err := sim.Run(tr.Instance, tr.Schedule, tr.Cluster, tr.Models, opts)
	if err != nil {
		return err
	}
	serialTime := time.Since(serialStart)

	popts := opts
	popts.Parallel = -1
	shardedStart := time.Now()
	sharded, err := sim.Run(tr.Instance, tr.Schedule, tr.Cluster, tr.Models, popts)
	if err != nil {
		return err
	}
	shardedTime := time.Since(shardedStart)

	//lint:allow floateq sharded replay must match serial bit-for-bit, not approximately
	if serial.WeightedJCT != sharded.WeightedJCT {
		return fmt.Errorf("largetrace: sharded WJCT %.17g != serial %.17g",
			sharded.WeightedJCT, serial.WeightedJCT)
	}
	if sh, gh := replayHash(serial.Trace), replayHash(sharded.Trace); sh != gh {
		return fmt.Errorf("largetrace: sharded trace hash %#x != serial %#x", gh, sh)
	}

	fmt.Print(metrics.Table(
		[]string{"tenants", "jobs", "gpus", "tasks", "build", "serial", "sharded", "speedup", "weighted JCT"},
		[][]string{{
			fmt.Sprintf("%d", numTenants),
			fmt.Sprintf("%d", tr.NumJobs()),
			fmt.Sprintf("%d", tr.Instance.NumGPUs),
			fmt.Sprintf("%d", len(serial.Trace.Records)),
			buildTime.Round(time.Millisecond).String(),
			serialTime.Round(time.Millisecond).String(),
			shardedTime.Round(time.Millisecond).String(),
			fmt.Sprintf("%.2fx", float64(serialTime)/float64(shardedTime)),
			fmt.Sprintf("%.0f", serial.WeightedJCT),
		}}))
	fmt.Printf("replays agree bit-for-bit (trace hash %#x, GOMAXPROCS=%d)\n",
		replayHash(serial.Trace), runtime.GOMAXPROCS(0))
	return nil
}

// replayHash fingerprints every realized field of a replay trace at
// full float64 precision (the same digest the equivalence tests pin).
func replayHash(tr *trace.Trace) uint64 {
	h := fnv.New64a()
	for _, r := range tr.Records {
		fmt.Fprintf(h, "%v|%d|%.17g|%.17g|%.17g|%.17g\n",
			r.Task, r.GPU, r.Start, r.Train, r.Sync, r.Switch)
	}
	return h.Sum64()
}

// attribRows carries the attrib experiment's result to the -attrib-out
// writer after the runner loop.
var attribRows []experiments.AttribRow

func runAttrib(cfg experiments.Config) error {
	rows, err := experiments.AttribSweep(cfg)
	if err != nil {
		return err
	}
	attribRows = rows
	var out [][]string
	for _, r := range rows {
		w := r.Report.Weighted
		total := r.Report.WeightedJCT
		pct := func(v float64) string {
			if total <= 0 {
				return "-"
			}
			return fmt.Sprintf("%.1f%%", 100*v/total)
		}
		out = append(out, []string{
			r.Scheme, fmt.Sprintf("%.0f", r.WeightedJCT),
			pct(w.Arrival), pct(w.Queue), pct(w.BarrierWait),
			pct(w.Switch), pct(w.Compute), pct(w.Comm),
		})
	}
	fmt.Print(metrics.Table(
		[]string{"scheduler", "weighted JCT", "arrival", "queue", "barrier", "switch", "compute", "comm"},
		out))
	return nil
}

func runFaults(cfg experiments.Config) error {
	rows, err := experiments.FaultSweep(cfg, nil, nil)
	if err != nil {
		return err
	}
	if len(rows) == 0 {
		return nil
	}
	header := []string{"condition"}
	for _, res := range rows[0].Results {
		header = append(header, res.Scheme, "degr%")
	}
	var out [][]string
	for _, row := range rows {
		cells := []string{row.Label}
		for _, res := range row.Results {
			cells = append(cells, fmt.Sprintf("%.0f", res.WeightedJCT),
				fmt.Sprintf("%+.1f", res.DegradationPct))
		}
		out = append(out, cells)
	}
	fmt.Print(metrics.Table(header, out))
	// Recovery accounting for the failure rows, Hare's plan only.
	var rec [][]string
	for _, row := range rows {
		if row.Failures == 0 {
			continue
		}
		r := row.Results[0]
		rec = append(rec, []string{row.Label, r.Scheme,
			fmt.Sprintf("%d", r.GPUFailures), fmt.Sprintf("%d", r.Reschedules),
			fmt.Sprintf("%d", r.TasksMigrated)})
	}
	if len(rec) > 0 {
		fmt.Print(metrics.Table([]string{"condition", "scheme", "failures", "reschedules", "migrated"}, rec))
	}
	return nil
}

func fmtF(x float64) string {
	if math.IsNaN(x) {
		return "-"
	}
	return fmt.Sprintf("%.2f", x)
}

func runFig1(experiments.Config) error {
	rows, _, err := experiments.Fig1Toy()
	if err != nil {
		return err
	}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{r.Policy, fmtF(r.TotalJCT), fmtF(r.Makespan)})
	}
	fmt.Print(metrics.Table([]string{"policy", "total JCT (s)", "makespan (s)"}, out))
	return nil
}

func runFig2(experiments.Config) error {
	rows := experiments.Fig2Speedups()
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Model, fmtF(r.Speedup["K80"]), fmtF(r.Speedup["M60"]),
			fmtF(r.Speedup["T4"]), fmtF(r.Speedup["V100"]),
		})
	}
	fmt.Print(metrics.Table([]string{"model", "K80", "M60", "T4", "V100"}, out))
	return nil
}

func runFig3(experiments.Config) error {
	rows := experiments.Fig3Util()
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Model,
			fmt.Sprintf("%.0f%%", r.Util["K80"]*100), fmt.Sprintf("%.0f%%", r.Util["M60"]*100),
			fmt.Sprintf("%.0f%%", r.Util["T4"]*100), fmt.Sprintf("%.0f%%", r.Util["V100"]*100),
		})
	}
	fmt.Print(metrics.Table([]string{"model", "K80", "M60", "T4", "V100"}, out))
	return nil
}

func runFig5(experiments.Config) error {
	rows := experiments.Fig5EpochTime()
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{r.Combo, metrics.FormatSeconds(r.EpochTime), metrics.FormatSeconds(r.RoundTime)})
	}
	fmt.Print(metrics.Table([]string{"combo", "epoch time", "round time"}, out))
	return nil
}

func runFig6(cfg experiments.Config) error {
	rows, err := experiments.Fig6Util(cfg)
	if err != nil {
		return err
	}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{r.GPU, fmt.Sprintf("%.0f%%", r.Util*100)})
	}
	fmt.Print(metrics.Table([]string{"GPU", "utilization"}, out))
	return nil
}

func runFig7(experiments.Config) error {
	rows := experiments.Fig7SwitchRatio()
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Setting,
			fmt.Sprintf("%.2f", r.Omega[switching.Default.String()]),
			fmt.Sprintf("%.4f", r.Omega[switching.PipeSwitch.String()]),
			fmt.Sprintf("%.4f", r.Omega[switching.Hare.String()]),
		})
	}
	fmt.Print(metrics.Table([]string{"setting", "Omega(Default)", "Omega(PipeSwitch)", "Omega(Hare)"}, out))
	return nil
}

func runFig8(cfg experiments.Config) error {
	rows, err := experiments.Fig8SwitchingUtil(cfg)
	if err != nil {
		return err
	}
	var single, alt, altH float64
	for _, r := range rows {
		single += r.SingleJob
		alt += r.Alternating
		altH += r.AlternatingH
	}
	n := float64(len(rows))
	fmt.Printf("mean V100 utilization: single job %.0f%%, alternating(default) %.0f%%, alternating(Hare) %.0f%%\n",
		single/n*100, alt/n*100, altH/n*100)
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			fmt.Sprintf("%d", r.Bin),
			fmt.Sprintf("%.0f%%", r.SingleJob*100),
			fmt.Sprintf("%.0f%%", r.Alternating*100),
			fmt.Sprintf("%.0f%%", r.AlternatingH*100),
		})
	}
	fmt.Print(metrics.Table([]string{"bin", "single", "alt(default)", "alt(Hare)"}, out))
	return nil
}

func runFig11(cfg experiments.Config) error {
	rows, err := experiments.Fig11Stability(cfg)
	if err != nil {
		return err
	}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Model, fmt.Sprintf("%d", r.Rounds),
			metrics.FormatSeconds(r.TrainMean), fmt.Sprintf("%.1f%%", r.TrainCoV*100),
			metrics.FormatSeconds(r.SyncMean), fmt.Sprintf("%.1f%%", r.SyncCoV*100),
		})
	}
	fmt.Print(metrics.Table([]string{"model", "rounds", "train mean", "train CoV", "sync mean", "sync CoV"}, out))
	return nil
}

func runTable3(experiments.Config) error {
	rows, err := experiments.Table3Switching()
	if err != nil {
		return err
	}
	var out [][]string
	for _, r := range rows {
		cell := func(s switching.Scheme) string {
			return fmt.Sprintf("%s (%.2f%%)",
				metrics.FormatSeconds(r.Seconds[s.String()]), r.Percent[s.String()])
		}
		out = append(out, []string{
			r.Model, cell(switching.Default), cell(switching.PipeSwitch), cell(switching.Hare),
			fmt.Sprintf("%.0f%%", r.HareHitRate*100),
		})
	}
	fmt.Print(metrics.Table([]string{"model", "Default", "PipeSwitch", "Hare", "Hare hit rate"}, out))
	return nil
}

func runFig12(cfg experiments.Config) error {
	rows, err := experiments.Fig12Testbed(cfg, experiments.Fig12Options{})
	if err != nil {
		return err
	}
	var out [][]string
	for _, r := range rows {
		tb := "-"
		gap := "-"
		if !math.IsNaN(r.TestbedWeightedJCT) {
			tb = fmt.Sprintf("%.0f", r.TestbedWeightedJCT)
			gap = fmt.Sprintf("%.1f%%", r.GapPercent)
		}
		out = append(out, []string{r.Scheme, fmt.Sprintf("%.0f", r.SimWeightedJCT), tb, gap})
	}
	fmt.Print(metrics.Table([]string{"scheme", "sim weighted JCT", "testbed weighted JCT", "gap"}, out))
	return nil
}

func runFig13(cfg experiments.Config) error {
	rows, err := experiments.Fig13CDF(cfg, 0)
	if err != nil {
		return err
	}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{r.Scheme, fmt.Sprintf("%.1f%%", r.Within25Min*100)})
	}
	fmt.Print(metrics.Table([]string{"scheme", "jobs done within 25 min"}, out))
	for _, r := range rows {
		fmt.Printf("%s CDF:", r.Scheme)
		for i := 0; i < len(r.Thresholds); i += 5 {
			fmt.Printf(" %s=%.0f%%", metrics.FormatSeconds(r.Thresholds[i]), r.Fractions[i]*100)
		}
		fmt.Println()
	}
	return nil
}

func printSweep(rows []experiments.SweepRow) {
	if len(rows) == 0 {
		return
	}
	header := []string{"setting"}
	for _, res := range rows[0].Results {
		header = append(header, res.Scheme)
	}
	var out [][]string
	for _, row := range rows {
		cells := []string{row.Label}
		for _, res := range row.Results {
			cells = append(cells, fmt.Sprintf("%.0f", res.WeightedJCT))
		}
		out = append(out, cells)
	}
	fmt.Print(metrics.Table(header, out))
}

func runFig14(cfg experiments.Config) error {
	rows, err := experiments.Fig14GPUSweep(cfg, sweepGPUs(cfg))
	if err != nil {
		return err
	}
	printSweep(rows)
	return nil
}

// sweepGPUs picks the Fig. 14 x axis, shrunken when -gpus shrinks the
// experiment.
func sweepGPUs(cfg experiments.Config) []int {
	cfg = cfg.Defaults()
	base := cfg.GPUs
	return []int{base / 2, base * 3 / 4, base, base * 5 / 4, base * 3 / 2}
}

func runFig15(cfg experiments.Config) error {
	c := cfg.Defaults()
	counts := []int{c.Jobs / 2, c.Jobs * 3 / 4, c.Jobs, c.Jobs * 5 / 4, c.Jobs * 3 / 2}
	rows, err := experiments.Fig15JobSweep(cfg, counts)
	if err != nil {
		return err
	}
	printSweep(rows)
	return nil
}

func runFig16(cfg experiments.Config) error {
	rows, err := experiments.Fig16Heterogeneity(cfg)
	if err != nil {
		return err
	}
	printSweep(rows)
	return nil
}

func runFig17(cfg experiments.Config) error {
	byClass, err := experiments.Fig17JobMix(cfg, nil)
	if err != nil {
		return err
	}
	classes := make([]string, 0, len(byClass))
	for c := range byClass {
		classes = append(classes, string(c))
	}
	sort.Strings(classes)
	for _, c := range classes {
		fmt.Printf("-- boosting %s --\n", c)
		printSweep(byClass[model.Class(c)])
	}
	return nil
}

func runFig18(cfg experiments.Config) error {
	rows, err := experiments.Fig18Bandwidth(cfg, nil)
	if err != nil {
		return err
	}
	printSweep(rows)
	return nil
}

func runFig19(cfg experiments.Config) error {
	rows, err := experiments.Fig19BatchSize(cfg, nil)
	if err != nil {
		return err
	}
	printSweep(rows)
	return nil
}

// variantTable renders an ablation that runs Hare variants on the
// standard workload: one row per variant.
func variantTable(run func(experiments.Config) ([]experiments.SchemeResult, error)) func(experiments.Config) error {
	return func(cfg experiments.Config) error {
		rows, err := run(cfg)
		if err != nil {
			return err
		}
		var out [][]string
		for _, r := range rows {
			out = append(out, []string{r.Scheme, fmt.Sprintf("%.0f", r.WeightedJCT), fmt.Sprintf("%.0f", r.Makespan)})
		}
		fmt.Print(metrics.Table([]string{"variant", "weighted JCT", "makespan"}, out))
		return nil
	}
}

func runAblRelax(cfg experiments.Config) error {
	st, err := experiments.AblationRelax(cfg.Seed, 30)
	if err != nil {
		return err
	}
	fmt.Printf("instances: %d\n", st.Instances)
	fmt.Printf("fluid objective <= optimum: %d/%d (mean fluid/opt %.3f)\n",
		st.FluidLEOptimal, st.Instances, st.MeanFluidToOpt)
	fmt.Printf("Hare/opt: mean %.3f, max %.3f; alpha(2+alpha) bound holds on %d/%d\n",
		st.MeanHareToOpt, st.MaxHareToOpt, st.BoundHolds, st.Instances)
	return nil
}

func runExtBaselines(cfg experiments.Config) error {
	rows, err := experiments.ExtendedBaselines(cfg)
	if err != nil {
		return err
	}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Scheme, fmt.Sprintf("%.0f", r.WeightedJCT),
			fmt.Sprintf("%.0f%%", r.MeanUtil*100), metrics.FormatSeconds(r.TotalSwitch),
		})
	}
	fmt.Print(metrics.Table([]string{"scheme", "weighted JCT", "mean util", "total switch"}, out))
	return nil
}

func runExtSeeds(cfg experiments.Config) error {
	rows, err := experiments.MultiSeed(cfg, 3, experiments.Fig16Heterogeneity)
	if err != nil {
		return err
	}
	if len(rows) == 0 {
		return nil
	}
	header := []string{"setting"}
	for _, s := range rows[0].Stats {
		header = append(header, s.Scheme)
	}
	header = append(header, "Hare leads")
	var out [][]string
	for _, row := range rows {
		cells := []string{row.Label}
		for _, s := range row.Stats {
			cells = append(cells, fmt.Sprintf("%.0f±%.0f", s.Mean, s.Std))
		}
		leads, _ := experiments.HareLeadConfidence(row)
		cells = append(cells, fmt.Sprintf("%v", leads))
		out = append(out, cells)
	}
	fmt.Print(metrics.Table(header, out))
	return nil
}

func runExtFairness(cfg experiments.Config) error {
	rows, err := experiments.FairnessComparison(cfg)
	if err != nil {
		return err
	}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Scheme,
			fmt.Sprintf("%.2f", r.Fairness.MeanRho),
			fmt.Sprintf("%.2f", r.Fairness.MaxRho),
			metrics.FormatSeconds(r.Fairness.MaxWait),
		})
	}
	fmt.Print(metrics.Table([]string{"scheme", "mean rho", "max rho", "max wait"}, out))
	return nil
}

func runAblMemPolicy(cfg experiments.Config) error {
	rows, err := experiments.AblationMemoryPolicy(cfg)
	if err != nil {
		return err
	}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Policy, metrics.FormatSeconds(r.TotalSwitch),
			fmt.Sprintf("%d", r.Hits), fmt.Sprintf("%d", r.Misses),
		})
	}
	fmt.Print(metrics.Table([]string{"policy", "total switch", "hits", "misses"}, out))
	return nil
}

func runAblMem(cfg experiments.Config) error {
	rows, err := experiments.AblationSpeculativeMemory(cfg)
	if err != nil {
		return err
	}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Setting, fmt.Sprintf("%.0f", r.WeightedJCT),
			metrics.FormatSeconds(r.TotalSwitch),
			fmt.Sprintf("%d", r.SwitchCount), fmt.Sprintf("%d", r.ResidencyHits),
		})
	}
	fmt.Print(metrics.Table([]string{"setting", "weighted JCT", "total switch", "switches", "residency hits"}, out))
	return nil
}
