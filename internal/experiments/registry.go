package experiments

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"hare/internal/metrics"
	"hare/internal/model"
	"hare/internal/switching"
)

// Experiment is one entry of the evaluation: Run renders the typed rows
// of the function behind it into the tables harebench prints.
type Experiment struct {
	ID, Desc string
	Run      func(Config) ([]Table, error)
}

// Table is one block of an experiment's text: an optional title line, a
// fixed-width table (none when Header is nil) and trailing note lines.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Write renders t.
func (t Table) Write(w io.Writer) error {
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title + "\n")
	}
	if t.Header != nil {
		b.WriteString(metrics.Table(t.Header, t.Rows))
	}
	for _, n := range t.Notes {
		b.WriteString(n + "\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Render runs e and writes its section of the evaluation — banner,
// tables, blank line — the text testdata/evaluation_seed42.golden pins.
// The banner goes out before the run so a long experiment shows progress.
func (e Experiment) Render(w io.Writer, cfg Config) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", e.ID, e.Desc); err != nil {
		return err
	}
	tables, err := e.Run(cfg)
	if err != nil {
		return err
	}
	for _, t := range tables {
		if err := t.Write(w); err != nil {
			return err
		}
	}
	_, err = io.WriteString(w, "\n")
	return err
}

// The cell formats. A NaN — a cell the experiment did not measure —
// prints as "-"; pct and pct1 take a value already in percent.
func cell(format string, x float64) string {
	if math.IsNaN(x) {
		return "-"
	}
	return fmt.Sprintf(format, x)
}

func num(x float64) string  { return cell("%.0f", x) }
func f2(x float64) string   { return cell("%.2f", x) }
func pct(x float64) string  { return cell("%.0f%%", x) }
func pct1(x float64) string { return cell("%.1f%%", x) }

var secs = metrics.FormatSeconds

// table renders one line per row through cells.
func table[R any](header []string, rows []R, cells func(R) []string) Table {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = cells(r)
	}
	return Table{Header: header, Rows: out}
}

// oneTable adapts a typed row function and the renderer of its rows to
// Experiment.Run.
func oneTable[R any](run func(Config) ([]R, error), render func([]R) Table) func(Config) ([]Table, error) {
	return func(cfg Config) ([]Table, error) {
		rows, err := run(cfg)
		if err != nil {
			return nil, err
		}
		return []Table{render(rows)}, nil
	}
}

// tabulate is oneTable for the common shape: a fixed header, one line
// per row.
func tabulate[R any](run func(Config) ([]R, error), header []string, cells func(R) []string) func(Config) ([]Table, error) {
	return oneTable(run, func(rows []R) Table { return table(header, rows, cells) })
}

// sweepTable renders a sweep figure: one line per setting, one
// weighted-JCT column per scheme.
func sweepTable(rows []SweepRow) Table {
	header := []string{"setting"}
	if len(rows) > 0 {
		for _, res := range rows[0].Results {
			header = append(header, res.Scheme)
		}
	}
	return table(header, rows, func(row SweepRow) []string {
		line := []string{row.Label}
		for _, res := range row.Results {
			line = append(line, num(res.WeightedJCT))
		}
		return line
	})
}

// variantTables renders an ablation that runs Hare variants on the
// standard workload: one line per variant.
func variantTables(run func(Config) ([]SchemeResult, error)) func(Config) ([]Table, error) {
	return tabulate(run, []string{"variant", "weighted JCT", "makespan"}, func(r SchemeResult) []string {
		return []string{r.Scheme, num(r.WeightedJCT), num(r.Makespan)}
	})
}

// perGPUType is the header of the figures with one column per GPU type;
// gpuCells is a model's line under it.
var perGPUType = []string{"model", "K80", "M60", "T4", "V100"}

func gpuCells(name string, by map[string]float64, format func(float64) string) []string {
	line := []string{name}
	for _, gpu := range perGPUType[1:] {
		line = append(line, format(by[gpu]))
	}
	return line
}

// All lists every experiment, in the order harebench runs and lists them.
func All() []Experiment {
	return []Experiment{
		{"fig1", "toy example: 3 schedulers on 3 jobs x 3 GPUs", tabulate(
			func(Config) ([]Fig1Row, error) { rows, _, err := Fig1Toy(); return rows, err },
			[]string{"policy", "total JCT (s)", "makespan (s)"},
			func(r Fig1Row) []string { return []string{r.Policy, f2(r.TotalJCT), f2(r.Makespan)} })},
		{"fig2", "training speedup of 8 models on 4 GPU types", tabulate(
			func(Config) ([]Fig2Row, error) { return Fig2Speedups(), nil }, perGPUType,
			func(r Fig2Row) []string { return gpuCells(r.Model, r.Speedup, f2) })},
		{"fig3", "GPU compute utilization (GraphSAGE vs ResNet50)", tabulate(
			func(Config) ([]Fig3Row, error) { return Fig3Util(), nil }, perGPUType,
			func(r Fig3Row) []string {
				return gpuCells(r.Model, r.Util, func(u float64) string { return pct(u * 100) })
			})},
		{"fig5", "ResNet152 epoch time across GPU combinations", tabulate(
			func(Config) ([]Fig5Row, error) { return Fig5EpochTime(), nil },
			[]string{"combo", "epoch time", "round time"},
			func(r Fig5Row) []string { return []string{r.Combo, secs(r.EpochTime), secs(r.RoundTime)} })},
		{"fig6", "per-GPU utilization of a mixed K80/V100 gang", tabulate(Fig6Util,
			[]string{"GPU", "utilization"},
			func(r Fig6Row) []string { return []string{r.GPU, pct(r.Util * 100)} })},
		{"fig7", "switching-cost ratio Omega under 3 settings", tabulate(
			func(Config) ([]Fig7Row, error) { return Fig7SwitchRatio(), nil },
			[]string{"setting", "Omega(Default)", "Omega(PipeSwitch)", "Omega(Hare)"},
			func(r Fig7Row) []string {
				return []string{r.Setting, f2(r.Omega[switching.Default.String()]),
					cell("%.4f", r.Omega[switching.PipeSwitch.String()]), cell("%.4f", r.Omega[switching.Hare.String()])}
			})},
		{"fig8", "V100 utilization with/without task switching", oneTable(Fig8SwitchingUtil, fig8Table)},
		{"fig11", "per-round train/sync stability on the testbed", tabulate(Fig11Stability,
			[]string{"model", "rounds", "train mean", "train CoV", "sync mean", "sync CoV"},
			func(r Fig11Row) []string {
				return []string{r.Model, strconv.Itoa(r.Rounds),
					secs(r.TrainMean), pct1(r.TrainCoV * 100), secs(r.SyncMean), pct1(r.SyncCoV * 100)}
			})},
		{"tab3", "average task switching time per model", tabulate(
			func(Config) ([]Table3Row, error) { return Table3Switching() },
			[]string{"model", "Default", "PipeSwitch", "Hare", "Hare hit rate"},
			func(r Table3Row) []string {
				cost := func(s switching.Scheme) string {
					return fmt.Sprintf("%s (%.2f%%)", secs(r.Seconds[s.String()]), r.Percent[s.String()])
				}
				return []string{r.Model, cost(switching.Default), cost(switching.PipeSwitch), cost(switching.Hare),
					pct(r.HareHitRate * 100)}
			})},
		{"fig12", "weighted JCT: testbed vs simulator, 5 schemes", tabulate(
			func(cfg Config) ([]Fig12Row, error) { return Fig12Testbed(cfg, Fig12Options{}) },
			[]string{"scheme", "sim weighted JCT", "testbed weighted JCT", "gap"},
			func(r Fig12Row) []string {
				return []string{r.Scheme, num(r.SimWeightedJCT), num(r.TestbedWeightedJCT), pct1(r.GapPercent)}
			})},
		{"fig13", "CDF of job completion time", oneTable(Fig13CDF, fig13Table)},
		{"fig14", "weighted JCT vs number of GPUs", oneTable(Fig14GPUSweep, sweepTable)},
		{"fig15", "weighted JCT vs number of jobs", oneTable(Fig15JobSweep, sweepTable)},
		{"fig16", "weighted JCT vs heterogeneity level", oneTable(Fig16Heterogeneity, sweepTable)},
		{"fig17", "weighted JCT vs job-type fractions", fig17Tables},
		{"fig18", "weighted JCT vs network bandwidth", oneTable(Fig18Bandwidth, sweepTable)},
		{"fig19", "weighted JCT vs batch size", oneTable(Fig19BatchSize, sweepTable)},
		{"abl-eft", "ablation: earliest-finish vs earliest-available pick", variantTables(AblationEFT)},
		{"abl-relax", "ablation: fluid relaxation vs exact optimum", ablRelaxTables},
		{"abl-sync", "ablation: relaxed vs strict scale-fixed sync", variantTables(AblationSync)},
		{"abl-mem", "ablation: speculative memory on/off", tabulate(AblationSpeculativeMemory,
			[]string{"setting", "weighted JCT", "total switch", "switches", "residency hits"},
			func(r MemoryAblationRow) []string {
				return []string{r.Setting, num(r.WeightedJCT), secs(r.TotalSwitch),
					strconv.Itoa(r.SwitchCount), strconv.Itoa(r.ResidencyHits)}
			})},
		{"abl-mempol", "ablation: keep-latest vs Belady eviction", tabulate(AblationMemoryPolicy,
			[]string{"policy", "total switch", "hits", "misses"},
			func(r MemoryPolicyRow) []string {
				return []string{r.Policy, secs(r.TotalSwitch), strconv.Itoa(r.Hits), strconv.Itoa(r.Misses)}
			})},
		{"abl-online", "extension: online (non-clairvoyant) Hare vs offline", variantTables(AblationOnline)},
		{"ext-base", "extension: +Gandiva_RR and Tiresias_LAS time-slicing baselines", tabulate(ExtendedBaselines,
			[]string{"scheme", "weighted JCT", "mean util", "total switch"},
			func(r SchemeResult) []string {
				return []string{r.Scheme, num(r.WeightedJCT), pct(r.MeanUtil * 100), secs(r.TotalSwitch)}
			})},
		{"ext-fair", "extension: finish-time fairness and waiting per scheme", tabulate(FairnessComparison,
			[]string{"scheme", "mean rho", "max rho", "max wait"},
			func(r SchemeResult) []string {
				return []string{r.Scheme, f2(r.Fairness.MeanRho), f2(r.Fairness.MaxRho), secs(r.Fairness.MaxWait)}
			})},
		{"ext-seeds", "extension: fig16 across 3 seeds, mean±std per scheme", oneTable(
			func(cfg Config) ([]MultiSeedRow, error) { return MultiSeed(cfg, Fig16Heterogeneity) }, seedsTable)},
		{"faults", "robustness: weighted-JCT degradation vs fault rate and GPU failures", faultsTables},
		{"attrib", "diagnosis: WJCT critical-path attribution per scheme", tabulate(AttribSweep,
			[]string{"scheduler", "weighted JCT", "arrival", "queue", "barrier", "switch", "compute", "comm"},
			func(r AttribRow) []string {
				w, total := r.Report.Weighted, r.Report.WeightedJCT
				share := func(v float64) string { return pct1(100 * v / total) }
				return []string{r.Scheme, num(r.WeightedJCT), share(w.Arrival), share(w.Queue),
					share(w.BarrierWait), share(w.Switch), share(w.Compute), share(w.Comm)}
			})},
		{"largetrace", "scale: sharded parallel replay of a multi-tenant trace vs serial", largeTraceTables},
	}
}

func fig8Table(rows []Fig8Row) Table {
	var single, alt, altH float64
	for _, r := range rows {
		single += r.SingleJob
		alt += r.Alternating
		altH += r.AlternatingH
	}
	n := float64(len(rows))
	t := table([]string{"bin", "single", "alt(default)", "alt(Hare)"}, rows, func(r Fig8Row) []string {
		return []string{strconv.Itoa(r.Bin), pct(r.SingleJob * 100), pct(r.Alternating * 100), pct(r.AlternatingH * 100)}
	})
	t.Title = fmt.Sprintf("mean V100 utilization: single job %s, alternating(default) %s, alternating(Hare) %s",
		pct(single/n*100), pct(alt/n*100), pct(altH/n*100))
	return t
}

func fig13Table(rows []Fig13Row) Table {
	t := table([]string{"scheme", "jobs done within 25 min"}, rows, func(r Fig13Row) []string {
		return []string{r.Scheme, pct1(r.Within25Min * 100)}
	})
	// Every fifth point of each scheme's CDF, as one line under the table.
	for _, r := range rows {
		line := r.Scheme + " CDF:"
		for i := 0; i < len(r.Thresholds); i += 5 {
			line += fmt.Sprintf(" %s=%s", secs(r.Thresholds[i]), pct(r.Fractions[i]*100))
		}
		t.Notes = append(t.Notes, line)
	}
	return t
}

// fig17Tables prints one sweep per boosted class, classes in
// alphabetical order.
func fig17Tables(cfg Config) ([]Table, error) {
	byClass, err := Fig17JobMix(cfg)
	if err != nil {
		return nil, err
	}
	classes := model.Classes()
	sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })
	var out []Table
	for _, c := range classes {
		t := sweepTable(byClass[c])
		t.Title = fmt.Sprintf("-- boosting %s --", c)
		out = append(out, t)
	}
	return out, nil
}

func ablRelaxTables(cfg Config) ([]Table, error) {
	st, err := AblationRelax(cfg.Seed)
	if err != nil {
		return nil, err
	}
	return []Table{{Notes: []string{
		fmt.Sprintf("instances: %d", st.Instances),
		fmt.Sprintf("fluid objective <= optimum: %d/%d (mean fluid/opt %.3f)",
			st.FluidLEOptimal, st.Instances, st.MeanFluidToOpt),
		fmt.Sprintf("Hare/opt: mean %.3f, max %.3f; alpha(2+alpha) bound holds on %d/%d",
			st.MeanHareToOpt, st.MaxHareToOpt, st.BoundHolds, st.Instances),
	}}}, nil
}

func seedsTable(rows []MultiSeedRow) Table {
	header := []string{"setting"}
	if len(rows) > 0 {
		for _, s := range rows[0].Stats {
			header = append(header, s.Scheme)
		}
	}
	header = append(header, "Hare leads")
	return table(header, rows, func(row MultiSeedRow) []string {
		line := []string{row.Label}
		for _, s := range row.Stats {
			line = append(line, num(s.Mean)+"±"+num(s.Std))
		}
		leads, _ := HareLeadConfidence(row)
		return append(line, strconv.FormatBool(leads))
	})
}

func faultsTables(cfg Config) ([]Table, error) {
	rows, err := FaultSweep(cfg)
	if err != nil {
		return nil, err
	}
	header := []string{"condition"}
	if len(rows) > 0 {
		for _, res := range rows[0].Results {
			header = append(header, res.Scheme, "degr%")
		}
	}
	degradation := table(header, rows, func(row FaultRow) []string {
		line := []string{row.Label}
		for _, res := range row.Results {
			line = append(line, num(res.WeightedJCT), cell("%+.1f", res.DegradationPct))
		}
		return line
	})
	// Recovery accounting for the failure rows, Hare's plan only.
	var failed []FaultRow
	for _, row := range rows {
		if row.Failures > 0 {
			failed = append(failed, row)
		}
	}
	recovery := table([]string{"condition", "scheme", "failures", "reschedules", "migrated"}, failed, func(row FaultRow) []string {
		r := row.Results[0]
		return []string{row.Label, r.Scheme, strconv.Itoa(r.GPUFailures), strconv.Itoa(r.Reschedules), strconv.Itoa(r.TasksMigrated)}
	})
	return []Table{degradation, recovery}, nil
}
