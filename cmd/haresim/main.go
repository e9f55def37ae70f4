// Command haresim plans and simulates a DML workload on a modeled
// heterogeneous GPU cluster: pick a scheduler, a fleet, and a
// workload, and it prints the realized weighted JCT, utilization,
// switching overhead, and (optionally) a Gantt chart of the schedule.
//
// Examples:
//
//	haresim -sched Hare -gpus 16 -jobs 24 -scale 0.2 -gantt
//	haresim -sched Sched_Allox -het mid -gpus 32 -jobs 50
//	haresim -compare -gpus 16 -jobs 24   # all five schemes side by side
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"hare"
	"hare/internal/cluster"
	"hare/internal/metrics"
	"hare/internal/obs"
	"hare/internal/switching"
)

var (
	schedName = flag.String("sched", "Hare", "scheduler: Hare, Gavel_FIFO, SRTF, Sched_Homo, Sched_Allox")
	compare   = flag.Bool("compare", false, "run every scheduler and compare")
	gpus      = flag.Int("gpus", 15, "fleet size (ignored with -testbed)")
	useTB     = flag.Bool("testbed", false, "use the paper's 15-GPU testbed fleet")
	het       = flag.String("het", "high", "heterogeneity level: low, mid, high")
	jobs      = flag.Int("jobs", 24, "number of jobs")
	scale     = flag.Float64("scale", 0.2, "rounds scale (1 = paper-size jobs)")
	horizon   = flag.Float64("horizon", 300, "arrival horizon in seconds")
	seed      = flag.Int64("seed", 1, "random seed")
	gantt     = flag.Bool("gantt", false, "print a Gantt chart of the realized schedule")
	ganttW    = flag.Int("gantt-width", 100, "Gantt chart width in columns")
	savePlan  = flag.String("save-plan", "", "write the planned schedule to this JSON file")
	loadPlan  = flag.String("load-plan", "", "replay a previously saved plan instead of scheduling")
	workload  = flag.String("workload", "", "JSON workload file (overrides -jobs/-scale/-horizon)")
	faultSpec = flag.String("fault-spec", "", "fault injection: rate=R,seed=S,fail=G@T,crash=G@T,slow=GxF (comma-separated, repeatable clauses; which engine replays which clause: docs/ROBUSTNESS.md, \"Fault clauses and engines\")")
	traceOut  = flag.String("trace-out", "", "write a chrome://tracing trace of the run to this JSON file")
	eventsOut = flag.String("events-out", "", "write the run's structured events to this JSONL file")
	attribOut = flag.String("attrib-out", "", "write the run's critical-path attribution report to this JSON file")
	cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file (inspect with 'go tool pprof')")
	memProf   = flag.String("memprofile", "", "write a heap profile to this file on exit")
)

// stopProfiles flushes any active pprof profiles; fatal exits run
// through it so a failing profiled run still writes its CPU profile.
var stopProfiles = func() {}

func main() {
	flag.Parse()
	stop, err := obs.StartProfiles(*cpuProf, *memProf)
	if err != nil {
		fatal(err)
	}
	stopProfiles = stop
	defer stopProfiles()
	cl, err := cluster.Preset(*useTB, *het, *gpus)
	if err != nil {
		fatal(err)
	}
	var in *hare.Instance
	var models []*hare.Model
	if *workload != "" {
		_, in, models, err = hare.LoadWorkload(*workload, cl)
	} else {
		_, in, models, err = hare.BuildWorkload(hare.WorkloadConfig{
			Jobs: *jobs, Seed: *seed, HorizonSeconds: *horizon, RoundsScale: *scale,
		}, cl)
	}
	if err != nil {
		fatal(err)
	}
	fplan, err := hare.ParseFaults(*faultSpec)
	if err != nil {
		fatal(err)
	}
	if err := fplan.Validate(in.NumGPUs); err != nil {
		fatal(err)
	}
	fmt.Printf("cluster: %s\n", cl)
	fmt.Printf("workload: %d jobs, %d tasks, alpha=%.2f\n", len(in.Jobs), in.NumTasks(), in.Alpha())
	if !fplan.Empty() {
		fmt.Printf("faults: %s\n", fplan)
	}
	fmt.Println()

	algos := hare.Schedulers()
	if !*compare {
		a, err := hare.SchedulerByName(*schedName)
		if err != nil {
			fatal(err)
		}
		algos = []hare.Algorithm{a}
	}

	// Event capture: -trace-out / -events-out observe the (single)
	// selected scheduler's run.
	var collect *hare.CollectSink
	var rec *hare.Recorder
	if *traceOut != "" || *eventsOut != "" || *attribOut != "" {
		if len(algos) != 1 {
			fatal(fmt.Errorf("-trace-out/-events-out/-attrib-out need a single scheduler (drop -compare)"))
		}
		collect = hare.NewCollectSink()
		rec = hare.NewRecorder(collect)
		hare.SetSchedulerRecorder(algos[0], rec)
	}

	var rows, faultRows [][]string
	for _, a := range algos {
		var plan *hare.Schedule
		var err error
		if *loadPlan != "" {
			if plan, err = hare.LoadSchedule(*loadPlan); err != nil {
				fatal(err)
			}
			if err := hare.Validate(in, plan); err != nil {
				fatal(fmt.Errorf("loaded plan does not fit this workload: %w", err))
			}
		} else if plan, err = a.Schedule(in); err != nil {
			fatal(fmt.Errorf("%s: %w", a.Name(), err))
		}
		if *savePlan != "" && len(algos) == 1 {
			if err := hare.SaveSchedule(plan, *savePlan); err != nil {
				fatal(err)
			}
			fmt.Printf("plan saved to %s\n", *savePlan)
		}
		scheme := switching.Default
		speculative := false
		if strings.HasPrefix(a.Name(), "Hare") {
			scheme = switching.Hare
			speculative = true
		}
		res, err := hare.Simulate(in, plan, cl, models, hare.SimOptions{
			Scheme: scheme, Speculative: speculative, Seed: *seed,
			Recorder: rec,
			// Each scheduler recovers from injected GPU failures with
			// its own re-planning policy.
			Faults: fplan, Replanner: a,
		})
		if err != nil {
			fatal(fmt.Errorf("simulate %s: %w", a.Name(), err))
		}
		if !fplan.Empty() {
			faultRows = append(faultRows, []string{
				a.Name(),
				fmt.Sprintf("%d", res.Retries),
				metrics.FormatSeconds(res.LostSeconds),
				fmt.Sprintf("%d", res.GPUFailures),
				fmt.Sprintf("%d", res.TasksMigrated),
				fmt.Sprintf("%d", res.Reschedules),
			})
		}
		fair := metrics.NewFairnessReport(in, res.Trace)
		rows = append(rows, []string{
			a.Name(),
			fmt.Sprintf("%.0f", res.WeightedJCT),
			metrics.FormatSeconds(res.Makespan),
			fmt.Sprintf("%.0f%%", res.MeanUtilization()*100),
			metrics.FormatSeconds(res.TotalSwitch),
			fmt.Sprintf("%d", res.SwitchCount),
			fmt.Sprintf("%.2f", fair.MeanRho),
			metrics.FormatSeconds(fair.MaxWait),
		})
		if *gantt && len(algos) == 1 {
			fmt.Print(metrics.Gantt(res.Trace, in.NumGPUs, *ganttW))
			fmt.Println()
		}
	}
	fmt.Print(metrics.Table(
		[]string{"scheduler", "weighted JCT", "makespan", "mean util", "switch time", "switches", "mean rho", "max wait"},
		rows))
	if len(faultRows) > 0 {
		fmt.Println()
		fmt.Print(metrics.Table(
			[]string{"scheduler", "retries", "lost time", "GPU failures", "migrated", "reschedules"},
			faultRows))
	}

	if collect != nil {
		events := collect.Events()
		// trace-out and attrib-out both consume the causal span tree:
		// the trace renders it as nested slices, the attribution
		// folds it into per-job critical-path buckets.
		var tree *hare.SpanTree
		if *traceOut != "" || *attribOut != "" {
			var err error
			if tree, err = hare.BuildSpanTree(events); err != nil {
				fatal(fmt.Errorf("build span tree: %w", err))
			}
		}
		if *traceOut != "" {
			if err := hare.SaveChromeTraceSpans(*traceOut, events, tree); err != nil {
				fatal(err)
			}
			fmt.Printf("chrome trace (%d events) saved to %s — open in chrome://tracing\n", len(events), *traceOut)
		}
		if *eventsOut != "" {
			if err := obs.WriteEventsJSONL(*eventsOut, events); err != nil {
				fatal(err)
			}
			fmt.Printf("events saved to %s\n", *eventsOut)
		}
		if *attribOut != "" {
			rep, err := hare.AnalyzeCritPath(tree, in, cl)
			if err != nil {
				fatal(fmt.Errorf("attribute critical path: %w", err))
			}
			if err := obs.SaveJSON(*attribOut, rep); err != nil {
				fatal(err)
			}
			fmt.Printf("critical-path attribution saved to %s\n", *attribOut)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "haresim:", err)
	stopProfiles()
	os.Exit(1)
}
