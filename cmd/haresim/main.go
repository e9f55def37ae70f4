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
//	haresim -sched Themis_Fair           # any scheme of sched's table (see -h)
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"hare"
	"hare/internal/cliflags"
	"hare/internal/faults"
	"hare/internal/metrics"
	"hare/internal/obs/critpath"
	"hare/internal/obs/span"
	"hare/internal/sched"
)

var (
	schedName = flag.String("sched", "Hare", "scheduler: "+strings.Join(sched.Names(), ", "))
	compare   = flag.Bool("compare", false, "run every scheduler and compare")
	fleet     = cliflags.Fleet(flag.CommandLine, "testbed")
	jobs      = flag.Int("jobs", 24, "number of jobs")
	scale     = flag.Float64("scale", 0.2, "rounds scale (1 = paper-size jobs)")
	horizon   = flag.Float64("horizon", 300, "arrival horizon in seconds")
	seed      = flag.Int64("seed", 1, "random seed")
	gantt     = flag.Bool("gantt", false, "print a Gantt chart of the realized schedule")
	ganttW    = flag.Int("gantt-width", 100, "Gantt chart width in columns")
	savePlan  = flag.String("save-plan", "", "write the planned schedule to this JSON file")
	loadPlan  = flag.String("load-plan", "", "replay a previously saved plan instead of scheduling")
	workload  = flag.String("workload", "", "JSON workload file (overrides -jobs/-scale/-horizon)")
	faultSpec = cliflags.Faults(flag.CommandLine, "fault injection")
	export    = cliflags.NewExport(flag.CommandLine, "the run", "the run's critical-path attribution report")
	profiles  = cliflags.Profiles(flag.CommandLine)
)

// stopProfiles flushes any active pprof profiles; fatal exits run
// through it so a failing profiled run still writes its CPU profile.
var stopProfiles = func() {}

// checkFlags resolves the schedulers to run — -sched's, or the paper's
// lineup under -compare — and rejects flags the rest of the command
// line would make haresim silently ignore: with -compare there is no
// single plan to save, load, draw or trace.
func checkFlags() ([]hare.Algorithm, error) {
	a, err := hare.SchedulerByName(*schedName)
	if err != nil || !*compare {
		return []hare.Algorithm{a}, err
	}
	return hare.Schedulers(), cliflags.Ignored(flag.CommandLine, "needs a single scheduler (drop -compare)",
		append([]string{"save-plan", "load-plan", "gantt"}, cliflags.ExportFlags...)...)
}

func main() {
	flag.Parse()
	algos, err := checkFlags()
	if err != nil {
		fatal(err)
	}
	stop, err := profiles()
	if err != nil {
		fatal(err)
	}
	stopProfiles = stop
	defer stopProfiles()
	cl, err := fleet()
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
	fplan, err := faultSpec(in.NumGPUs, faults.Simulator)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("cluster: %s\n", cl)
	fmt.Printf("workload: %d jobs, %d tasks, alpha=%.2f\n", len(in.Jobs), in.NumTasks(), in.Alpha())
	if !fplan.Empty() {
		fmt.Printf("faults: %s\n", fplan)
	}
	fmt.Println()

	// Event capture: the export flags observe the (single) selected
	// scheduler's run.
	var rec *hare.Recorder
	if export.TraceOut != "" || export.EventsOut != "" || export.AttribOut != "" {
		rec = export.Recorder()
		hare.SetSchedulerRecorder(algos[0], rec)
	}

	var rows, faultRows [][]string
	for _, a := range algos {
		var plan *hare.Schedule
		var err error
		if *loadPlan != "" {
			if plan, err = hare.LoadSchedule(in, *loadPlan); err != nil {
				fatal(err)
			}
			if err := hare.Validate(in, plan); err != nil {
				fatal(fmt.Errorf("loaded plan does not fit this workload: %w", err))
			}
		} else if plan, err = a.Schedule(in); err != nil {
			fatal(fmt.Errorf("%s: %w", a.Name(), err))
		}
		if *savePlan != "" {
			if err := hare.SaveSchedule(plan, *savePlan); err != nil {
				fatal(err)
			}
			fmt.Printf("plan saved to %s\n", *savePlan)
		}
		scheme := sched.Switching(a.Name())
		res, err := hare.Simulate(in, plan, cl, models, hare.SimOptions{
			Scheme: scheme, Speculative: scheme == hare.SwitchHare,
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
		if *gantt {
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

	// trace-out and attrib-out both consume the causal span tree: the
	// trace renders it as nested slices, the attribution folds it into
	// per-job critical-path buckets.
	if err := export.Write(os.Stdout, true, func(tree *span.Tree) (any, error) {
		return critpath.Analyze(tree, in, cl)
	}); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "haresim:", err)
	stopProfiles()
	os.Exit(1)
}
