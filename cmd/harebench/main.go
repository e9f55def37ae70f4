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
	"os"
	"strings"

	"hare/internal/cliflags"
	"hare/internal/experiments"
	"hare/internal/obs"
	"hare/internal/obs/perf"
	"hare/internal/obs/span"
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

// checkFlags rejects a capture whose event order would differ from run
// to run: parallel replays interleave their events nondeterministically.
func checkFlags() error {
	if *parallel == 1 {
		return nil
	}
	return cliflags.Ignored(flag.CommandLine, "needs a serial run (drop -parallel)", "trace-out", "events-out")
}

func main() {
	flag.Parse()
	// run does the work so its defers (profile flushing) execute
	// before os.Exit.
	os.Exit(run())
}

func run() int {
	if err := checkFlags(); err != nil {
		fmt.Fprintf(os.Stderr, "harebench: %v\n", err)
		return 1
	}
	all := experiments.All()
	if *listOnly {
		for _, e := range all {
			fmt.Printf("%-8s %s\n", e.ID, e.Desc)
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
		Seed:        *seed,
		RoundsScale: *scale,
		Jobs:        *jobs,
		GPUs:        *gpus,
		Parallel:    *parallel,
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
	for _, e := range all {
		if want != "all" && want != e.ID {
			continue
		}
		stopPhase := phases.Start("experiment_" + e.ID)
		err := e.Render(os.Stdout, cfg)
		stopPhase()
		if err != nil {
			fmt.Fprintf(os.Stderr, "harebench: %s: %v\n", e.ID, err)
			return 1
		}
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "harebench: unknown experiment %q (use -list)\n", *experiment)
		return 2
	}
	// Many replays land in one capture, so there is no single span tree
	// to draw; -attrib-out holds the (deterministic) attrib experiment's rows.
	if err := export.Write(os.Stdout, false, func(*span.Tree) (any, error) {
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
