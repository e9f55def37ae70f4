// Command harechaos soaks the distributed control plane under seeded
// fault schedules and checks the crash-safety invariants after every
// run: exactly-once gradient application, no false fencing, monotone
// and latency-bounded fencing, epoch accounting, and final checkpoints
// equal to a fault-free run. Each seed deterministically generates its
// scenario — network drops/duplicates/reordering/delays, partitions,
// coordinator kill/restart cycles, executor crashes — so a failing
// seed is a repro, and the printed (minimized) -fault-spec replays it
// directly.
//
//	harechaos -seeds 20                    # the CI matrix
//	harechaos -seeds 1 -start 17 -v        # re-run one seed, verbose
//	harechaos -seeds 1 -start 17 -spec "netdrop=0.05,codown=80+100ms"
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"hare/internal/chaos"
	"hare/internal/cliflags"
	"hare/internal/faults"
	"hare/internal/rpcnet"
)

var (
	seeds     = flag.Int("seeds", 20, "number of consecutive seeds to soak")
	start     = flag.Int64("start", 1, "first seed")
	jobs      = flag.Int("jobs", 0, "workload size override (0 = per-scenario)")
	timescale = cliflags.Timescale(flag.CommandLine)
	spec      = flag.String("spec", "", "run this -fault-spec verbatim instead of the generated scenarios (single seed)")
	minimize  = flag.Bool("minimize", true, "on violation, shrink the failing spec by greedy clause removal")
	artifacts = flag.String("artifact-dir", os.Getenv("HARE_ARTIFACT_DIR"), "persist per-seed WALs and violation reports here (survives for CI upload)")
	watchdog  = flag.Duration("watchdog", 90*time.Second, "per-run liveness bound")
	verbose   = flag.Bool("v", false, "log kill/recover cycles as they happen")
)

func main() {
	flag.Parse()
	scale, err := timescale(faults.Orchestrated)
	if err != nil {
		fatal(err)
	}
	opts := chaos.Options{
		Jobs: *jobs, TimeScale: scale, Watchdog: *watchdog,
	}
	if *verbose {
		opts.Logf = func(format string, args ...any) {
			fmt.Printf("harechaos: "+format+"\n", args...)
		}
	}

	if *spec != "" {
		out := chaos.RunSpec(*start, *spec, withArtifacts(opts, *start))
		report(out, opts)
		return
	}

	startWall := time.Now()
	for i := 0; i < *seeds; i++ {
		seed := *start + int64(i)
		out := chaos.Run(seed, withArtifacts(opts, seed))
		report(out, opts)
	}
	fmt.Printf("harechaos: %d seeds clean in %v (seeds %d..%d)\n",
		*seeds, time.Since(startWall).Round(time.Millisecond), *start, *start+int64(*seeds)-1)
}

// withArtifacts gives the seed's run a durable journal and a
// distributed-trace capture under the artifact directory (so a
// violation leaves its WAL, per-process event streams, flight dumps
// and merged chrome trace behind for CI upload); without -artifact-dir
// runs use in-memory journals and no tracing.
func withArtifacts(opts chaos.Options, seed int64) chaos.Options {
	if *artifacts == "" {
		return opts
	}
	dir := filepath.Join(*artifacts, fmt.Sprintf("seed-%d", seed))
	j, err := rpcnet.OpenDirJournal(dir)
	if err != nil {
		fatal(err)
	}
	opts.Journal = j
	opts.TraceDir = dir // merged_trace.json lands next to violation.txt
	return opts
}

// report prints one outcome, minimizing and persisting on violation;
// any violation or infrastructure error exits non-zero.
func report(out chaos.Outcome, opts chaos.Options) {
	if out.Err != nil {
		fatal(fmt.Errorf("seed %d: %w", out.Seed, out.Err))
	}
	if out.Violation == nil {
		fmt.Printf("harechaos: seed %-4d ok: %d jobs, %d tasks, %d coordinator kills\n",
			out.Seed, out.Jobs, out.Tasks, out.Kills)
		return
	}
	v := out.Violation
	fmt.Printf("harechaos: seed %d VIOLATION: %s\n", v.Seed, v.Invariant)
	fmt.Printf("harechaos:   detail: %s\n", v.Detail)
	fmt.Printf("harechaos:   repro:  harechaos -seeds 1 -start %d -spec %q\n", v.Seed, v.Spec)
	minSpec := v.Spec
	if *minimize {
		min, runs, reproduced, err := chaos.Minimize(v.Seed, v.Spec, opts)
		switch {
		case err != nil:
			fmt.Printf("harechaos:   minimize failed after %d runs: %v\n", runs, err)
		case !reproduced:
			fmt.Printf("harechaos:   violation did not reproduce during minimization (%d runs); spec kept verbatim\n", runs)
		default:
			minSpec = min
			fmt.Printf("harechaos:   minimized (%d runs): harechaos -seeds 1 -start %d -spec %q\n", runs, v.Seed, min)
			captureMinimizedTrace(v.Seed, min, opts)
		}
	}
	persistViolation(v, minSpec)
	os.Exit(1)
}

// captureMinimizedTrace re-runs the minimized spec once with tracing
// on, so the artifact bundle carries a timeline of the smallest repro
// (Minimize itself runs trace-free — its probe runs would clobber each
// other).
func captureMinimizedTrace(seed int64, minSpec string, opts chaos.Options) {
	if *artifacts == "" {
		return
	}
	opts.Journal = nil
	opts.TraceDir = filepath.Join(*artifacts, fmt.Sprintf("seed-%d", seed), "minimized")
	out := chaos.RunSpec(seed, minSpec, opts)
	if out.Err != nil {
		fmt.Fprintf(os.Stderr, "harechaos: minimized-trace capture: %v\n", out.Err)
		return
	}
	fmt.Printf("harechaos:   minimized repro trace: %s\n", filepath.Join(opts.TraceDir, "merged_trace.json"))
}

// persistViolation writes the report next to the seed's WAL so a CI
// artifact upload captures both.
func persistViolation(v *chaos.Violation, minSpec string) {
	if *artifacts == "" {
		return
	}
	dir := filepath.Join(*artifacts, fmt.Sprintf("seed-%d", v.Seed))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "harechaos: artifact dir: %v\n", err)
		return
	}
	body := fmt.Sprintf("seed: %d\ninvariant: %s\ndetail: %s\nspec: %s\nminimized: %s\n",
		v.Seed, v.Invariant, v.Detail, v.Spec, minSpec)
	if err := os.WriteFile(filepath.Join(dir, "violation.txt"), []byte(body), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "harechaos: write violation report: %v\n", err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "harechaos:", err)
	os.Exit(1)
}
