// Command hareperf is the repo's per-commit perf gate. It has no
// baseline file and no options:
//
//	hareperf                       # run the gate benchmarks, check the cap table
//	hareperf e2e OLD.json NEW.json # compare two `bench/e2e -out` result files
//
// The gate holds allocs/op and B/op of the gate benchmarks, and four
// intra-run ns/op ratios, to the absolute caps below; a cap whose
// benchmark is missing from the run fails. Timing belongs to bench/e2e
// (the trajectory, bench/e2e/results/); `hareperf e2e` applies
// BENCHMARK.json's directions and bounds to two of its result files,
// which is what the pipeline does between a change and its parent.
// Both exit 0 when clean, 1 on a failed check, 2 on any other error —
// the contract `make bench-gate` and CI rely on. Run from the module
// root (docs/PERFORMANCE.md).
package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"

	"hare/internal/obs/perf"
)

// gatePattern selects the gate benchmarks: short enough for CI,
// covering the planner, both replay engines and the reference, the obs
// overhead pairs, the memory manager, and the fresh/reused Manager pair.
const gatePattern = "BenchmarkSimulatorReplay|BenchmarkPooledReplay|BenchmarkObs|BenchmarkHareSchedule|BenchmarkOnlineHareSchedule|BenchmarkFluidRelaxation|BenchmarkHungarian|BenchmarkSwitchingCost|BenchmarkGPUMemManager|BenchmarkManagerBatchFresh|BenchmarkManagerBatchReused"

// memCaps caps allocs/op and B/op of every benchmark gatePattern
// selects: the measured value × 1.10 rounded up, and 0 stays 0 — a
// zero-allocation path that starts allocating fails at the first
// allocation. To move a cap, edit its row in the PR that moves the
// number and say why there (docs/PERFORMANCE.md). The exception is the
// ManagerBatch pair, which has no row: each op boots a TCP listener and
// a connection per executor, whose goroutines make allocs/op differ from
// run to run, so only its ns/op ratio (ratioCaps) is held.
var memCaps = []struct {
	bench         string
	allocs, bytes float64
}{
	{"BenchmarkHareSchedule", 19, 44399},               // the list scheduler's arenas for one clairvoyant epoch: more, smaller slices than a sorted π
	{"BenchmarkFluidRelaxation", 4, 6267},              // the Solution's three slices
	{"BenchmarkSimulatorReplay", 8, 109598},            // cold Run: state + the cloned Result
	{"BenchmarkSimulatorReplayReference", 839, 555086}, // the unpooled oracle
	{"BenchmarkPooledReplay", 0, 0},                    // steady-state replay allocates nothing
	{"BenchmarkObsDisabled", 8, 109597},                // = SimulatorReplay: a nil recorder is free
	{"BenchmarkObsEnabledRing", 8, 109607},             // the ring is preallocated
	{"BenchmarkObsRPCDisabled", 0, 0},                  // nil RPC-observer handles never allocate
	{"BenchmarkObsRPCEnabledRing", 0, 0},
	{"BenchmarkHungarian", 138, 80504},
	{"BenchmarkOnlineHareSchedule", 21, 44931}, // the arenas; an epoch allocates nothing
	{"BenchmarkGPUMemManager", 0, 0},
	{"BenchmarkSwitchingCost", 0, 0},
}

// ratioCaps are the timing caps. Both sides run in the same process on
// the same hardware, so the quotient survives a runner swap that
// shifts every absolute number.
var ratioCaps = []perf.Cap{
	// The true obs-off ratio is ~1.0 and a broken nil path (an
	// allocation or emit per event) pushes it past 2, so the cap can
	// afford the headroom a busy shared runner needs.
	{Bench: "BenchmarkObsDisabled", Over: "BenchmarkSimulatorReplay", Metric: "ns/op", Max: 1.75},
	// Full event emission into a ring reads 1.31–1.77 over ten gate
	// runs on the 2-CPU box since the simulator stopped feeding run
	// counters (1.43–2.04 before).
	{Bench: "BenchmarkObsEnabledRing", Over: "BenchmarkSimulatorReplay", Metric: "ns/op", Max: 2.5},
	// rpcnet's per-call Start/Observe wrapper is a couple of branch
	// tests when observation is off; a broken nil path (a clock read or
	// emit per call) lands near 1.0 of the fully-on path and fails.
	{Bench: "BenchmarkObsRPCDisabled", Over: "BenchmarkObsRPCEnabledRing", Metric: "ns/op", Max: 0.5},
	// A Manager's 15th consecutive batch costs what its first does
	// (~1.0). Before batches ran on their own clock the 15th slept
	// through the fourteen before it and the ratio read ~15.
	{Bench: "BenchmarkManagerBatchReused", Over: "BenchmarkManagerBatchFresh", Metric: "ns/op", Max: 2.0},
}

func gateCaps() []perf.Cap {
	var caps []perf.Cap
	for _, c := range memCaps {
		caps = append(caps,
			perf.Cap{Bench: c.bench, Metric: "allocs/op", Max: c.allocs},
			perf.Cap{Bench: c.bench, Metric: "B/op", Max: c.bytes})
	}
	return append(caps, ratioCaps...)
}

func main() {
	var rep *perf.Report
	var err error
	switch {
	case len(os.Args) == 1:
		rep, err = gate()
	case len(os.Args) == 4 && os.Args[1] == "e2e":
		rep, err = perf.CheckE2E("BENCHMARK.json", os.Args[2], os.Args[3])
	default:
		err = fmt.Errorf("usage: hareperf | hareperf e2e OLD.json NEW.json")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hareperf:", err)
		os.Exit(2)
	}
	rep.WriteTable(os.Stdout)
	if fails := rep.Failures(); len(fails) > 0 {
		fmt.Fprintf(os.Stderr, "hareperf: FAIL: %s\n", strings.Join(fails, "; "))
		os.Exit(1)
	}
	fmt.Printf("hareperf: all %d checks hold\n", len(rep.Rows))
}

// gate runs the gate benchmarks once and checks the cap table. The
// budget is time-based on purpose: a fixed iteration count leaves the
// nanosecond-scale benchmarks at the mercy of timer noise.
func gate() (*perf.Report, error) {
	args := []string{"test", "-run", "^$", "-bench", gatePattern, "-benchmem", "-benchtime", "300ms", "-count", "5", "."}
	fmt.Fprintf(os.Stderr, "hareperf: go %s\n", strings.Join(args, " "))
	cmd := exec.Command("go", args...)
	var out strings.Builder
	// Tee so progress is visible live and parseable afterwards.
	cmd.Stdout = io.MultiWriter(&out, os.Stderr)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go test -bench: %w", err)
	}
	run, err := perf.Parse(strings.NewReader(out.String()), runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, err
	}
	return perf.Check(run, gateCaps()), nil
}
