// Command e2e is the repository's end-to-end and per-layer benchmark:
// five seeded workloads (plan-online, replay-sweep, dist-durable,
// dist-recover, daemon-reuse) driven through the layers' public
// functions, every output verified, every metric printed by name with
// its unit. See README.md for the metric glossary and BENCHMARK.json at
// the repository root for the contract the numbers are judged by.
//
//	go run ./bench/e2e -workload <name|all> -seed <int> [-seconds <s>] [-trace 1] [-dir <waldir>] [-out <file.json>]
//
// The untraced run (-trace 0) yields the end-to-end metrics; -trace 1
// runs the same ops again under the benchmark's own span recorder and
// timing decorators and yields the per-layer metrics. The last line of
// standard output is one JSON object: correct, attempted, failed,
// metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"hare/internal/obs/perf"
)

// defaultSeconds is how long one pass measures; BENCHMARK.json's
// run_seconds is the same number.
const defaultSeconds = 20

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// report is the -out file: the environment fingerprint plus every
// workload's result.
type report struct {
	Env     perf.Env  `json:"env"`
	Seconds float64   `json:"seconds"`
	Results []*result `json:"results"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2e", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: one of "+fmt.Sprint(workloadNames())+" or all")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", defaultSeconds, "how long the measured pass runs")
	traced := fs.Int("trace", 0, "1 = traced run (per-layer metrics), 0 = untraced run (end-to-end metrics)")
	dir := fs.String("dir", "", "directory for WAL and trace-capture scratch (default bench/e2e/out in the module)")
	out := fs.String("out", "", "also write the full results as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "e2e: usage: -workload <name|all> -seed <int> [-seconds <s>] [-trace 0|1] [-dir <waldir>] [-out <file.json>]")
		return 2
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadNames()
	}

	outDir, err := outputDir()
	if err != nil {
		fmt.Fprintln(stderr, "e2e:", err)
		return 1
	}
	base := *dir
	if base == "" {
		base = outDir
	}
	scratch, err := os.MkdirTemp(base, "run-*")
	if err != nil {
		fmt.Fprintln(stderr, "e2e:", err)
		return 1
	}
	defer os.RemoveAll(scratch)

	//lint:allow walltime the run's date stamp in the environment fingerprint
	rep := report{Env: perf.Fingerprint("", time.Now()), Seconds: *seconds}
	fmt.Fprintf(stdout, "e2e: %s %s/%s GOMAXPROCS=%d (of %d CPUs), seed %d, %.3gs per pass\n",
		rep.Env.GoVersion, rep.Env.GOOS, rep.Env.GOARCH, runtime.GOMAXPROCS(0), rep.Env.NumCPU, *seed, *seconds)
	failed := false
	for _, n := range names {
		res, err := runWorkload(n, *seed, *seconds, *traced == 1, fullSizes, scratch, outDir, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "e2e:", err)
			return 1
		}
		rep.Results = append(rep.Results, res)
		printResult(stdout, res)
		if !res.Correct {
			fmt.Fprintf(stderr, "e2e: %s: %d of %d ops failed: %s\n", n, res.Failed, res.Attempted, res.FirstError)
			failed = true
		}
	}
	if *out != "" {
		data, err := json.MarshalIndent(rep, "", " ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "e2e:", err)
			return 1
		}
	}
	if err := json.NewEncoder(stdout).Encode(summary(rep.Results)); err != nil {
		fmt.Fprintln(stderr, "e2e:", err)
		return 1
	}
	if failed {
		return 1
	}
	return 0
}

// outputDir returns bench/e2e/out under the module root, creating it.
// It holds everything a run leaves behind (scratch, trace files) and is
// ignored by git.
func outputDir() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above the working directory: run from inside the module")
		}
		dir = parent
	}
	out := filepath.Join(dir, "bench", "e2e", "out")
	return out, os.MkdirAll(out, 0o755)
}

// lastLine is the one-object summary the last line of standard output
// carries.
type lastLine struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// summary folds the results into the last-line object. One workload
// keeps its metric names; -workload all prefixes each with its
// workload.
func summary(results []*result) lastLine {
	s := lastLine{Correct: true, Metrics: metricSet{}}
	for _, r := range results {
		s.Correct = s.Correct && r.Correct
		s.Attempted += r.Attempted
		s.Failed += r.Failed
		//lint:ordered copied into another map, which encoding/json prints key-sorted
		for n, v := range r.Metrics {
			key := n
			if len(results) > 1 {
				key = r.Workload + "/" + n
			}
			s.Metrics[key] = v
		}
	}
	return s
}

// printResult prints one workload's metrics by name with their units,
// in catalogue order.
func printResult(w io.Writer, r *result) {
	kind, list := "end-to-end", endToEnd
	if r.Traced {
		kind, list = "per-layer", perLayer
	}
	fmt.Fprintf(w, "\n%s  seed %d  %s  n = %d measured ops  attempted %d  failed %d  failed_share %.4g\n",
		r.Workload, r.Seed, kind, r.Ops, r.Attempted, r.Failed, float64(r.Failed)/float64(max(r.Attempted, 1)))
	for _, d := range list {
		if v, ok := r.Metrics[d.Name]; ok {
			fmt.Fprintf(w, "  %-38s %14.6g %s\n", d.Name, v.Value, v.Unit)
		}
	}
}
