// Package perf makes the repository's own speed an observed, gated
// signal. It has three parts:
//
//   - The allocation gate behind `hareperf` and `make bench-gate`:
//     Parse reads `go test -bench` output (sub-benchmarks, -benchmem
//     columns, custom b.ReportMetric units, scientific notation) and
//     Check holds the run to a table of absolute Caps — allocs/op and
//     B/op, which are constants of a build, and intra-run ns/op ratios
//     (e.g. the nil-recorder overhead of BenchmarkObsDisabled over
//     BenchmarkSimulatorReplay), which stay meaningful across machines
//     of different absolute speed. There is no baseline file: a cap
//     moves only by editing the table (docs/PERFORMANCE.md).
//   - The trajectory's comparer: timing lives in bench/e2e, whose
//     result files Fingerprint stamps; CheckE2E pairs two of them
//     under BENCHMARK.json's directions and bounds (`hareperf e2e`).
//   - Runtime self-telemetry: PhaseRecorder times named phases
//     (plan-solve, sim event loop) into an obs.Registry, and
//     SampleRuntime mirrors runtime/metrics (GC, heap, goroutines)
//     into gauges, so hared's /metrics and `harectl stats` expose how
//     the process itself is doing.
//
// perf lives under internal/obs because, like the sinks, it is allowed
// to read the wall clock (see the harelint policy tiers): engine
// packages must not, so they accept a nil-safe *PhaseRecorder and the
// clock reads stay here.
package perf

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Benchmark is one parsed result line of `go test -bench`. A run with
// -count N yields N Benchmark values sharing a Name; Check folds them
// by min.
type Benchmark struct {
	// Name is the canonical benchmark name: the printed name with the
	// trailing GOMAXPROCS suffix stripped, sub-benchmark path intact
	// (e.g. "BenchmarkReplay/jobs-60" from "BenchmarkReplay/jobs-60-8").
	Name string
	// Iters is b.N for the measured run.
	Iters int64
	// Metrics maps a unit to its value: "ns/op" always, "B/op" and
	// "allocs/op" under -benchmem, plus any custom b.ReportMetric
	// units (e.g. "hare/best-baseline").
	Metrics map[string]float64
}

// CanonicalName strips the GOMAXPROCS suffix the testing package
// appends to a printed benchmark name, and nothing else.
//
// The suffix is "-N" with N == GOMAXPROCS, and it is only appended
// when GOMAXPROCS != 1 — so "BenchmarkX/case-2" printed under
// GOMAXPROCS=1 is a sub-benchmark named "case-2", while the same text
// under GOMAXPROCS=2 is sub-benchmark "case". The caller must
// therefore supply the procs value of the run; a blanket
// strip-trailing-digits rule corrupts sub-benchmark names.
func CanonicalName(printed string, procs int) string {
	if procs <= 1 {
		return printed
	}
	suffix := "-" + strconv.Itoa(procs)
	return strings.TrimSuffix(printed, suffix)
}

// Parse reads `go test -bench` output and returns every benchmark
// result line, in order. procs is the GOMAXPROCS of the run (see
// CanonicalName); pass 1 when the output carries no suffix.
//
// Non-benchmark lines — the goos/goarch/pkg/cpu header, PASS/FAIL/ok
// trailers, interleaved t.Log output, build noise — are skipped. A
// line is a result only if it starts with "Benchmark", its second
// field is the iteration count, and the rest parses as value/unit
// pairs; anything else (e.g. a log line that happens to start with
// "Benchmark…") is ignored rather than mis-parsed.
func Parse(r io.Reader, procs int) ([]Benchmark, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var out []Benchmark
	for sc.Scan() {
		if b, ok := parseLine(sc.Text(), procs); ok {
			out = append(out, b)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("perf: reading bench output: %w", err)
	}
	return out, nil
}

// parseLine parses one candidate result line; ok is false for
// anything that is not a well-formed benchmark result.
func parseLine(line string, procs int) (Benchmark, bool) {
	fields := strings.Fields(line)
	// Shortest legal line: name, iters, value, unit.
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Benchmark{}, false
	}
	// "Benchmark" alone (or "Benchmarking...") is not a result name:
	// the testing package only treats BenchmarkXxx as a benchmark when
	// the rune after the prefix is not lowercase.
	rest := fields[0][len("Benchmark"):]
	if rest == "" || (rest[0] >= 'a' && rest[0] <= 'z') {
		return Benchmark{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil || iters <= 0 {
		return Benchmark{}, false
	}
	// Value/unit pairs; an odd remainder or a non-numeric value means
	// this is prose, not a result line.
	if (len(fields)-2)%2 != 0 {
		return Benchmark{}, false
	}
	metrics := make(map[string]float64, (len(fields)-2)/2)
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		metrics[fields[i+1]] = v
	}
	return Benchmark{
		Name:    CanonicalName(fields[0], procs),
		Iters:   iters,
		Metrics: metrics,
	}, true
}
