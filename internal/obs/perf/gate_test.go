package perf

import (
	"strings"
	"testing"
)

func bench(name string, ns float64) Benchmark {
	return Benchmark{Name: name, Iters: 100, Metrics: map[string]float64{"ns/op": ns}}
}

func mem(name string, allocs, bytes float64) Benchmark {
	return Benchmark{Name: name, Iters: 100, Metrics: map[string]float64{
		"ns/op": 1000, "allocs/op": allocs, "B/op": bytes,
	}}
}

// gateCase runs Check and requires exactly the named failures (none
// when wantFail is empty) — the exit-0 and exit-1 paths of hareperf.
func gateCase(t *testing.T, name string, run []Benchmark, caps []Cap, wantFail ...string) {
	t.Helper()
	wantFailures(t, name, Check(run, caps), wantFail)
}

func wantFailures(t *testing.T, name string, rep *Report, wantFail []string) {
	t.Helper()
	fails := rep.Failures()
	if len(fails) != len(wantFail) {
		t.Errorf("%s: failures %q, want %d", name, fails, len(wantFail))
		return
	}
	for i, want := range wantFail {
		if !strings.Contains(fails[i], want) {
			t.Errorf("%s: failure %q does not name %q", name, fails[i], want)
		}
	}
}

// TestAbsGates: absolute caps gate on the current run alone. A zero
// cap is a real cap (one allocation on a zero-alloc path fails), and a
// capped benchmark or metric that is absent from the run fails rather
// than going unevaluated — a rename or a narrowed pattern must not
// switch a cap off.
func TestAbsGates(t *testing.T) {
	caps := []Cap{
		{Bench: "BenchmarkA", Metric: "allocs/op", Max: 170},
		{Bench: "BenchmarkA", Metric: "B/op", Max: 4096},
		{Bench: "BenchmarkPooled", Metric: "allocs/op", Max: 0},
	}
	gateCase(t, "all caps met, one exactly",
		[]Benchmark{mem("BenchmarkA", 170, 4000), mem("BenchmarkPooled", 0, 0)}, caps)
	gateCase(t, "allocs/op over its cap",
		[]Benchmark{mem("BenchmarkA", 171, 4000), mem("BenchmarkPooled", 0, 0)}, caps,
		"A allocs/op: 171 exceeds the cap 170")
	gateCase(t, "zero cap hit by one allocation",
		[]Benchmark{mem("BenchmarkA", 100, 4000), mem("BenchmarkPooled", 1, 0)}, caps,
		"Pooled allocs/op: 1 exceeds the cap 0")
	gateCase(t, "capped benchmark absent from the run",
		[]Benchmark{mem("BenchmarkA", 100, 4000)}, caps,
		"Pooled allocs/op: BenchmarkPooled allocs/op missing from the run")
	gateCase(t, "run without -benchmem",
		[]Benchmark{bench("BenchmarkA", 1000), mem("BenchmarkPooled", 0, 0)}, caps,
		"A allocs/op", "A B/op")
}

// TestRatioGates: the intra-run ratio survives a uniformly slower
// machine but catches a relative regression.
func TestRatioGates(t *testing.T) {
	caps := []Cap{{Bench: "BenchmarkObsDisabled", Over: "BenchmarkReplay", Metric: "ns/op", Max: 1.2}}
	gateCase(t, "3x slower across the board",
		[]Benchmark{bench("BenchmarkObsDisabled", 3030), bench("BenchmarkReplay", 3000)}, caps)
	gateCase(t, "the instrumented path alone got slower",
		[]Benchmark{bench("BenchmarkObsDisabled", 1500), bench("BenchmarkReplay", 1000)}, caps,
		"ObsDisabled / Replay ns/op: 1.5 exceeds the cap 1.2")
}

// TestRatioGateAbsoluteCap: Max is inclusive.
func TestRatioGateAbsoluteCap(t *testing.T) {
	caps := []Cap{{Bench: "BenchmarkA", Over: "BenchmarkB", Metric: "ns/op", Max: 0.5}}
	gateCase(t, "at the cap", []Benchmark{bench("BenchmarkA", 500), bench("BenchmarkB", 1000)}, caps)
	gateCase(t, "past the cap", []Benchmark{bench("BenchmarkA", 501), bench("BenchmarkB", 1000)}, caps,
		"A / B ns/op")
}

// TestRatioGateMissingBenchmarks: a ratio with either side missing
// (or a zero denominator) fails; it used to degrade to "info", which
// let a deleted benchmark pass the gate.
func TestRatioGateMissingBenchmarks(t *testing.T) {
	caps := []Cap{{Bench: "BenchmarkA", Over: "BenchmarkB", Metric: "ns/op", Max: 2}}
	gateCase(t, "denominator missing", []Benchmark{bench("BenchmarkA", 1000)}, caps, "BenchmarkB ns/op missing")
	gateCase(t, "numerator missing", []Benchmark{bench("BenchmarkB", 1000)}, caps, "BenchmarkA ns/op missing")
	gateCase(t, "zero denominator", []Benchmark{bench("BenchmarkA", 1000), bench("BenchmarkB", 0)}, caps, "BenchmarkB ns/op missing from the run or zero")
}

// TestGateFailsNonFiniteReadings: a NaN or Inf reading is no reading.
// NaN > Max is false, so a NaN that reached Check would pass any cap;
// Parse drops its line instead, and the cap fails as missing.
func TestGateFailsNonFiniteReadings(t *testing.T) {
	parse := func(out string) []Benchmark {
		t.Helper()
		run, err := Parse(strings.NewReader(out), 2)
		if err != nil {
			t.Fatal(err)
		}
		return run
	}
	abs := []Cap{{Bench: "BenchmarkX", Metric: "allocs/op", Max: 10}}
	gateCase(t, "NaN allocs/op", parse("BenchmarkX-2 100 NaN allocs/op\n"), abs,
		"BenchmarkX allocs/op missing from the run")
	gateCase(t, "Inf allocs/op", parse("BenchmarkX-2 100 +Inf allocs/op\n"), abs,
		"BenchmarkX allocs/op missing from the run")
	ratio := []Cap{{Bench: "BenchmarkA", Over: "BenchmarkB", Metric: "ns/op", Max: 2}}
	gateCase(t, "NaN numerator", parse("BenchmarkA-2 100 NaN ns/op\nBenchmarkB-2 100 1000 ns/op\n"), ratio,
		"BenchmarkA ns/op missing from the run")
	gateCase(t, "NaN denominator", parse("BenchmarkA-2 100 1000 ns/op\nBenchmarkB-2 100 NaN ns/op\n"), ratio,
		"BenchmarkB ns/op missing from the run")
}

// TestCompareAggregation: repetitions fold by min, per metric — noise
// only ever slows a repetition down, so one clean repetition meets the
// cap.
func TestCompareAggregation(t *testing.T) {
	caps := []Cap{
		{Bench: "BenchmarkA", Metric: "allocs/op", Max: 7},
		{Bench: "BenchmarkA", Metric: "B/op", Max: 100},
	}
	gateCase(t, "minima come from different repetitions",
		[]Benchmark{mem("BenchmarkA", 8, 100), mem("BenchmarkA", 7, 120), mem("BenchmarkA", 9, 130)}, caps)
	gateCase(t, "every repetition over",
		[]Benchmark{mem("BenchmarkA", 8, 100), mem("BenchmarkA", 9, 100)}, caps, "A allocs/op: 8 exceeds")
}

// TestReportWriteTable smoke-tests the rendering.
func TestReportWriteTable(t *testing.T) {
	rep := Check([]Benchmark{mem("BenchmarkA", 5000, 64)}, []Cap{
		{Bench: "BenchmarkA", Metric: "allocs/op", Max: 1100},
		{Bench: "BenchmarkA", Metric: "B/op", Max: 64},
		{Bench: "BenchmarkA", Over: "BenchmarkGone", Metric: "ns/op", Max: 2},
	})
	var sb strings.Builder
	rep.WriteTable(&sb)
	out := sb.String()
	for _, want := range []string{
		"cap", "max", "current", "status",
		"A allocs/op", "1100", "5000", "FAIL: 5000 exceeds the cap 1100",
		"A B/op", "ok",
		"A / Gone ns/op", "FAIL: BenchmarkGone ns/op missing",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}
