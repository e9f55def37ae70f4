package perf

import (
	"math"
	"strings"
	"testing"
)

// TestParseBasic covers the standard -benchmem line shape.
func TestParseBasic(t *testing.T) {
	out := `goos: linux
goarch: amd64
pkg: hare
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkSimulatorReplay-8   	     746	   1590547 ns/op	 1212345 B/op	    9041 allocs/op
PASS
ok  	hare	2.513s
`
	bs, err := Parse(strings.NewReader(out), 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) != 1 {
		t.Fatalf("parsed %d benchmarks, want 1", len(bs))
	}
	b := bs[0]
	if b.Name != "BenchmarkSimulatorReplay" {
		t.Errorf("name %q, want BenchmarkSimulatorReplay", b.Name)
	}
	if b.Iters != 746 {
		t.Errorf("iters %d, want 746", b.Iters)
	}
	if got := b.Metrics["ns/op"]; got != 1590547 {
		t.Errorf("ns/op = %v, want 1590547", got)
	}
	if got := b.Metrics["B/op"]; got != 1212345 {
		t.Errorf("B/op = %v, want 1212345", got)
	}
	if got := b.Metrics["allocs/op"]; got != 9041 {
		t.Errorf("allocs/op = %v, want 9041", got)
	}
}

// TestParseSubBenchmarkSuffix pins the awk bug the Go parser fixes: a
// sub-benchmark name ending in -N must survive canonicalization; only
// the GOMAXPROCS suffix is stripped, and only when procs > 1.
func TestParseSubBenchmarkSuffix(t *testing.T) {
	cases := []struct {
		printed string
		procs   int
		want    string
	}{
		// GOMAXPROCS=1: no suffix is ever appended, so nothing strips.
		// The old awk `sub(/-[0-9]+$/, "", name)` corrupted this to
		// "BenchmarkX/case".
		{"BenchmarkX/case-2", 1, "BenchmarkX/case-2"},
		// GOMAXPROCS=8: exactly one -8 strips, the sub-benchmark's own
		// -2 stays.
		{"BenchmarkX/case-2-8", 8, "BenchmarkX/case-2"},
		// Sub-benchmark named like the procs suffix: the printed form
		// under GOMAXPROCS=8 is case-8-8, and one strip is correct.
		{"BenchmarkX/case-8-8", 8, "BenchmarkX/case-8"},
		// Plain benchmark, procs suffix only.
		{"BenchmarkY-16", 16, "BenchmarkY"},
		// No suffix present (procs suffix may be absent on sub-process
		// lines); TrimSuffix leaves the name alone.
		{"BenchmarkY", 16, "BenchmarkY"},
	}
	for _, c := range cases {
		if got := CanonicalName(c.printed, c.procs); got != c.want {
			t.Errorf("CanonicalName(%q, %d) = %q, want %q", c.printed, c.procs, got, c.want)
		}
	}
}

// TestParseEdgeCases covers sub-benchmarks with slashes and dashes,
// custom units, scientific notation, and interleaved non-result lines.
func TestParseEdgeCases(t *testing.T) {
	out := `goos: linux
BenchmarkHeap/push/n=1024-4     	  500000	      2134 ns/op	       0 B/op	       0 allocs/op
some test log line
--- FAIL: TestUnrelated (0.00s)
    foo_test.go:12: assertion failed
BenchmarkFig14GPUSweep-4        	       9	 1.23e+08 ns/op	         0.8716 hare/best-baseline
Benchmark                       	 notaline
BenchmarkBadIters               	     abc	       100 ns/op
FAIL
exit status 1
`
	bs, err := Parse(strings.NewReader(out), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2: %+v", len(bs), bs)
	}
	if bs[0].Name != "BenchmarkHeap/push/n=1024" {
		t.Errorf("sub-benchmark name %q", bs[0].Name)
	}
	if bs[0].Metrics["allocs/op"] != 0 {
		t.Errorf("allocs/op = %v", bs[0].Metrics["allocs/op"])
	}
	if bs[1].Name != "BenchmarkFig14GPUSweep" {
		t.Errorf("name %q", bs[1].Name)
	}
	if bs[1].Metrics["ns/op"] != 1.23e8 {
		t.Errorf("scientific ns/op = %v", bs[1].Metrics["ns/op"])
	}
	if bs[1].Metrics["hare/best-baseline"] != 0.8716 {
		t.Errorf("custom metric = %v", bs[1].Metrics["hare/best-baseline"])
	}
}

// TestParseRepetitions keeps -count repetitions as separate entries.
func TestParseRepetitions(t *testing.T) {
	out := `BenchmarkA-2	100	50 ns/op
BenchmarkA-2	100	52 ns/op
BenchmarkA-2	100	48 ns/op
`
	bs, err := Parse(strings.NewReader(out), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) != 3 {
		t.Fatalf("parsed %d, want 3 repetitions", len(bs))
	}
	for _, b := range bs {
		if b.Name != "BenchmarkA" {
			t.Errorf("name %q", b.Name)
		}
	}
}

// TestParseRejectsProse: lines that start with "Benchmark" but are
// not result lines (log output, headings) must be skipped.
func TestParseRejectsProse(t *testing.T) {
	out := `Benchmarking the simulator took 3 attempts today
Benchmark results will follow shortly after this
BenchmarkReal-2	10	100 ns/op
`
	bs, err := Parse(strings.NewReader(out), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) != 1 || bs[0].Name != "BenchmarkReal" {
		t.Fatalf("parsed %+v, want only BenchmarkReal", bs)
	}
}

// FuzzPerfParse: the bench-output parser never panics, accepts only
// results named Benchmark… with a positive iteration count and finite
// metrics, and accepts at most one result per input line.
func FuzzPerfParse(f *testing.F) {
	f.Add(`goos: linux
goarch: amd64
pkg: hare
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkSimulatorReplay-2   	     746	   1590547 ns/op	 1212345 B/op	    9041 allocs/op
BenchmarkHareSchedule-2      	     312	   3824412 ns/op	   91234 B/op	     170 allocs/op
BenchmarkOnlineHareSchedule/jobs-60-2	1000	1.25e+06 ns/op	44931 B/op	21 allocs/op	0.97 hare/best-baseline
PASS
ok  	hare	12.513s
`, uint8(2))
	f.Add("BenchmarkX-2 100 NaN allocs/op\n", uint8(2))
	f.Add("BenchmarkSetup 2 runs of the planner\n", uint8(1))
	f.Fuzz(func(t *testing.T, out string, procs uint8) {
		run, err := Parse(strings.NewReader(out), int(procs))
		if err != nil {
			return
		}
		if lines := strings.Count(out, "\n") + 1; len(run) > lines {
			t.Fatalf("%d results from %d lines", len(run), lines)
		}
		for _, b := range run {
			if !strings.HasPrefix(b.Name, "Benchmark") || b.Iters <= 0 {
				t.Fatalf("accepted %+v", b)
			}
			//lint:ordered each metric is checked on its own
			for unit, v := range b.Metrics {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("accepted non-finite %s = %v in %+v", unit, v, b)
				}
			}
		}
	})
}
