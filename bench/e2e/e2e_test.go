package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"testing"
)

// tinySizes shrinks every workload so the whole suite runs in seconds
// inside `go test ./...`.
var tinySizes = sizes{
	setupReps: 1, warmups: 1,
	planPool: 3, planJobs: 10, planGPUs: 8, planHorizon: 200,
	replayPool: 2, replayJobs: 8, replayGPUs: 8, replayHorizon: 200,
	roundsScale: 0.05,
	batchPool:   2, batchTasks: 12, batchRounds: 0.03,
	recoverTasks: 100, recoverPool: 2,
	sessionBatches: 3, reusePool: 3, reuseTasks: 10,
	probeReps: 1,
}

// benchmarkJSON mirrors the keys of BENCHMARK.json the catalogue must
// agree with.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the benchmark's default pass is %d s", b.RunSeconds, defaultSeconds)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "bench/e2e" {
		t.Errorf("paths %v, want [bench/e2e]", b.Paths)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the catalogue", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, catalogue %q", i, b.Workloads[i].Name, w.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the catalogue", len(b.EndToEnd), len(endToEnd))
	}
	setup := false
	for i, d := range endToEnd {
		got := b.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, catalogue %+v", i, got, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the catalogue", len(b.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		got := b.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, catalogue %+v", i, got, d)
		}
	}
}

func TestCatalogueNames(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q does not match %v", n, name)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		check(w.Name)
		if len(w.Why) > 200 {
			t.Errorf("%s: why has %d characters", w.Name, len(w.Why))
		}
	}
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			check(d.Name)
			if !unit.MatchString(d.Unit) {
				t.Errorf("%s: unit %q does not match %v", d.Name, d.Unit, unit)
			}
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s: better %q", d.Name, d.Better)
			}
		}
	}
}

// TestEveryMetricOncePerWorkload runs every workload untraced and
// traced at tiny sizes: the runs must verify, and emit exactly the
// catalogue's end-to-end (untraced) or per-layer (traced) metrics with
// their units — metricSet.set already refuses duplicates and unknown
// names, so equal counts mean equal sets.
func TestEveryMetricOncePerWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real TCP control planes")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			dir := t.TempDir()
			res, err := runWorkload(w.Name, 7, 0.2, traced, tinySizes, dir, dir, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Ops == 0 {
				t.Errorf("%s traced=%v: %d of %d ops failed (%d measured): %s", w.Name, traced, res.Failed, res.Attempted, res.Ops, res.FirstError)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics emitted, catalogue has %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, d := range want {
				got, ok := res.Metrics[d.Name]
				if !ok {
					t.Errorf("%s traced=%v: %s not emitted", w.Name, traced, d.Name)
				} else if got.Unit != d.Unit {
					t.Errorf("%s traced=%v: %s emitted in %q, catalogue says %q", w.Name, traced, d.Name, got.Unit, d.Unit)
				}
				if !traced && ok && got.Value <= 0 {
					t.Errorf("%s: end-to-end %s = %g, must never be 0", w.Name, d.Name, got.Value)
				}
			}
			if traced {
				if r := res.Metrics["bench.selftime_residual_share"].Value; r > 0.05 {
					t.Errorf("%s: self times miss the op wall time by %.1f%%", w.Name, 100*r)
				}
				if _, err := os.Stat(dir + "/trace-" + w.Name + ".json"); err != nil {
					t.Errorf("%s: no chrome trace written: %v", w.Name, err)
				}
			}
		}
	}
}

func TestPercentileP90OfHundred(t *testing.T) {
	samples := make([]float64, 100)
	for i := range samples {
		samples[i] = float64((i*37)%100) + 1 // 1..100, shuffled
	}
	p90 := percentile(samples, 0.9)
	beyond := 0
	for _, s := range samples {
		if s > p90 {
			beyond++
		}
	}
	if beyond != 10 {
		t.Errorf("p90 = %g leaves %d of 100 samples beyond it, want exactly 10", p90, beyond)
	}
	if got := percentile(samples, 0.5); got != 50 {
		t.Errorf("p50 = %g, want 50", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %g, want 0", got)
	}
}

func TestSelfTimesTileTheirParent(t *testing.T) {
	// op [0,10] ⊃ a [1,4] ⊃ leaf [2,3]; op ⊃ b [5,9] ⊃ two leaves.
	spans := []spanRec{
		{Name: "op", Start: 0, End: 10, Parent: -1},
		{Name: "a", Start: 1, End: 4, Parent: 0},
		{Name: "x", Start: 2, End: 3, Parent: 1, Leaf: true},
		{Name: "b", Start: 5, End: 9, Parent: 0},
		{Name: "y", Start: 5.5, End: 6.5, Parent: 3, Leaf: true},
		{Name: "z", Start: 7, End: 8.5, Parent: 3, Leaf: true},
	}
	want := []float64{3, 2, 1, 1.5, 1, 1.5}
	sum := 0.0
	for i, got := range selfTimes(spans) {
		if math.Abs(got-want[i]) > 1e-12 {
			t.Errorf("self time of %s = %g, want %g", spans[i].Name, got, want[i])
		}
		sum += got
	}
	if math.Abs(sum-10) > 1e-12 || selfTimeResidual(spans) > 1e-12 {
		t.Errorf("self times sum to %g of a 10 s op (residual %g)", sum, selfTimeResidual(spans))
	}
	// Two leaves that overlap in time are concurrency the tiling cannot
	// hide: the residual must show it.
	spans = append(spans, spanRec{Name: "w", Start: 7.5, End: 8.5, Parent: 3, Leaf: true})
	if r := selfTimeResidual(spans); r < 0.09 {
		t.Errorf("overlapping leaves left a residual of %g, want 0.1", r)
	}
}

func TestTracerNestsStructuralSpansAndLeaves(t *testing.T) {
	tr := newTracer()
	root := tr.beginOp(3)
	a := tr.begin("a")
	tr.leaf("x", now(), now())
	tr.end(a)
	tr.leaf("y", now(), now())
	tr.end(root)
	wantParent := map[string]int{"op": -1, "a": 0, "x": 1, "y": 0}
	for _, s := range tr.spans {
		if s.Parent != wantParent[s.Name] || s.Op != 3 {
			t.Errorf("span %s: parent %d op %d, want parent %d op 3", s.Name, s.Parent, s.Op, wantParent[s.Name])
		}
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin("untraced")) // the untraced pass: all no-ops
	nilTracer.leaf("untraced", 0, 1)
}
