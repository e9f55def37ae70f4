package metrics

import (
	"math"
	"strings"
	"testing"

	"hare/internal/core"
	"hare/internal/trace"
)

func sampleInstance() *core.Instance {
	return &core.Instance{
		NumGPUs: 1,
		Jobs: []*core.Job{
			{ID: 0, Name: "a", Weight: 1, Rounds: 1, Scale: 1},
			{ID: 1, Name: "b", Weight: 3, Arrival: 10, Rounds: 1, Scale: 1},
		},
		Train: [][]float64{{1}, {1}},
		Sync:  [][]float64{{0}, {0}},
	}
}

func TestJCTReport(t *testing.T) {
	in := sampleInstance()
	r := NewJCTReport(in, []float64{5, 40})
	if r.WeightedTotal != 1*5+3*40 {
		t.Errorf("weighted total %g", r.WeightedTotal)
	}
	if r.Durations[0] != 5 || r.Durations[1] != 30 {
		t.Errorf("durations %v", r.Durations)
	}
	if r.Makespan != 40 {
		t.Errorf("makespan %g", r.Makespan)
	}
	if f := r.FractionWithin(10); f != 0.5 {
		t.Errorf("fraction within 10 = %g", f)
	}
	if f := r.FractionWithin(100); f != 1 {
		t.Errorf("fraction within 100 = %g", f)
	}
	cdf := r.CDF([]float64{1, 6, 31})
	if cdf[0] != 0 || cdf[1] != 0.5 || cdf[2] != 1 {
		t.Errorf("cdf %v", cdf)
	}
}

func TestTableAlignment(t *testing.T) {
	out := Table([]string{"name", "v"}, [][]string{{"longer-name", "1"}, {"x", "22"}})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("%d lines", len(lines))
	}
	if !strings.HasPrefix(lines[0], "name") || !strings.Contains(lines[1], "---") {
		t.Errorf("header malformed:\n%s", out)
	}
	// Column alignment: the 'v' column starts at the same offset.
	idx := strings.Index(lines[0], "v")
	if lines[2][idx:idx+1] != "1" && lines[3][idx:idx+2] != "22" {
		t.Errorf("misaligned:\n%s", out)
	}
}

func TestFormatSeconds(t *testing.T) {
	cases := map[float64]string{
		5e-7:  "0.5µs",
		0.002: "2.00ms",
		3.5:   "3.50s",
		180:   "3.0min",
		7300:  "2.03h",
		0:     "0.0µs",
		-3.5:  "-3.50s",
		-180:  "-3.0min",
		-5e-7: "-0.5µs",
	}
	//lint:ordered independent per-case assertions
	for in, want := range cases {
		if got := FormatSeconds(in); got != want {
			t.Errorf("FormatSeconds(%g) = %q, want %q", in, got, want)
		}
	}
	if got := FormatSeconds(math.NaN()); got != "NaN" {
		t.Errorf("FormatSeconds(NaN) = %q, want NaN", got)
	}
}

func TestGantt(t *testing.T) {
	tr := &trace.Trace{}
	tr.Add(trace.TaskRecord{Task: core.TaskRef{Job: 0}, GPU: 0, Start: 0, Train: 5})
	tr.Add(trace.TaskRecord{Task: core.TaskRef{Job: 1}, GPU: 1, Start: 5, Train: 5})
	out := Gantt(tr, 2, 10)
	if !strings.Contains(out, "GPU0") || !strings.Contains(out, "GPU1") {
		t.Errorf("missing GPU rows:\n%s", out)
	}
	if !strings.Contains(out, "0") || !strings.Contains(out, "1") {
		t.Errorf("missing job digits:\n%s", out)
	}
	if got := Gantt(&trace.Trace{}, 1, 10); !strings.Contains(got, "empty") {
		t.Errorf("empty trace: %q", got)
	}
}
