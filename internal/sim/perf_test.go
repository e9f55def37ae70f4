package sim

import (
	"strings"
	"testing"

	"hare/internal/obs"
	"hare/internal/obs/perf"
)

// TestRunPhaseTelemetry: with a phase recorder attached, a replay
// reports its setup and event-loop spans plus the ready heap's
// operation counts; with everything nil, Run takes the uninstrumented
// path untouched (the zero-overhead contract BenchmarkObsDisabled
// measures).
func TestRunPhaseTelemetry(t *testing.T) {
	in := twoJobInstance()
	plan := planFor(t, in)

	reg := obs.NewRegistry()
	res, err := Run(in, plan, nil, nil, Options{
		Metrics: reg,
		Phases:  perf.NewPhaseRecorder(reg),
	})
	if err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		`hare_perf_phase_seconds_count{phase="sim_setup"} 1`,
		`hare_perf_phase_seconds_count{phase="sim_event_loop"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
	// Every executed task was popped from the ready heap exactly once.
	if got := reg.Counter("hare_sim_heap_pops_total").Value(); got != float64(in.NumTasks()) {
		t.Errorf("heap pops %v, want %d", got, in.NumTasks())
	}
	if reg.Counter("hare_sim_heap_inserts_total").Value() <= 0 {
		t.Error("heap inserts not exported")
	}

	// The uninstrumented run must agree on the result, of course.
	bare, err := Run(in, plan, nil, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	//lint:allow floateq identical inputs must produce identical floats
	if bare.WeightedJCT != res.WeightedJCT || bare.Makespan != res.Makespan {
		t.Errorf("telemetry changed results: %v/%v vs %v/%v",
			res.WeightedJCT, res.Makespan, bare.WeightedJCT, bare.Makespan)
	}

	// The reference engine records the same phases.
	reg2 := obs.NewRegistry()
	if _, err := RunReference(in, plan, nil, nil, Options{Phases: perf.NewPhaseRecorder(reg2)}); err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	if err := reg2.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if want := `hare_perf_phase_seconds_count{phase="sim_event_loop"} 1`; !strings.Contains(sb.String(), want) {
		t.Errorf("reference metrics missing %q:\n%s", want, sb.String())
	}
}
