package sim

import (
	"testing"

	"hare/internal/obs"
)

// TestRunHeapCounters: with a registry attached, a replay exports the
// ready heap's operation counts; with none, Run takes the
// uninstrumented path untouched (the zero-overhead contract
// BenchmarkObsDisabled measures) and agrees on the result.
func TestRunHeapCounters(t *testing.T) {
	in := twoJobInstance()
	plan := planFor(t, in)

	reg := obs.NewRegistry()
	res, err := Run(in, plan, nil, nil, Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
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
}
