package perf

import (
	"strings"
	"testing"
)

// The one comparer left is CheckE2E: two bench/e2e result files under
// BENCHMARK.json's directions and bounds. These tests drive its core
// on synthetic result pairs; the last one reads the checked-in files.

var testContract = []e2eMetric{
	{Name: "op_p50_s", Better: "lower", Bound: 0.25},
	{Name: "tasks_per_s", Better: "higher", Bound: 0.25},
	{Name: "alloc_kb_per_task", Better: "lower", Bound: 0.15},
}

// e2eOf builds one workload's result: 100 ops attempted, `failed` of
// them failed, metrics in testContract's order.
func e2eOf(workload string, failed int, p50, tasksPerS, allocKB float64) e2eResult {
	return e2eResult{Workload: workload, Attempted: 100, Failed: failed, Metrics: map[string]e2eValue{
		"op_p50_s": {p50}, "tasks_per_s": {tasksPerS}, "alloc_kb_per_task": {allocKB},
	}}
}

func e2eCase(t *testing.T, name string, olds, news []e2eResult, wantFail ...string) {
	t.Helper()
	wantFailures(t, name, checkE2E(testContract, olds, news), wantFail)
}

// TestCompareWithinThreshold: a move inside the bound holds, in either
// direction of better, and exactly at the bound too.
func TestCompareWithinThreshold(t *testing.T) {
	old := []e2eResult{e2eOf("w", 0, 0.100, 1000, 2.0)}
	e2eCase(t, "inside", old, []e2eResult{e2eOf("w", 0, 0.120, 800, 2.2)})
	e2eCase(t, "at the bound", old, []e2eResult{e2eOf("w", 0, 0.125, 750, 2.3)})
}

// TestCompareRegression: worse beyond the bound fails and names the
// workload and metric — for a lower-is-better metric, a
// higher-is-better one, and a grown failed share.
func TestCompareRegression(t *testing.T) {
	old := []e2eResult{e2eOf("w", 1, 0.100, 1000, 2.0), e2eOf("other", 0, 1, 1, 1)}
	other := e2eOf("other", 0, 1, 1, 1)
	e2eCase(t, "lower-is-better up 30%", old, []e2eResult{e2eOf("w", 1, 0.130, 1000, 2.0), other},
		"w op_p50_s: worse than OLD beyond the 25% bound")
	e2eCase(t, "higher-is-better down 30%", old, []e2eResult{e2eOf("w", 1, 0.100, 700, 2.0), other},
		"w tasks_per_s: worse than OLD beyond the 25% bound")
	e2eCase(t, "failed share grew", old, []e2eResult{e2eOf("w", 2, 0.100, 1000, 2.0), other},
		"w failed_share: a larger share of operations failed")
	e2eCase(t, "failed share shrank", old, []e2eResult{e2eOf("w", 0, 0.100, 1000, 2.0), other})
}

// TestCompareImprovement: better never fails, however far it moves.
func TestCompareImprovement(t *testing.T) {
	e2eCase(t, "5x better", []e2eResult{e2eOf("w", 0, 0.100, 1000, 2.0)}, []e2eResult{e2eOf("w", 0, 0.020, 5000, 0.4)})
}

// TestComparePerMetricThresholds: each metric is held to its own bound
// from the contract — +20% passes op_p50_s's 25% and fails
// alloc_kb_per_task's 15%.
func TestComparePerMetricThresholds(t *testing.T) {
	e2eCase(t, "+20% on both", []e2eResult{e2eOf("w", 0, 0.100, 1000, 2.0)}, []e2eResult{e2eOf("w", 0, 0.120, 1000, 2.4)},
		"w alloc_kb_per_task: worse than OLD beyond the 15% bound")
}

// TestCompareAddedRemovedAndCustomUnits: a workload on one side only
// fails from either side, as does a contract metric a result lacks;
// metrics outside the contract are ignored.
func TestCompareAddedRemovedAndCustomUnits(t *testing.T) {
	a, b := e2eOf("a", 0, 1, 1, 1), e2eOf("b", 0, 1, 1, 1)
	e2eCase(t, "dropped from NEW", []e2eResult{a, b}, []e2eResult{a}, "b: workload missing from NEW")
	e2eCase(t, "absent from OLD", []e2eResult{a}, []e2eResult{a, b}, "b: workload missing from OLD")

	extra := e2eOf("a", 0, 1, 1, 1)
	extra.Metrics["sched.hare.plan_s"] = e2eValue{99}
	e2eCase(t, "metric outside the contract", []e2eResult{a}, []e2eResult{extra})

	lacking := e2eOf("a", 0, 1, 1, 1)
	delete(lacking.Metrics, "tasks_per_s")
	e2eCase(t, "contract metric absent", []e2eResult{a}, []e2eResult{lacking}, "a tasks_per_s: metric missing from NEW")
}

// TestCompareZeroBaseline: a zero OLD has no usable ratio; it admits
// no growth (and is not divided by when nothing moved).
func TestCompareZeroBaseline(t *testing.T) {
	old := []e2eResult{e2eOf("w", 0, 0.100, 1000, 0)}
	e2eCase(t, "still zero", old, []e2eResult{e2eOf("w", 0, 0.100, 1000, 0)})
	e2eCase(t, "grew from zero", old, []e2eResult{e2eOf("w", 0, 0.100, 1000, 0.5)}, "w alloc_kb_per_task")
}

// TestCheckE2EResultFiles: the checked-in trajectory parses under the
// checked-in contract and yields every BENCHMARK.json workload ×
// end_to_end metric plus a failed-share row per workload. Presence
// only, no verdict: run-to-run noise between two result sets is the
// pipeline's business.
func TestCheckE2EResultFiles(t *testing.T) {
	const root = "../../../"
	rep, err := CheckE2E(root+"BENCHMARK.json", root+"bench/e2e/results/seed1-run1.json", root+"bench/e2e/results/seed1-run2.json")
	if err != nil {
		t.Fatal(err)
	}
	var contract struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
	}
	if err := readJSON(root+"BENCHMARK.json", &contract); err != nil {
		t.Fatal(err)
	}
	if len(contract.Workloads) != 5 || len(contract.EndToEnd) != 6 {
		t.Fatalf("contract has %d workloads × %d metrics, want 5 × 6", len(contract.Workloads), len(contract.EndToEnd))
	}
	rows := make(map[string]Row, len(rep.Rows))
	for _, row := range rep.Rows {
		rows[row.Name] = row
	}
	for _, w := range contract.Workloads {
		for _, m := range append(contract.EndToEnd, struct{ Name string }{"failed_share"}) {
			row, ok := rows[w.Name+" "+m.Name]
			if !ok || strings.Contains(row.Fail, "missing") || row.Cells[0] == "-" {
				t.Errorf("%s %s: row %+v (present %v)", w.Name, m.Name, row, ok)
			}
		}
	}
	if want := 5 * 7; len(rep.Rows) != want {
		t.Errorf("%d rows, want %d", len(rep.Rows), want)
	}

	// A traced file carries per-layer metrics only and is refused.
	if _, err := CheckE2E(root+"BENCHMARK.json", root+"bench/e2e/results/seed1-run1-trace.json", root+"bench/e2e/results/seed1-run1.json"); err == nil {
		t.Error("a traced result file was accepted")
	}
}
