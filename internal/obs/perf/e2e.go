package perf

import (
	"encoding/json"
	"fmt"
	"os"
)

// e2eMetric is one end_to_end entry of BENCHMARK.json: the contract's
// name, direction and bound for a metric. CheckE2E reads them from the
// file so there is no second copy of the bounds to drift.
type e2eMetric struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// e2eResult is one workload's entry of a `bench/e2e -out` file.
type e2eResult struct {
	Workload  string              `json:"workload"`
	Traced    bool                `json:"traced"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]e2eValue `json:"metrics"`
}

type e2eValue struct {
	Value float64 `json:"value"`
}

func (r *e2eResult) failedShare() float64 {
	return float64(r.Failed) / float64(max(r.Attempted, 1))
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("perf: %w", err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("perf: parse %s: %w", path, err)
	}
	return nil
}

func readE2E(path string) ([]e2eResult, error) {
	var run struct {
		Results []e2eResult `json:"results"`
	}
	if err := readJSON(path, &run); err != nil {
		return nil, err
	}
	if len(run.Results) == 0 {
		return nil, fmt.Errorf("perf: %s holds no bench/e2e results", path)
	}
	for _, r := range run.Results {
		if r.Traced {
			return nil, fmt.Errorf("perf: %s is a traced run (per-layer metrics); the end-to-end metrics come from an untraced one", path)
		}
	}
	return run.Results, nil
}

// CheckE2E compares two untraced `bench/e2e -out` result files the way
// the pipeline compares a change with its parent: results are paired
// by workload, and each end-to-end metric of the contract file
// (BENCHMARK.json) fails when NEW is worse than OLD by more than the
// contract's bound in the contract's direction, as does a larger
// failed share of operations or a workload present on one side only.
func CheckE2E(contractPath, oldPath, newPath string) (*Report, error) {
	var contract struct {
		EndToEnd []e2eMetric `json:"end_to_end"`
	}
	if err := readJSON(contractPath, &contract); err != nil {
		return nil, err
	}
	if len(contract.EndToEnd) == 0 {
		return nil, fmt.Errorf("perf: %s declares no end_to_end metrics", contractPath)
	}
	for _, m := range contract.EndToEnd {
		if m.Better != "lower" && m.Better != "higher" {
			return nil, fmt.Errorf("perf: %s: metric %s is better %q, want lower or higher", contractPath, m.Name, m.Better)
		}
	}
	olds, err := readE2E(oldPath)
	if err != nil {
		return nil, err
	}
	news, err := readE2E(newPath)
	if err != nil {
		return nil, err
	}
	return checkE2E(contract.EndToEnd, olds, news), nil
}

func findE2E(results []e2eResult, workload string) *e2eResult {
	for i := range results {
		if results[i].Workload == workload {
			return &results[i]
		}
	}
	return nil
}

// failedRow is a row with nothing to show but why it failed.
func failedRow(name, fail string) Row {
	return Row{Name: name, Cells: []string{"-", "-", "-", "-"}, Fail: fail}
}

func checkE2E(contract []e2eMetric, olds, news []e2eResult) *Report {
	rep := &Report{Header: []string{"workload metric", "old", "new", "change", "bound"}}
	for i := range olds {
		o := &olds[i]
		n := findE2E(news, o.Workload)
		if n == nil {
			rep.Rows = append(rep.Rows, failedRow(o.Workload, "workload missing from NEW"))
			continue
		}
		for _, m := range contract {
			rep.Rows = append(rep.Rows, checkE2EMetric(m, o, n))
		}
		row := Row{Name: o.Workload + " failed_share",
			Cells: []string{formatMetric(o.failedShare()), formatMetric(n.failedShare()), "-", "no larger"}}
		if n.failedShare() > o.failedShare() {
			row.Fail = "a larger share of operations failed"
		}
		rep.Rows = append(rep.Rows, row)
	}
	for _, n := range news {
		if findE2E(olds, n.Workload) == nil {
			rep.Rows = append(rep.Rows, failedRow(n.Workload, "workload missing from OLD"))
		}
	}
	return rep
}

func checkE2EMetric(m e2eMetric, o, n *e2eResult) Row {
	name := o.Workload + " " + m.Name
	ov, ok := o.Metrics[m.Name]
	if !ok {
		return failedRow(name, "metric missing from OLD")
	}
	nv, ok := n.Metrics[m.Name]
	if !ok {
		return failedRow(name, "metric missing from NEW")
	}
	// change is NEW's relative move; worse is the same move counted in
	// the metric's bad direction. A zero OLD admits no growth at all.
	change, sign := 0.0, "+"
	//lint:allow floateq an unchanged value is no move, and a zero one must not be divided by
	if nv.Value != ov.Value {
		change = (nv.Value - ov.Value) / ov.Value
	}
	worse := change
	if m.Better == "higher" {
		worse, sign = -change, "-"
	}
	row := Row{Name: name, Cells: []string{
		formatMetric(ov.Value), formatMetric(nv.Value),
		fmt.Sprintf("%+.1f%%", 100*change), fmt.Sprintf("%s%.0f%%", sign, 100*m.Bound),
	}}
	if worse > m.Bound {
		row.Fail = fmt.Sprintf("worse than OLD beyond the %.0f%% bound", 100*m.Bound)
	}
	return row
}
