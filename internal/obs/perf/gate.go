package perf

import (
	"fmt"
	"io"
	"math"
	"strings"

	"hare/internal/metrics"
)

// Cap is one row of the gate table: an inclusive upper bound on a
// metric of the current run, with no baseline involved. allocs/op and
// B/op are constants of a build — no machine noise — so they are
// capped absolutely; timing is capped only as the ratio of two
// benchmarks of the same run (Over set), which survives a change of
// machine that shifts every absolute number.
type Cap struct {
	// Bench is the capped benchmark, Metric the capped unit.
	Bench, Metric string
	// Over, when set, turns the cap into one on Bench's value divided
	// by benchmark Over's.
	Over string
	// Max is the inclusive bound.
	Max float64
}

func (c Cap) name() string {
	name := strings.TrimPrefix(c.Bench, "Benchmark")
	if c.Over != "" {
		name += " / " + strings.TrimPrefix(c.Over, "Benchmark")
	}
	return name + " " + c.Metric
}

// value reads the capped number out of a folded run; fail names what
// is missing.
func (c Cap) value(run map[string]map[string]float64) (v float64, fail string) {
	v, ok := run[c.Bench][c.Metric]
	if !ok {
		return math.NaN(), c.Bench + " " + c.Metric + " missing from the run"
	}
	if c.Over == "" {
		return v, ""
	}
	den, ok := run[c.Over][c.Metric]
	if !ok || den <= 0 {
		return math.NaN(), c.Over + " " + c.Metric + " missing from the run or zero"
	}
	return v / den, ""
}

// Row is one checked number of a Report, already rendered.
type Row struct {
	// Name says what was checked ("HareSchedule allocs/op",
	// "plan-online op_p50_s").
	Name string
	// Cells are the row's remaining table cells, one per Report.Header
	// entry after the first.
	Cells []string
	// Fail says why the check failed; empty when it held.
	Fail string
}

// Report is the outcome of Check or CheckE2E.
type Report struct {
	// Header titles Name's column and then each cell's.
	Header []string
	Rows   []Row
}

// Failures returns one line per failed row; the caller exits non-zero
// when there is any.
func (r *Report) Failures() []string {
	var out []string
	for _, row := range r.Rows {
		if row.Fail != "" {
			out = append(out, row.Name+": "+row.Fail)
		}
	}
	return out
}

// WriteTable renders the report with a trailing status column.
func (r *Report) WriteTable(w io.Writer) {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		status := "ok"
		if row.Fail != "" {
			status = "FAIL: " + row.Fail
		}
		rows[i] = append(append([]string{row.Name}, row.Cells...), status)
	}
	header := append(append([]string(nil), r.Header...), "status")
	fmt.Fprint(w, metrics.Table(header, rows))
}

// Check folds the run's -count repetitions by min — noise only ever
// slows a repetition down — and evaluates every cap. A cap whose
// benchmark or metric is absent from the run fails: a renamed
// benchmark or a narrowed -bench pattern must not switch its cap off.
func Check(run []Benchmark, caps []Cap) *Report {
	folded := make(map[string]map[string]float64)
	for _, b := range run {
		m, ok := folded[b.Name]
		if !ok {
			m = make(map[string]float64, len(b.Metrics))
			folded[b.Name] = m
		}
		//lint:ordered a minimum does not depend on the order it is taken in
		for unit, v := range b.Metrics {
			if old, ok := m[unit]; !ok || v < old {
				m[unit] = v
			}
		}
	}
	rep := &Report{Header: []string{"cap", "max", "current"}}
	for _, c := range caps {
		cur, fail := c.value(folded)
		if cur > c.Max {
			fail = fmt.Sprintf("%s exceeds the cap %s", formatMetric(cur), formatMetric(c.Max))
		}
		rep.Rows = append(rep.Rows, Row{
			Name:  c.name(),
			Cells: []string{formatMetric(c.Max), formatMetric(cur)},
			Fail:  fail,
		})
	}
	return rep
}

// formatMetric renders a metric value compactly (ns/op values are
// large integers; ratios and custom units are small floats).
func formatMetric(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	if math.Abs(v) >= 1000 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.3g", v)
}
