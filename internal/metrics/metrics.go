// Package metrics computes and renders the evaluation quantities the
// paper reports: total weighted job completion time, per-job JCT
// distributions and CDFs, makespan, GPU utilization, and simple text
// tables / Gantt charts for the command-line tools.
package metrics

import (
	"fmt"
	"math"
	"strings"

	"hare/internal/core"
	"hare/internal/stats"
	"hare/internal/trace"
)

// JCTReport summarizes job completion times of one run.
type JCTReport struct {
	// WeightedTotal is Σ w_n·C_n (the paper's objective; C_n measured
	// from time zero as in constraint (6)).
	WeightedTotal float64
	// Durations[n] is C_n − a_n, the per-job latency plotted in the
	// paper's Fig. 13 CDF.
	Durations []float64
	Makespan  float64
}

// NewJCTReport derives a report from realized completions.
func NewJCTReport(in *core.Instance, completions []float64) *JCTReport {
	r := &JCTReport{Durations: make([]float64, len(completions))}
	for j, c := range completions {
		r.WeightedTotal += in.Jobs[j].Weight * c
		r.Durations[j] = c - in.Jobs[j].Arrival
		r.Makespan = math.Max(r.Makespan, c)
	}
	return r
}

// FractionWithin returns the fraction of jobs whose duration is at
// most d seconds (Fig. 13's "jobs completing within 25 minutes").
func (r *JCTReport) FractionWithin(d float64) float64 {
	if len(r.Durations) == 0 {
		return 0
	}
	n := 0
	for _, x := range r.Durations {
		if x <= d {
			n++
		}
	}
	return float64(n) / float64(len(r.Durations))
}

// CDF samples the duration CDF at the given thresholds.
func (r *JCTReport) CDF(thresholds []float64) []float64 {
	return stats.CDF(r.Durations, thresholds)
}

// Table renders rows as a fixed-width text table. header and rows
// must have equal lengths.
func Table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}

// FormatSeconds renders a duration with a sensible unit. Negative
// durations keep their sign with the magnitude's unit; NaN renders as
// "NaN" rather than falling into a unit bucket.
func FormatSeconds(s float64) string {
	if math.IsNaN(s) {
		return "NaN"
	}
	if s < 0 {
		return "-" + FormatSeconds(-s)
	}
	switch {
	case s < 1e-3:
		return fmt.Sprintf("%.1fµs", s*1e6)
	case s < 1:
		return fmt.Sprintf("%.2fms", s*1e3)
	case s < 120:
		return fmt.Sprintf("%.2fs", s)
	case s < 7200:
		return fmt.Sprintf("%.1fmin", s/60)
	default:
		return fmt.Sprintf("%.2fh", s/3600)
	}
}

// Gantt renders a textual Gantt chart of a trace: one row per GPU,
// width columns over the horizon, each cell showing the job (mod 36,
// base-36 digit) training there, '.' for idle.
func Gantt(tr *trace.Trace, numGPUs, width int) string {
	if width <= 0 {
		width = 80
	}
	var horizon float64
	for _, r := range tr.Records {
		horizon = math.Max(horizon, r.Start+r.Train)
	}
	if horizon == 0 {
		return "(empty trace)\n"
	}
	rows := make([][]byte, numGPUs)
	for m := range rows {
		rows[m] = []byte(strings.Repeat(".", width))
	}
	const digits = "0123456789abcdefghijklmnopqrstuvwxyz"
	for _, r := range tr.Records {
		if r.GPU < 0 || r.GPU >= numGPUs {
			continue
		}
		lo := int(r.Start / horizon * float64(width))
		hi := int((r.Start + r.Train) / horizon * float64(width))
		if hi >= width {
			hi = width - 1
		}
		ch := digits[int(r.Task.Job)%len(digits)]
		for c := lo; c <= hi; c++ {
			rows[r.GPU][c] = ch
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "time 0 .. %s (one column = %s)\n", FormatSeconds(horizon), FormatSeconds(horizon/float64(width)))
	for m, row := range rows {
		fmt.Fprintf(&b, "GPU%-3d |%s|\n", m, row)
	}
	return b.String()
}
