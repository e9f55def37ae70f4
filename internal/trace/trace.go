// Package trace provides (a) synthetic job-arrival generation with the
// bursty character of the Google cluster trace the paper replays, and
// (b) recording and replaying of per-task execution traces, which is
// how the testbed's measured timings feed the trace-driven simulator.
package trace

import (
	"encoding/json"
	"fmt"
	"os"

	"hare/internal/core"
	"hare/internal/stats"
)

// Arrivals synthesizes n job arrival times over roughly the given
// horizon (seconds). Inter-arrival gaps are log-uniform (heavy-tailed,
// bursty) as in the Google cluster trace: many jobs arrive in tight
// clumps separated by long quiet gaps. The result is sorted ascending
// and starts at 0.
func Arrivals(n int, horizon float64, seed int64) []float64 {
	if n <= 0 {
		panic(fmt.Sprintf("trace: need positive job count, got %d", n))
	}
	if n == 1 || horizon <= 0 {
		return make([]float64, n)
	}
	rng := stats.New(seed)
	gaps := make([]float64, n-1)
	var total float64
	// Gap spread of three orders of magnitude ⇒ strong burstiness.
	for i := range gaps {
		gaps[i] = rng.LogUniform(1, 1000)
		total += gaps[i]
	}
	// Normalize so the last arrival lands at the horizon.
	out := make([]float64, n)
	acc := 0.0
	for i := 1; i < n; i++ {
		acc += gaps[i-1] / total * horizon
		out[i] = acc
	}
	return out
}

// TaskRecord is one executed task: what ran where, and the realized
// timings. Records are produced by both the simulator and the testbed
// so their outputs are directly comparable.
type TaskRecord struct {
	Task   core.TaskRef `json:"task"`
	GPU    int          `json:"gpu"`
	Start  float64      `json:"start"`
	Train  float64      `json:"train"`  // realized T^c
	Sync   float64      `json:"sync"`   // realized T^s
	Switch float64      `json:"switch"` // switching overhead paid before Start
}

// End returns the task's completion time (start + train + sync).
func (r TaskRecord) End() float64 { return r.Start + r.Train + r.Sync }

// Trace is an ordered set of task records from one run.
type Trace struct {
	Records []TaskRecord `json:"records"`
}

// Add appends a record.
func (t *Trace) Add(r TaskRecord) { t.Records = append(t.Records, r) }

// MeanTimes averages the realized train and sync times per job — the
// replay path: a testbed trace is reduced to per-job means, which
// parameterize a simulator instance.
func (t *Trace) MeanTimes() map[core.JobID]struct{ Train, Sync float64 } {
	sums := make(map[core.JobID]struct {
		train, sync float64
		n           int
	})
	for _, r := range t.Records {
		s := sums[r.Task.Job]
		s.train += r.Train
		s.sync += r.Sync
		s.n++
		sums[r.Task.Job] = s
	}
	out := make(map[core.JobID]struct{ Train, Sync float64 }, len(sums))
	for j, s := range sums {
		out[j] = struct{ Train, Sync float64 }{Train: s.train / float64(s.n), Sync: s.sync / float64(s.n)}
	}
	return out
}

// Save writes the trace to path as JSON.
func (t *Trace) Save(path string) error {
	data, err := json.MarshalIndent(t, "", " ")
	if err != nil {
		return fmt.Errorf("trace: marshal: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}

// Load reads a trace written by Save.
func Load(path string) (*Trace, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("trace: read: %w", err)
	}
	var t Trace
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("trace: parse: %w", err)
	}
	return &t, nil
}
