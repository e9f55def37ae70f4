// Package core defines the domain model shared by every Hare
// subsystem: DML jobs, their training rounds and tasks, scheduling
// instances (per-job, per-GPU task times), and schedules together with
// validation of the paper's feasibility constraints (4)–(8).
//
// The types deliberately mirror the notation of Section 5 of the
// paper: a job n ∈ N consists of |R_n| training rounds; each round
// launches |D_r| parallel tasks; task i has training time T^c_{i,m}
// and synchronization time T^s_{i,m} on GPU m. Task times are uniform
// across a job's tasks and rounds (the paper drops the round subscript
// after observing per-round stability in Fig. 11), so an Instance
// stores them per (job, GPU).
package core

import (
	"fmt"
	"math"
	"slices"
)

// JobID identifies a job within an Instance. IDs are dense indices
// into Instance.Jobs.
type JobID int

// Job describes one DML training job: the paper's tuple
// (a_n, w_n, R_n, D_r) plus bookkeeping used by the workload layer.
type Job struct {
	ID     JobID
	Name   string  // human-readable, e.g. "job-17(ResNet50)"
	Model  string  // model zoo name; informational at this layer
	Weight float64 // w_n, the job's weight in the objective
	// Arrival is a_n, the job's arrival time in seconds. Tasks of the
	// job cannot start earlier (constraint 4).
	Arrival float64
	// Rounds is |R_n|, the number of synchronized training rounds.
	Rounds int
	// Scale is |D_r|, the number of parallel tasks launched per round
	// (the job's fixed synchronization scale).
	Scale int
}

// NumTasks returns the total task count Rounds × Scale.
func (j *Job) NumTasks() int { return j.Rounds * j.Scale }

// TaskRef identifies a single task: the Index-th parallel task of
// round Round of job Job. Rounds and indices are zero-based.
type TaskRef struct {
	Job   JobID
	Round int
	Index int
}

func (t TaskRef) String() string {
	return fmt.Sprintf("j%d/r%d/t%d", t.Job, t.Round, t.Index)
}

// Instance is a complete offline scheduling problem: the jobs, the
// number of GPUs, and the per-(job, GPU) training and synchronization
// times. It is the sole input to every scheduling algorithm, which
// keeps the algorithms independent of how the times were produced
// (profiler, trace, or randomized property test).
type Instance struct {
	Jobs []*Job
	// NumGPUs is |M|.
	NumGPUs int
	// Train[j][m] is T^c for a task of job j on GPU m, seconds.
	Train [][]float64
	// Sync[j][m] is T^s for a task of job j on GPU m, seconds.
	Sync [][]float64
}

// Validate checks structural well-formedness of the instance itself
// (not of any schedule): positive dimensions, matching matrix shapes,
// positive times, and sane job fields.
func (in *Instance) Validate() error {
	if in.NumGPUs <= 0 {
		return fmt.Errorf("core: instance has %d GPUs", in.NumGPUs)
	}
	if len(in.Jobs) == 0 {
		return fmt.Errorf("core: instance has no jobs")
	}
	if len(in.Train) != len(in.Jobs) || len(in.Sync) != len(in.Jobs) {
		return fmt.Errorf("core: time matrices have %d/%d rows for %d jobs",
			len(in.Train), len(in.Sync), len(in.Jobs))
	}
	for j, job := range in.Jobs {
		if job.ID != JobID(j) {
			return fmt.Errorf("core: job at position %d has ID %d", j, job.ID)
		}
		if job.Rounds <= 0 || job.Scale <= 0 {
			return fmt.Errorf("core: job %d has rounds=%d scale=%d", j, job.Rounds, job.Scale)
		}
		if job.Weight <= 0 {
			return fmt.Errorf("core: job %d has non-positive weight %g", j, job.Weight)
		}
		if job.Arrival < 0 || math.IsNaN(job.Arrival) {
			return fmt.Errorf("core: job %d has invalid arrival %g", j, job.Arrival)
		}
		if len(in.Train[j]) != in.NumGPUs || len(in.Sync[j]) != in.NumGPUs {
			return fmt.Errorf("core: job %d time rows have %d/%d entries for %d GPUs",
				j, len(in.Train[j]), len(in.Sync[j]), in.NumGPUs)
		}
		for m := 0; m < in.NumGPUs; m++ {
			if in.Train[j][m] <= 0 || math.IsNaN(in.Train[j][m]) {
				return fmt.Errorf("core: job %d train time on GPU %d is %g", j, m, in.Train[j][m])
			}
			if in.Sync[j][m] < 0 || math.IsNaN(in.Sync[j][m]) {
				return fmt.Errorf("core: job %d sync time on GPU %d is %g", j, m, in.Sync[j][m])
			}
		}
	}
	return nil
}

// NumTasks returns the total number of tasks across all jobs.
func (in *Instance) NumTasks() int {
	n := 0
	for _, j := range in.Jobs {
		n += j.NumTasks()
	}
	return n
}

// Alpha returns the paper's heterogeneity spread
// α = max_i { T^c,max_i / T^c,min_i, T^s,max_i / T^s,min_i }, the key
// quantity in the α(2+α) approximation bound. Sync ratios with a zero
// minimum are skipped (a zero sync time models a local, network-free
// update, for which the spread is meaningless).
func (in *Instance) Alpha() float64 {
	alpha := 1.0
	for _, j := range in.Jobs {
		cmin, cmax := math.Inf(1), 0.0
		smin, smax := math.Inf(1), 0.0
		for m := 0; m < in.NumGPUs; m++ {
			cmin = math.Min(cmin, in.Train[j.ID][m])
			cmax = math.Max(cmax, in.Train[j.ID][m])
			smin = math.Min(smin, in.Sync[j.ID][m])
			smax = math.Max(smax, in.Sync[j.ID][m])
		}
		alpha = math.Max(alpha, cmax/cmin)
		if smin > 0 {
			alpha = math.Max(alpha, smax/smin)
		}
	}
	return alpha
}

// DedicatedRuntime is job j's duration on a private cluster: every
// round at its fastest train + sync over the GPUs, no queueing. It is
// SRTF's runtime estimate and the denominator of finish-time fairness ρ
// (Themis_Fair's priority, metrics.FairnessReport).
func (in *Instance) DedicatedRuntime(j *Job) float64 {
	best := math.Inf(1)
	for m := 0; m < in.NumGPUs; m++ {
		best = math.Min(best, in.Train[j.ID][m]+in.Sync[j.ID][m])
	}
	return best * float64(j.Rounds)
}

// Placement records the scheduler's decision for one task: the GPU m
// with y_{i,m}=1 and the planned start time x_i.
type Placement struct {
	GPU   int
	Start float64
}

// Schedule is a complete solution to an Instance: one placement per
// task. Per-GPU execution sequences (ordered by start time) are
// derived on demand; the executors consume only the sequences, so the
// planned start times are advisory for replay.
//
// A schedule is shaped by the instance it was made for: one dense slot
// per task in (job, round, index) order, so placing, looking up and
// enumerating a task is index arithmetic. A slot whose GPU is negative
// holds a task that is not placed.
type Schedule struct {
	jobs []jobSlots
	p    []Placement
}

// jobSlots locates one job's tasks in Schedule.p: round r's task k is
// at off + r·scale + k.
type jobSlots struct{ off, rounds, scale int }

// NewSchedule returns a schedule with no task placed, shaped by in's
// jobs (their count, Rounds and Scale).
func NewSchedule(in *Instance) *Schedule {
	s := &Schedule{jobs: make([]jobSlots, len(in.Jobs))}
	n := 0
	for i, j := range in.Jobs {
		s.jobs[i] = jobSlots{off: n, rounds: j.Rounds, scale: j.Scale}
		n += j.NumTasks()
	}
	s.p = make([]Placement, n)
	for i := range s.p {
		s.p[i].GPU = -1
	}
	return s
}

// slot returns t's index into s.p; false if t is outside the shape.
func (s *Schedule) slot(t TaskRef) (int, bool) {
	if t.Job < 0 || int(t.Job) >= len(s.jobs) {
		return 0, false
	}
	j := s.jobs[t.Job]
	if t.Round < 0 || t.Round >= j.rounds || t.Index < 0 || t.Index >= j.scale {
		return 0, false
	}
	return j.off + t.Round*j.scale + t.Index, true
}

// Place records the placement of a task, overwriting any previous
// placement of the same task; a negative gpu leaves it unplaced. It
// panics on a task outside the schedule's shape.
func (s *Schedule) Place(t TaskRef, gpu int, start float64) {
	i, ok := s.slot(t)
	if !ok {
		panic(fmt.Sprintf("core: Place(%v) outside the schedule's shape", t))
	}
	s.p[i] = Placement{GPU: gpu, Start: start}
}

// At returns the placement of a task; false if it is not placed or is
// outside the schedule's shape.
func (s *Schedule) At(t TaskRef) (Placement, bool) {
	i, ok := s.slot(t)
	if !ok || s.p[i].GPU < 0 {
		return Placement{}, false
	}
	return s.p[i], true
}

// Each calls f for every placed task in (job, round, index) order.
func (s *Schedule) Each(f func(TaskRef, Placement)) {
	for j, js := range s.jobs {
		i := js.off
		for r := 0; r < js.rounds; r++ {
			for k := 0; k < js.scale; k, i = k+1, i+1 {
				if p := s.p[i]; p.GPU >= 0 {
					f(TaskRef{Job: JobID(j), Round: r, Index: k}, p)
				}
			}
		}
	}
}

// Sequences returns, for each GPU, the tasks assigned to it ordered by
// planned start time (ties broken by task identity for determinism).
// Every placed GPU must be below numGPUs.
func (s *Schedule) Sequences(numGPUs int) [][]TaskRef {
	return s.SequencesInto(new(SeqBuffer), numGPUs)
}

// placedTask pairs a task with its planned start for bucket sorting.
type placedTask struct {
	t     TaskRef
	start float64
}

// SeqBuffer owns the reusable storage behind SequencesInto. A pooled
// simulator keeps one per Simulator; once the backing arrays have
// grown to the schedule's size, deriving sequences allocates nothing.
type SeqBuffer struct {
	pairs   []placedTask
	refs    []TaskRef
	counts  []int
	buckets [][]placedTask
	seqs    [][]TaskRef
}

// grow returns s with length n, reallocating only when it must.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// SequencesInto is Sequences with caller-owned storage: the returned
// outer slice and every per-GPU sequence alias buf's backing arrays
// and are valid until the next SequencesInto call on the same buffer.
func (s *Schedule) SequencesInto(buf *SeqBuffer, numGPUs int) [][]TaskRef {
	buf.counts = grow(buf.counts, numGPUs)
	clear(buf.counts)
	n := 0
	for _, p := range s.p {
		if p.GPU >= 0 {
			buf.counts[p.GPU]++
			n++
		}
	}
	buf.pairs = grow(buf.pairs, n)
	buf.buckets = grow(buf.buckets, numGPUs)
	off := 0
	for m := 0; m < numGPUs; m++ {
		buf.buckets[m] = buf.pairs[off : off : off+buf.counts[m]]
		off += buf.counts[m]
	}
	s.Each(func(t TaskRef, p Placement) {
		buf.buckets[p.GPU] = append(buf.buckets[p.GPU], placedTask{t: t, start: p.Start})
	})
	buf.seqs = grow(buf.seqs, numGPUs)
	buf.refs = grow(buf.refs, n)
	off = 0
	for m := 0; m < numGPUs; m++ {
		tasks := buf.buckets[m]
		// (start, task) keys are unique — tasks are placed once — so the
		// unstable sort is deterministic.
		slices.SortFunc(tasks, func(a, b placedTask) int {
			//lint:allow floateq exact comparison orders identical starts into the tie-break
			if a.start != b.start {
				if a.start < b.start {
					return -1
				}
				return 1
			}
			if a.t == b.t {
				return 0
			}
			if lessTask(a.t, b.t) {
				return -1
			}
			return 1
		})
		out := buf.refs[off : off+len(tasks) : off+len(tasks)]
		off += len(tasks)
		for i, p := range tasks {
			out[i] = p.t
		}
		buf.seqs[m] = out
	}
	return buf.seqs
}

func lessTask(a, b TaskRef) bool {
	if a.Job != b.Job {
		return a.Job < b.Job
	}
	if a.Round != b.Round {
		return a.Round < b.Round
	}
	return a.Index < b.Index
}

// end is a placed task's planned completion: start + train + sync.
func end(in *Instance, t TaskRef, p Placement) float64 {
	return p.Start + in.Train[t.Job][p.GPU] + in.Sync[t.Job][p.GPU]
}

// TaskEnd returns the planned completion (start + train + sync) of a
// placed task. The boolean is false if the task is not placed.
func (s *Schedule) TaskEnd(in *Instance, t TaskRef) (float64, bool) {
	p, ok := s.At(t)
	if !ok {
		return 0, false
	}
	return end(in, t, p), true
}

// JobCompletions returns C_n for each job: the maximum task completion
// time over all of its tasks. Jobs with unplaced tasks report NaN.
func (s *Schedule) JobCompletions(in *Instance) []float64 {
	out := make([]float64, len(in.Jobs))
	for _, j := range in.Jobs {
		var c float64
		complete := true
	scan:
		for r := 0; r < j.Rounds; r++ {
			for k := 0; k < j.Scale; k++ {
				end, ok := s.TaskEnd(in, TaskRef{Job: j.ID, Round: r, Index: k})
				if !ok {
					complete = false
					break scan
				}
				c = math.Max(c, end)
			}
		}
		if complete {
			out[j.ID] = c
		} else {
			out[j.ID] = math.NaN()
		}
	}
	return out
}

// WeightedJCT returns Σ w_n·C_n, the paper's objective, using planned
// times. It returns NaN if any job is incomplete.
func (s *Schedule) WeightedJCT(in *Instance) float64 {
	var total float64
	for j, c := range s.JobCompletions(in) {
		if math.IsNaN(c) {
			return math.NaN()
		}
		total += in.Jobs[j].Weight * c
	}
	return total
}

// Makespan returns the latest planned task completion time.
func (s *Schedule) Makespan(in *Instance) float64 {
	var m float64
	s.Each(func(t TaskRef, p Placement) { m = math.Max(m, end(in, t, p)) })
	return m
}

// timeEps is the tolerance used by ValidateSchedule when comparing
// floating-point times.
const timeEps = 1e-6

// ValidateSchedule checks a schedule against the paper's constraints:
//
//	(4) x_i ≥ a_n            — no task starts before its job arrives;
//	(5) Σ_m y_{i,m} = 1      — every task is placed on exactly one GPU;
//	(6)/(7) round barrier    — every round-(r+1) task starts at or
//	        after the completion (train + sync) of every round-r task;
//	(8) non-preemption       — tasks sharing a GPU do not overlap in
//	        their training intervals (sync overlaps the successor by
//	        design: communication is off the GPU's critical path).
//
// It returns nil for a feasible schedule and a descriptive error for
// the first violation found.
func ValidateSchedule(in *Instance, s *Schedule) error {
	_, err := s.ValidSequences(in, nil)
	return err
}

// ValidSequences validates the schedule against in, as ValidateSchedule
// does, and returns the per-GPU sequences it derived on the way (those
// of SequencesInto). A nil buf derives them into fresh storage.
func (s *Schedule) ValidSequences(in *Instance, buf *SeqBuffer) ([][]TaskRef, error) {
	// The placement-local checks come first: SequencesInto indexes
	// buckets by the placement's GPU and would panic on one that fails
	// the range check.
	if err := validatePlacements(in, s); err != nil {
		return nil, err
	}
	if buf == nil {
		buf = new(SeqBuffer)
	}
	seqs := s.SequencesInto(buf, in.NumGPUs)
	if err := validateOrder(in, s, seqs); err != nil {
		return nil, err
	}
	return seqs, nil
}

// validatePlacements checks the placement-local constraints: (5) every
// task placed exactly once on a real GPU, (4) no start before arrival.
func validatePlacements(in *Instance, s *Schedule) error {
	for _, j := range in.Jobs {
		for r := 0; r < j.Rounds; r++ {
			for k := 0; k < j.Scale; k++ {
				t := TaskRef{Job: j.ID, Round: r, Index: k}
				p, ok := s.At(t)
				if !ok {
					return fmt.Errorf("core: task %v is not placed (constraint 5)", t)
				}
				if p.GPU >= in.NumGPUs {
					return fmt.Errorf("core: task %v placed on invalid GPU %d", t, p.GPU)
				}
				if math.IsNaN(p.Start) || math.IsInf(p.Start, 0) {
					return fmt.Errorf("core: task %v has invalid start %g", t, p.Start)
				}
				// (4): arrival.
				if p.Start < j.Arrival-timeEps {
					return fmt.Errorf("core: task %v starts at %.6g before arrival %.6g (constraint 4)",
						t, p.Start, j.Arrival)
				}
			}
		}
	}
	// Every task of in has a slot, so any other slot is one for a task
	// in does not have: the schedule was made for another instance.
	if len(s.p) != in.NumTasks() {
		return fmt.Errorf("core: schedule has %d task slots for %d tasks", len(s.p), in.NumTasks())
	}
	return nil
}

// validateOrder checks the ordering constraints (7) and (8) against the
// schedule's per-GPU sequences. validatePlacements must have passed.
func validateOrder(in *Instance, s *Schedule, seqs [][]TaskRef) error {
	// (7): round barrier within each job.
	for _, j := range in.Jobs {
		prevEnd := 0.0
		for r := 0; r < j.Rounds; r++ {
			roundEnd := 0.0
			for k := 0; k < j.Scale; k++ {
				t := TaskRef{Job: j.ID, Round: r, Index: k}
				p, _ := s.At(t)
				if r > 0 && p.Start < prevEnd-timeEps {
					return fmt.Errorf("core: task %v starts at %.6g before round %d barrier %.6g (constraint 7)",
						t, p.Start, r-1, prevEnd)
				}
				roundEnd = math.Max(roundEnd, end(in, t, p))
			}
			prevEnd = roundEnd
		}
	}
	// (8): non-overlap of training intervals per GPU. The training
	// occupancy of a task is [start, start+T^c); sync is off-GPU.
	for m, seq := range seqs {
		var prevBusyEnd float64
		var prevTask TaskRef
		for i, t := range seq {
			p, _ := s.At(t)
			if i > 0 && p.Start < prevBusyEnd-timeEps {
				return fmt.Errorf("core: tasks %v and %v overlap on GPU %d (%.6g < %.6g, constraint 8)",
					prevTask, t, m, p.Start, prevBusyEnd)
			}
			prevBusyEnd = p.Start + in.Train[t.Job][m]
			prevTask = t
		}
	}
	return nil
}
