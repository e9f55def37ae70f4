// Package manager is the long-running cluster service of the paper's
// system diagram (Fig. 9): upper-layer applications submit DML jobs
// (job type, model, parallelism, weight); the manager profiles them
// against its fleet (reusing the profile database for re-submitted
// jobs), runs the scheduling algorithm over each accumulated batch,
// dispatches the resulting per-GPU task sequences to executors, and
// tracks every job from QUEUED through RUNNING to DONE.
//
// The manager is deliberately batch-oriented — Hare's algorithm is
// offline — but batches chain: jobs submitted while a batch executes
// form the next batch, and the fleet's availability carries over, so
// a deployment can run it as a continuously cycling service (see
// cmd/hared). Execution is pluggable: the in-process testbed by
// default, or the pure simulator for capacity planning.
//
// Clock contract. The Manager keeps one cumulative clock, the
// fleet-busy-until watermark: a batch cut at watermark base cannot
// start before base, and its makespan becomes the next watermark.
// Every batch nevertheless *executes* on its own clock starting at 0 —
// the wall-clock backends restart theirs per batch, so a cumulative
// arrival would make batch k sleep through the makespans of batches
// 0..k-1. The instance handed to the Algorithm and the Backend is
// therefore on the batch's clock, and a batch's jobs all arrive at its
// start, 0: a job is submitted at some watermark and the watermark only
// grows, so the fleet's availability, never the submission time, holds
// a batch back. base is added back to everything the Manager publishes:
// JobStatus.Completion, BatchResult.Makespan and WeightedJCT, the
// hare_manager_horizon_seconds gauge and job.complete event times.
// What a backend produces stays batch-local: BatchResult.Trace, the
// backend's events, GPUStats and the Attribution replay — and fault-plan
// times (SimBackend.Faults and friends) address the batch's clock on
// every batch, as they always did on the first.
package manager

import (
	"fmt"
	"sort"
	"sync"

	"hare/internal/cluster"
	"hare/internal/core"
	"hare/internal/faults"
	"hare/internal/model"
	"hare/internal/obs"
	"hare/internal/obs/critpath"
	"hare/internal/obs/perf"
	"hare/internal/profile"
	"hare/internal/sched"
	"hare/internal/sim"
	"hare/internal/switching"
	"hare/internal/testbed"
	"hare/internal/trace"
)

// JobState tracks a submitted job through its lifetime.
type JobState string

// The lifecycle states.
const (
	StateQueued  JobState = "QUEUED"
	StateRunning JobState = "RUNNING"
	StateDone    JobState = "DONE"
	StateFailed  JobState = "FAILED"
)

// JobRequest is a submission from an upper-layer application.
type JobRequest struct {
	// Model names a Table 2 model.
	Model string
	// Rounds is the number of synchronized training rounds.
	Rounds int
	// Scale is the per-round parallelism |D_r|.
	Scale int
	// Weight is the job's priority weight (1 if ≤ 0).
	Weight float64
	// BatchScale multiplies the model's default batch size (1 if ≤ 0).
	BatchScale float64
	// Tag is an optional caller label echoed in status.
	Tag string
}

// validate normalizes and checks a request against the fleet.
func (r *JobRequest) validate(fleetSize int) error {
	if _, err := model.ByName(r.Model); err != nil {
		return err
	}
	if r.Rounds <= 0 {
		return fmt.Errorf("manager: job needs a positive round count, got %d", r.Rounds)
	}
	if r.Scale <= 0 || r.Scale > fleetSize {
		return fmt.Errorf("manager: scale %d outside [1, %d]", r.Scale, fleetSize)
	}
	if r.Weight <= 0 {
		r.Weight = 1
	}
	if r.BatchScale <= 0 {
		r.BatchScale = 1
	}
	return nil
}

// JobStatus is the externally visible state of one submission.
type JobStatus struct {
	ID    int
	Tag   string
	Model string
	State JobState
	// SubmittedAt is the manager-clock submission time (seconds).
	SubmittedAt float64
	// Completion is the realized completion time on the manager clock
	// (valid when DONE).
	Completion float64
	// Error is set when FAILED.
	Error string
}

// Backend executes a planned batch.
type Backend interface {
	// Execute runs the schedule and returns per-job completions and
	// the execution trace, both on the instance's (batch-local) clock.
	Execute(in *core.Instance, plan *core.Schedule, cl *cluster.Cluster, models []*model.Model) ([]float64, *trace.Trace, error)
}

// Every backend executes plans under Hare's fast task switching with
// the speculative memory manager, and so does the attribution replay
// that explains a batch afterwards. The pair lives here, once, so
// `harectl critpath` cannot attribute a batch under a different scheme
// than the one that ran it.
const (
	execScheme      = switching.Hare
	execSpeculative = true
)

// TestbedBackend executes batches on the in-process testbed.
type TestbedBackend struct {
	// TimeScale is the testbed clock scale; 0 runs every batch on the
	// virtual clock (testbed.Options.TimeScale).
	TimeScale float64
	// Faults injects transient failures and stragglers into every
	// batch (all the in-process testbed replays; see
	// faults.Plan.CheckEngine).
	Faults *faults.Plan
	// Recorder receives execution-path events; nil disables them.
	Recorder *obs.Recorder
}

// Execute implements Backend.
func (b *TestbedBackend) Execute(in *core.Instance, plan *core.Schedule, cl *cluster.Cluster, models []*model.Model) ([]float64, *trace.Trace, error) {
	res, err := testbed.Run(in, plan, cl, models, testbed.Options{
		TimeScale: b.TimeScale, Scheme: execScheme, Speculative: execSpeculative,
		Faults:   b.Faults,
		Recorder: b.Recorder,
	})
	if err != nil {
		return nil, nil, err
	}
	return res.JobCompletion, res.Trace, nil
}

// SimBackend executes batches on the discrete-event simulator
// (instant; used for capacity planning and tests).
type SimBackend struct {
	// Faults injects the same deterministic fault plan into every
	// batch; permanent GPU failures trigger an in-batch re-plan.
	Faults *faults.Plan
	// Recorder receives execution-path events; nil disables them.
	Recorder *obs.Recorder
	// Metrics receives the simulator's counters; nil disables them.
	Metrics *obs.Registry
}

// Execute implements Backend.
func (b *SimBackend) Execute(in *core.Instance, plan *core.Schedule, cl *cluster.Cluster, models []*model.Model) ([]float64, *trace.Trace, error) {
	res, err := sim.Run(in, plan, cl, models, sim.Options{
		Scheme: execScheme, Speculative: execSpeculative,
		Faults:   b.Faults,
		Recorder: b.Recorder, Metrics: b.Metrics,
	})
	if err != nil {
		return nil, nil, err
	}
	return res.JobCompletion, res.Trace, nil
}

// Options configures a Manager.
type Options struct {
	// Algorithm plans each batch (Hare by default).
	Algorithm sched.Algorithm
	// Backend executes plans (the simulator by default).
	Backend Backend
	// BatchesPerTask sets the profiler's task granularity.
	BatchesPerTask int
	// Recorder receives job-complete events; nil disables them.
	// Backends carry their own Recorder for the execution path.
	Recorder *obs.Recorder
	// Metrics receives each batch's phase timings
	// (hare_perf_phase_seconds); nil disables them.
	Metrics *obs.Registry
}

// GPUStat aggregates one GPU's activity over the last executed batch,
// from the backend's measured trace records.
type GPUStat struct {
	// GPU is the fleet index.
	GPU int
	// Busy is training seconds (productive GPU time).
	Busy float64
	// Overhead is non-training seconds: task switching plus gradient
	// synchronization.
	Overhead float64
	// Tasks is the number of tasks the GPU ran.
	Tasks int
}

// Manager is the central scheduler service.
type Manager struct {
	cl   *cluster.Cluster
	prof *profile.Profiler
	algo sched.Algorithm
	back Backend
	rec  *obs.Recorder
	// phases times each batch's plan-solve / backend-execute /
	// attribution spans into Options.Metrics (nil-safe no-op).
	phases *perf.PhaseRecorder

	mu      sync.Mutex
	nextID  int
	pending []pendingJob
	status  map[int]*JobStatus
	// horizon is the fleet-busy-until watermark carried across
	// batches: a new batch cannot start before the previous one's
	// makespan.
	horizon float64
	batches int
	// gpuStats holds per-GPU aggregates from the last executed batch.
	gpuStats []GPUStat
	// lastAttrib is the canonical critical-path attribution of the
	// last executed batch (a span-instrumented simulator replay of
	// the batch's plan — identical no matter which backend ran it);
	// attribIdx maps submission IDs to that batch's job indices.
	lastAttrib *critpath.Report
	attribIdx  map[int]int
}

type pendingJob struct {
	id  int
	req JobRequest
}

// New builds a manager for a fleet.
func New(cl *cluster.Cluster, opts Options) *Manager {
	if opts.Algorithm == nil {
		opts.Algorithm = sched.NewHare()
	}
	if opts.Backend == nil {
		opts.Backend = &SimBackend{}
	}
	if opts.Recorder.Enabled() {
		if ra, ok := opts.Algorithm.(interface{ SetRecorder(*obs.Recorder) }); ok {
			ra.SetRecorder(opts.Recorder)
		}
	}
	m := &Manager{
		cl:     cl,
		prof:   profile.New(profile.Options{BatchesPerTask: opts.BatchesPerTask}),
		algo:   opts.Algorithm,
		back:   opts.Backend,
		status: make(map[int]*JobStatus),
		rec:    opts.Recorder,
		phases: perf.NewPhaseRecorder(opts.Metrics),
	}
	return m
}

// Submit queues a job and returns its ID.
func (m *Manager) Submit(req JobRequest) (int, error) {
	if err := (&req).validate(m.cl.Size()); err != nil {
		return 0, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	id := m.nextID
	m.nextID++
	m.pending = append(m.pending, pendingJob{id: id, req: req})
	m.status[id] = &JobStatus{
		ID: id, Tag: req.Tag, Model: req.Model,
		State: StateQueued, SubmittedAt: m.horizon,
	}
	return id, nil
}

// Status returns a job's current state.
func (m *Manager) Status(id int) (JobStatus, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.status[id]
	if !ok {
		return JobStatus{}, fmt.Errorf("manager: unknown job %d", id)
	}
	return *st, nil
}

// Statuses returns every known job, ordered by ID.
func (m *Manager) Statuses() []JobStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]JobStatus, 0, len(m.status))
	for _, st := range m.status {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// BatchResult summarizes one executed batch. WeightedJCT and Makespan
// are on the Manager's cumulative clock, Trace on the batch's own (see
// the package comment).
type BatchResult struct {
	Batch       int
	Jobs        int
	WeightedJCT float64
	Makespan    float64
	Trace       *trace.Trace
}

// ExecuteBatch profiles, schedules and executes every pending job as
// one batch. Jobs submitted during execution join the next batch. It
// returns an error (and marks the batch's jobs FAILED) if planning or
// execution fails; a nil result with nil error means nothing was
// pending.
func (m *Manager) ExecuteBatch() (*BatchResult, error) {
	m.mu.Lock()
	batch := m.pending
	m.pending = nil
	base := m.horizon
	batchNo := m.batches
	m.batches++
	for _, pj := range batch {
		m.status[pj.id].State = StateRunning
	}
	m.mu.Unlock()
	if len(batch) == 0 {
		return nil, nil
	}

	fail := func(err error) (*BatchResult, error) {
		m.mu.Lock()
		for _, pj := range batch {
			m.status[pj.id].State = StateFailed
			m.status[pj.id].Error = err.Error()
		}
		m.mu.Unlock()
		return nil, err
	}

	// Build the batch instance on the batch's own clock (see the
	// package comment): every job arrives at its start.
	jobs := make([]*core.Job, len(batch))
	specs := make([]profile.JobSpec, len(batch))
	models := make([]*model.Model, len(batch))
	for i, pj := range batch {
		jobs[i] = &core.Job{
			ID:      core.JobID(i),
			Name:    fmt.Sprintf("job-%d(%s)", pj.id, pj.req.Model),
			Model:   pj.req.Model,
			Weight:  pj.req.Weight,
			Arrival: 0,
			Rounds:  pj.req.Rounds,
			Scale:   pj.req.Scale,
		}
		specs[i] = managerSpec{req: pj.req}
		models[i] = model.MustByName(pj.req.Model)
	}
	in, err := m.prof.BuildInstance(jobs, specs, m.cl)
	if err != nil {
		return fail(fmt.Errorf("manager: profile batch: %w", err))
	}
	stopPlan := m.phases.Start("plan_solve")
	plan, err := m.algo.Schedule(in)
	if err != nil {
		stopPlan()
		return fail(fmt.Errorf("manager: schedule batch: %w", err))
	}
	if err := core.ValidateSchedule(in, plan); err != nil {
		stopPlan()
		return fail(fmt.Errorf("manager: plan infeasible: %w", err))
	}
	stopPlan()
	stopExec := m.phases.Start("backend_execute")
	completions, tr, err := m.back.Execute(in, plan, m.cl, models)
	stopExec()
	if err != nil {
		return fail(fmt.Errorf("manager: execute batch: %w", err))
	}

	res := &BatchResult{Batch: batchNo, Jobs: len(batch), Trace: tr}
	stats := gpuStatsFromTrace(tr, m.cl.Size())

	// Canonical attribution of the batch: replay the plan on the
	// simulator with span instrumentation and fold the event stream
	// into a critical-path report. Deliberately independent of the
	// backend that executed the batch, so harectl critpath reads the
	// same numbers whether the batch ran on the testbed or the
	// simulator. Failure here never fails the batch.
	stopAttrib := m.phases.Start("plan_attribution")
	_, attrib, attribErr := critpath.PlanAttribution(in, plan, m.cl, models, sim.Options{
		Scheme: execScheme, Speculative: execSpeculative,
	})
	stopAttrib()
	if attribErr != nil {
		attrib = nil
	}
	idx := make(map[int]int, len(batch))
	for i, pj := range batch {
		idx[pj.id] = i
	}

	// Back onto the Manager's clock: everything published from here on
	// is the backend's batch-local completion plus the batch's base.
	done := make([]float64, len(batch))
	for i := range batch {
		done[i] = base + completions[i]
	}
	m.mu.Lock()
	for i, pj := range batch {
		st := m.status[pj.id]
		st.State = StateDone
		st.Completion = done[i]
		res.WeightedJCT += jobs[i].Weight * done[i]
		res.Makespan = max(res.Makespan, done[i])
	}
	m.horizon = max(m.horizon, res.Makespan)
	m.gpuStats = stats
	m.lastAttrib = attrib
	m.attribIdx = idx
	m.mu.Unlock()
	if m.rec.Enabled() {
		for i, pj := range batch {
			m.rec.Emit(obs.Event{
				Type: obs.EvJobComplete, Time: done[i], GPU: -1,
				Job: pj.id, Round: batchNo, Note: pj.req.Model,
			})
		}
	}
	return res, nil
}

// gpuStatsFromTrace folds measured task records into per-GPU busy
// (training) and overhead (switch + sync) seconds.
func gpuStatsFromTrace(tr *trace.Trace, numGPUs int) []GPUStat {
	stats := make([]GPUStat, numGPUs)
	for g := range stats {
		stats[g].GPU = g
	}
	if tr == nil {
		return stats
	}
	for _, r := range tr.Records {
		if r.GPU < 0 || r.GPU >= numGPUs {
			continue
		}
		s := &stats[r.GPU]
		s.Busy += r.Train
		s.Overhead += r.Switch + r.Sync
		s.Tasks++
	}
	return stats
}

// GPUStats returns per-GPU aggregates from the last executed batch
// (empty before any batch ran).
func (m *Manager) GPUStats() []GPUStat {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]GPUStat, len(m.gpuStats))
	copy(out, m.gpuStats)
	return out
}

// JobAttribution renders one submitted job's critical-path breakdown
// from the batch it last ran in: bucket totals, fractions of its
// completion, and the per-round straggler chain.
func (m *Manager) JobAttribution(id int) (string, error) {
	m.mu.Lock()
	rep := m.lastAttrib
	idx, ok := m.attribIdx[id]
	m.mu.Unlock()
	if rep == nil {
		return "", fmt.Errorf("manager: no attribution recorded yet")
	}
	if !ok {
		return "", fmt.Errorf("manager: job %d was not in the last executed batch", id)
	}
	return rep.FormatJob(idx)
}

// ProfilerStats exposes the profile database's reuse counters.
func (m *Manager) ProfilerStats() profile.Stats { return m.prof.Stats() }

// managerSpec adapts a JobRequest to profile.JobSpec.
type managerSpec struct{ req JobRequest }

func (s managerSpec) ModelName() string   { return s.req.Model }
func (s managerSpec) BatchScale() float64 { return s.req.BatchScale }
func (s managerSpec) SyncScale() int      { return s.req.Scale }
