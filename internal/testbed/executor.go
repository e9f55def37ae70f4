package testbed

import (
	"fmt"

	"hare/internal/cluster"
	"hare/internal/core"
	"hare/internal/gpumem"
	"hare/internal/model"
	"hare/internal/obs"
	"hare/internal/stats"
	"hare/internal/switching"
)

// PushReport carries one completed training attempt to the control
// plane: the gradient plus the realized timings the coordinator needs
// to build the task's trace record on its side. Keeping the record
// fields with the push (rather than only in an end-of-run report)
// means the coordinator retains every completed task's measurements
// even when the executor later crashes.
type PushReport struct {
	Task core.TaskRef
	GPU  int
	// Start is the realized training start (after any switch stall);
	// TrainEnd the realized training completion. Both in simulated
	// seconds.
	Start    float64
	TrainEnd float64
	// Switch is the switching stall paid before Start; Hit marks a
	// speculative-residency hit on that switch.
	Switch float64
	Hit    bool
	// Retries counts training attempts of this task lost to injected
	// transient faults.
	Retries int
	Grad    []float64
}

// SyncClient is the executor's view of the control plane, two calls per
// task. Begin returns what the task needs before it can train: the
// realized end of its job's previous round (0 for a round-0 task; the
// executor sleeps to it on the shared clock) and the job's parameters.
// Both hold until this task's Push — its round cannot complete without
// it — so the executor asks once and reuses them across fault retries.
// Push delivers the gradient and returns the task's completion. The
// in-process engine answers both from its State under one lock (plane);
// rpcnet answers Begin from the dispatch that carried the task and
// sends Push over its own request/reply wire, mirroring the paper's
// gRPC-based scheduler⇄executor channel. Either way the push is State.Apply, which
// also records the task's measured timings.
type SyncClient interface {
	Begin(t core.TaskRef) (roundEnd float64, params []float64, err error)
	Push(rep PushReport) (float64, error)
}

// Executor replays one GPU's task sequence: it respects arrival times
// and round barriers, pays the configured switching cost between jobs
// (consulting its speculative memory manager under the Hare scheme),
// takes the job's parameters, computes a real gradient, paces itself
// to the profiled task time on its GPU type, and pushes the gradient
// to the job's parameter server.
type Executor struct {
	GPU     int
	GPUType cluster.GPUType

	in     *core.Instance
	models []*model.Model
	scheme switching.Scheme
	mem    *gpumem.Manager // nil unless speculative memory is on
	clock  interface{ SleepUntil(t float64) float64 }
	sync   SyncClient
	probs  []*Problem
	// faults injects task failures: each training attempt fails with
	// probability faultRate and is retried from the last checkpoint.
	// faultRNG is nil when faultRate is 0.
	faultRate float64
	faultRNG  *stats.RNG
	// slow is the straggler factor: training attempts take slow times
	// their profiled duration (1 = healthy).
	slow float64
	// rec receives structured events from this executor's goroutine;
	// nil keeps the loop silent.
	rec *obs.Recorder

	// freeAt and prevJob carry the GPU's occupancy state across tasks,
	// so RunTask can execute tasks one at a time (the pull-based
	// distributed mode) with the same semantics as a sequence replay.
	freeAt  float64
	prevJob core.JobID
}

// Run executes a task sequence to completion, in its order: the
// in-process engine walks each GPU's planned sequence, so its per-GPU
// order is the plan's — the order the simulator replays — whatever the
// timing.
func (e *Executor) Run(seq []core.TaskRef) error {
	for _, t := range seq {
		if err := e.RunTask(t); err != nil {
			return err
		}
	}
	return nil
}

// RunTask executes one task against the control plane: learn the round
// barrier and the parameters (Begin), sleep to the barrier or through the
// switching stall, compute the gradient (again from the same parameters
// on injected faults), and push the gradient with the measured timings.
// The distributed pull loop calls it directly with tasks handed out by
// the coordinator; Run calls it per sequence entry.
func (e *Executor) RunTask(t core.TaskRef) error {
	// Round barrier (relaxed scale-fixed synchronization): only
	// the *previous* round must be complete; same-round siblings
	// may still be running elsewhere.
	roundEnd, params, err := e.sync.Begin(t)
	if err != nil {
		return fmt.Errorf("executor %d: %w", e.GPU, err)
	}
	barrier := max(e.in.Jobs[t.Job].Arrival, roundEnd)
	// Switching overhead between jobs.
	var bd switching.Breakdown
	if e.prevJob != t.Job {
		var prev *model.Model
		if e.prevJob >= 0 {
			prev = e.models[e.prevJob]
		}
		resident := e.mem != nil && e.mem.Resident(gpumem.JobKey(t.Job))
		bd = switching.Cost(e.scheme, e.GPUType, prev, e.models[t.Job], resident)
	}
	sw, hit := bd.Total(), bd.ResidentHit
	start := e.clock.SleepUntil(max(barrier, e.freeAt+sw))

	run := obs.TaskRun{
		GPU: e.GPU, Job: int(t.Job), Round: t.Round, Index: t.Index,
		PrevJob: int(e.prevJob), PrevFree: e.freeAt, Start: start,
		Switch: sw, Clean: bd.Clean, Context: bd.Context, Init: bd.Init,
		Transfer: bd.Transfer, Hit: hit, Model: e.in.Jobs[t.Job].Model,
	}
	e.rec.BeginTask(run)
	if e.mem != nil {
		e.mem.BeginAt(gpumem.JobKey(t.Job), e.models[t.Job].TrainFootprintBytes, start)
	}
	// Real work: compute the gradient, again from the same checkpoint
	// when a fault eats the attempt.
	var grad []float64
	retries := 0
	train := e.in.Train[t.Job][e.GPU] * e.slow
	trainEnd := start
	for {
		grad = e.probs[t.Job].Gradient(params, t.Round, t.Index)
		trainEnd = e.clock.SleepUntil(trainEnd + train)
		if e.faultRate <= 0 || e.faultRNG.Float64() >= e.faultRate {
			break
		}
		retries++ // attempt lost; its GPU time is gone
	}
	if e.mem != nil {
		e.mem.Complete(gpumem.JobKey(t.Job), e.models[t.Job].ParamBytes, trainEnd)
	}
	completion, err := e.sync.Push(PushReport{
		Task: t, GPU: e.GPU, Start: start, TrainEnd: trainEnd,
		Switch: sw, Hit: hit, Retries: retries, Grad: grad,
	})
	if err != nil {
		return fmt.Errorf("executor %d: %w", e.GPU, err)
	}
	run.Train, run.Sync, run.End, run.Retries = trainEnd-start, completion-trainEnd, completion, retries
	e.rec.EndTask(run)
	e.freeAt = trainEnd
	e.prevJob = t.Job
	return nil
}
