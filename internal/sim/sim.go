// Package sim is the trace-driven discrete-event simulator (paper
// §7.1): it replays a scheduler's per-GPU task sequences on a modeled
// cluster, realizing the profiled task times as given (Fig. 11 shows
// them stable across rounds), enforcing the relaxed scale-fixed round
// barriers, and charging task-switching overhead according to the
// selected scheme — including Hare's speculative memory residency.
//
// The executor semantics match the paper's: each GPU consumes its
// received task sequence in order; a task starts once the GPU is free
// (plus any switching stall), its job has arrived, and every task of
// the previous round has completed (training + synchronization).
// Planned start times in the schedule are advisory only.
//
// Three execution paths share one replay core:
//
//   - Run, the default entry point, replays on a pooled Simulator —
//     all run state (executor lanes, barrier tables, candidate heap,
//     switching memo, fault scratch) is reused across runs, so a
//     steady-state replay allocates close to nothing beyond its
//     returned Result. With Options.Parallel it additionally shards
//     independent GPU/job components across goroutines and merges
//     their traces deterministically (see sharded.go).
//   - Simulator.Run exposes the pooled engine directly for callers
//     that replay in a tight loop and can treat the Result as
//     borrowed until the next Run.
//   - RunReference keeps the original O(tasks·GPUs) full-rescan loop
//     as an executable specification; TestRunMatchesReference pins
//     all paths to byte-identical results. See docs/PERFORMANCE.md.
package sim

import (
	"fmt"
	"math"
	"sync"

	"hare/internal/cluster"
	"hare/internal/core"
	"hare/internal/faults"
	"hare/internal/gpumem"
	"hare/internal/model"
	"hare/internal/obs"
	"hare/internal/sched"
	"hare/internal/stats"
	"hare/internal/switching"
	"hare/internal/trace"
)

// Options configures one simulation run.
type Options struct {
	// Scheme selects the task-switching cost model. Ignored when the
	// run has no cluster/model information, which is how a pure plan
	// replay charges no switching overhead.
	Scheme switching.Scheme
	// Speculative enables Hare's speculative memory manager; only
	// meaningful with Scheme == switching.Hare.
	Speculative bool
	// MemPolicy selects the speculative manager's eviction policy
	// (the paper's KeepLatest heuristic by default).
	MemPolicy gpumem.Policy
	// UtilBins, when > 0, records a per-GPU utilization time series
	// with this many bins over the makespan.
	UtilBins int
	// Faults is the failure plan to replay (see internal/faults): a
	// transient per-attempt fault rate (each lost attempt re-runs from
	// the round checkpoint, charging its full training time),
	// per-GPU straggler factors, and permanent GPU failures. The
	// transient streams are per-GPU and positional, so a given
	// (rate, seed) loses the same attempts here, on the in-process
	// testbed, and on the distributed control plane.
	Faults *faults.Plan
	// Replanner re-runs the scheduling algorithm on the residual
	// instance (remaining tasks × surviving GPUs) after a permanent
	// GPU failure. Defaults to Algorithm 1 (sched.NewHare()). Only
	// consulted when Faults contains fail=/crash= entries.
	Replanner sched.Algorithm
	// Parallel, when > 1 (or < 0, meaning GOMAXPROCS), lets Run
	// partition the replay into independent GPU/job components and
	// replay them concurrently. The merged result is byte-identical
	// to a serial run; schedules that do not decompose, or option
	// sets whose accounting is order-global (faults, utilization
	// series, recorders/metrics), silently fall back to the serial
	// engine. 0 and 1 mean serial.
	Parallel int
	// Recorder receives structured events (task start/finish, barrier
	// waits, inter-job switches with stall breakdown, gpumem traffic).
	// nil — the default — keeps the replay loop uninstrumented; see
	// BenchmarkObsDisabled for the zero-overhead guarantee.
	Recorder *obs.Recorder
	// Metrics, when set, accumulates the ready heap's operation counts
	// (hare_sim_heap_{inserts,pops}_total). A run's own totals are
	// Result's fields.
	Metrics *obs.Registry
}

// Result summarizes one simulation run.
type Result struct {
	Trace         *trace.Trace
	JobCompletion []float64 // realized C_n per job
	WeightedJCT   float64   // Σ w_n·C_n
	Makespan      float64
	// TotalSwitch is the summed switching stall, SwitchCount the
	// number of inter-job switches.
	TotalSwitch float64
	SwitchCount int
	// ResidencyHits counts switches skipped by speculative memory.
	ResidencyHits int
	// BusySeconds is per-GPU training time; OverheadSeconds is
	// per-GPU switching time.
	BusySeconds     []float64
	OverheadSeconds []float64
	// Utilization is BusySeconds / Makespan per GPU.
	Utilization []float64
	// UtilSeries, when requested, is [gpu][bin] busy fraction.
	UtilSeries [][]float64
	// Retries counts training attempts lost to injected transient
	// faults; LostSeconds is the GPU time those attempts burned.
	Retries     int
	LostSeconds float64
	// GPUFailures counts permanent failures applied; FailedGPUs lists
	// the dead GPUs; Reschedules the recovery re-plans; TasksMigrated
	// the stranded tasks moved to survivors.
	GPUFailures   int
	FailedGPUs    []int
	Reschedules   int
	TasksMigrated int
}

// MeanUtilization averages Utilization across GPUs.
func (r *Result) MeanUtilization() float64 { return stats.Mean(r.Utilization) }

// Clone deep-copies a Result, detaching it from any pooled Simulator
// that owns the original's storage. Nil-ness of the optional slices
// (UtilSeries, FailedGPUs) is preserved so a cloned result stays
// deep-equal to a freshly built one.
func (r *Result) Clone() *Result {
	out := *r
	if r.Trace != nil {
		out.Trace = &trace.Trace{Records: append([]trace.TaskRecord(nil), r.Trace.Records...)}
	}
	out.JobCompletion = append([]float64(nil), r.JobCompletion...)
	out.BusySeconds = append([]float64(nil), r.BusySeconds...)
	out.OverheadSeconds = append([]float64(nil), r.OverheadSeconds...)
	out.Utilization = append([]float64(nil), r.Utilization...)
	if r.UtilSeries != nil {
		out.UtilSeries = make([][]float64, len(r.UtilSeries))
		for i, s := range r.UtilSeries {
			out.UtilSeries[i] = append([]float64(nil), s...)
		}
	}
	if r.FailedGPUs != nil {
		out.FailedGPUs = append([]int(nil), r.FailedGPUs...)
	}
	return &out
}

type gpuState struct {
	seq     []core.TaskRef
	next    int
	free    float64    // when the GPU finishes its current training
	prevJob core.JobID // job of the last task run (-1 initially)
	mem     *gpumem.Manager
	busy    []interval // training intervals, for utilization
	over    []interval // switching intervals
}

type interval struct{ from, to float64 }

// roundWaker receives the round-completion hook: roundDone fires after
// the last task of (job, round) completes — the instant the round's
// barrier value becomes final. The incremental engine implements it to
// wake GPUs whose head task was blocked on that round. An interface
// (rather than a closure) keeps the pooled hookup allocation-free.
type roundWaker interface {
	roundDone(job core.JobID, round int)
}

// replay is the state shared by every replay engine: the validated
// inputs, per-GPU executor state, round-barrier bookkeeping, and the
// accumulating Result. Selection strategy is the only thing the
// engines disagree on; execution accounting (exec) is common, so the
// realized times, events, and counters cannot drift apart.
//
// All state is held in capacity-reusing slices and reset by init, so
// a pooled owner replays schedule after schedule without reallocating;
// newReplay builds the same state on a fresh value for the one-shot
// reference engine.
type replay struct {
	in            *core.Instance
	cl            *cluster.Cluster
	models        []*model.Model
	opts          Options
	withSwitching bool

	rec      *obs.Recorder
	observed bool

	// Transient-fault state: per-GPU positional streams (so dispatch
	// order can't change how many attempts a GPU loses) and straggler
	// factors. faultRate == 0 leaves the replay byte-identical to a
	// fault-free run — no stream is ever consulted.
	faultRate float64
	faultRNG  []*stats.RNG
	slows     []float64

	gpus []gpuState
	// mems backs the per-GPU speculative memory managers by value;
	// gpus[m].mem points into it when speculation is on.
	mems []gpumem.Manager
	// lookBuf is the scratch lookahead order handed to SetLookahead
	// (which copies what it needs).
	lookBuf []gpumem.JobKey

	// Barrier bookkeeping, flattened: job j's rounds occupy
	// [roundOff[j], roundOff[j+1]) in remaining and roundEnd. One
	// backing array instead of two slices per job keeps million-job
	// setups O(1) allocations.
	roundOff  []int
	remaining []int
	roundEnd  []float64

	res      Result
	traceOwn trace.Trace
	pending  int

	// waker, when set, is the round-completion hook (see roundWaker).
	waker roundWaker
}

// growZero returns s with length n and every element zeroed, reusing
// capacity when possible.
func growZero[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// growCap returns s emptied with capacity at least n.
func growCap[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, 0, n)
	}
	return s[:0]
}

// init validates the inputs and (re)builds the full replay state in
// place, reusing any storage a previous run left behind. seqBuf, when
// non-nil, receives the derived per-GPU sequences (the pooled path);
// a nil seqBuf derives them with fresh storage. Both engines and the
// pool construct state through this one path, so they cannot drift.
func (r *replay) init(in *core.Instance, sch *core.Schedule, cl *cluster.Cluster, models []*model.Model, opts Options, seqBuf *core.SeqBuffer) error {
	if err := in.Validate(); err != nil {
		return err
	}
	seqs, err := sch.ValidSequences(in, seqBuf)
	if err != nil {
		return fmt.Errorf("sim: invalid plan: %w", err)
	}
	if cl != nil && cl.Size() != in.NumGPUs {
		return fmt.Errorf("sim: cluster has %d GPUs, instance %d", cl.Size(), in.NumGPUs)
	}
	if models != nil && len(models) != len(in.Jobs) {
		return fmt.Errorf("sim: %d models for %d jobs", len(models), len(in.Jobs))
	}
	if err := opts.Faults.Validate(in.NumGPUs); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if err := opts.Faults.CheckEngine(faults.Simulator); err != nil {
		return err
	}

	r.in, r.cl, r.models, r.opts = in, cl, models, opts
	r.withSwitching = cl != nil && models != nil
	r.rec = opts.Recorder
	r.observed = opts.Recorder.Enabled()
	r.pending = in.NumTasks()
	r.waker = nil

	r.faultRate = opts.Faults.TransientRate()
	if r.faultRate > 0 {
		if cap(r.faultRNG) < in.NumGPUs {
			r.faultRNG = append(r.faultRNG[:cap(r.faultRNG)], make([]*stats.RNG, in.NumGPUs-cap(r.faultRNG))...)
		}
		r.faultRNG = r.faultRNG[:in.NumGPUs]
		for m := range r.faultRNG {
			seed := faults.RetrySeed(opts.Faults.TransientSeed(), m)
			if r.faultRNG[m] == nil {
				r.faultRNG[m] = stats.New(seed)
			} else {
				r.faultRNG[m].Reseed(seed)
			}
		}
	} else {
		r.faultRNG = r.faultRNG[:0]
	}
	r.slows = nil
	if opts.Faults != nil && len(opts.Faults.Stragglers) > 0 {
		r.slows = growZero(r.slows, in.NumGPUs)
		for m := range r.slows {
			r.slows[m] = opts.Faults.SlowdownOf(m)
		}
	}

	if cap(r.gpus) < in.NumGPUs {
		r.gpus = make([]gpuState, in.NumGPUs)
	} else {
		r.gpus = r.gpus[:in.NumGPUs]
	}
	speculate := r.withSwitching && opts.Speculative
	if speculate {
		if cap(r.mems) < in.NumGPUs {
			r.mems = make([]gpumem.Manager, in.NumGPUs)
		} else {
			r.mems = r.mems[:in.NumGPUs]
		}
	}
	for m := range r.gpus {
		g := &r.gpus[m]
		seq := seqs[m]
		g.seq, g.next, g.free, g.prevJob = seq, 0, 0, -1
		// Pre-size the interval lanes: a sequence of k tasks appends at
		// most k busy and k switch intervals.
		g.busy = growCap(g.busy, len(seq))
		g.over = growCap(g.over, len(seq))
		g.mem = nil
		if speculate {
			mem := &r.mems[m]
			mem.Reset(cl.GPUs[m].Type.MemBytes)
			mem.SetPolicy(opts.MemPolicy)
			mem.SetRecorder(opts.Recorder, m)
			r.lookBuf = growCap(r.lookBuf, len(seq))
			for _, t := range seq {
				r.lookBuf = append(r.lookBuf, gpumem.JobKey(t.Job))
			}
			mem.SetLookahead(r.lookBuf)
			g.mem = mem
		}
	}

	totalRounds := 0
	r.roundOff = growCap(r.roundOff, len(in.Jobs)+1)
	for _, j := range in.Jobs {
		r.roundOff = append(r.roundOff, totalRounds)
		totalRounds += j.Rounds
	}
	r.roundOff = append(r.roundOff, totalRounds)
	r.remaining = growZero(r.remaining, totalRounds)
	r.roundEnd = growZero(r.roundEnd, totalRounds)
	for _, j := range in.Jobs {
		off := r.roundOff[j.ID]
		for rd := 0; rd < j.Rounds; rd++ {
			r.remaining[off+rd] = j.Scale
		}
	}

	// The Result reuses its per-job/per-GPU slices; the optional
	// UtilSeries and FailedGPUs start nil (not empty) so results match
	// a freshly allocated run's deep-equality shape.
	jc := growZero(r.res.JobCompletion, len(in.Jobs))
	busy := growZero(r.res.BusySeconds, in.NumGPUs)
	over := growZero(r.res.OverheadSeconds, in.NumGPUs)
	util := growZero(r.res.Utilization, in.NumGPUs)
	r.traceOwn.Records = growCap(r.traceOwn.Records, in.NumTasks())
	r.res = Result{
		Trace:           &r.traceOwn,
		JobCompletion:   jc,
		BusySeconds:     busy,
		OverheadSeconds: over,
		Utilization:     util,
	}
	return nil
}

// release drops references to the caller-owned inputs so a pooled
// replay does not pin them between runs; scratch storage is kept.
func (r *replay) release() {
	r.in, r.cl, r.models = nil, nil, nil
	r.opts = Options{}
	r.rec, r.waker = nil, nil
	for m := range r.gpus {
		r.gpus[m].seq = nil
	}
}

func newReplay(in *core.Instance, sch *core.Schedule, cl *cluster.Cluster, models []*model.Model, opts Options) (*replay, error) {
	r := new(replay)
	if err := r.init(in, sch, cl, models, opts, nil); err != nil {
		return nil, err
	}
	return r, nil
}

// barrierOf returns the earliest time the given task may start due to
// its job's arrival and previous-round barrier, or ok=false while the
// previous round is incomplete (its barrier value is not final yet).
func (r *replay) barrierOf(t core.TaskRef) (float64, bool) {
	if t.Round == 0 {
		return r.in.Jobs[t.Job].Arrival, true
	}
	prev := r.roundOff[t.Job] + t.Round - 1
	if r.remaining[prev] > 0 {
		return 0, false
	}
	return math.Max(r.roundEnd[prev], r.in.Jobs[t.Job].Arrival), true
}

// exec runs the chosen GPU's head task with the pre-computed start
// and switching stall, and performs all accounting: realized times,
// events, counters, barrier bookkeeping, trace. Both engines call it
// with identical arguments in the identical order, which is what
// makes their outputs byte-identical.
func (r *replay) exec(bestGPU int, bestStart, bestSwitch float64, bestHit bool, bestB switching.Breakdown) {
	g := &r.gpus[bestGPU]
	t := g.seq[g.next]
	g.next++
	r.pending--

	train := r.in.Train[t.Job][bestGPU]
	syncT := r.in.Sync[t.Job][bestGPU]
	if r.slows != nil {
		train *= r.slows[bestGPU]
	}
	// Transient faults: each attempt is lost with probability
	// faultRate and re-runs from the round checkpoint, so the task
	// occupies the GPU for (retries+1) training times. The stream is
	// per-GPU and consumed greedily (draw until first success), so the
	// loss pattern depends only on how many tasks the GPU has run —
	// matching the testbed's executors attempt for attempt.
	retries := 0
	if r.faultRate > 0 {
		for r.faultRNG[bestGPU].Float64() < r.faultRate {
			retries++
		}
	}
	start := bestStart
	total := train * float64(retries+1)
	trainEnd := start + total
	end := trainEnd + syncT
	if retries > 0 {
		r.res.Retries += retries
		r.res.LostSeconds += train * float64(retries)
	}
	if bestSwitch > 0 {
		g.over = append(g.over, interval{start - bestSwitch, start})
		r.res.OverheadSeconds[bestGPU] += bestSwitch
		r.res.TotalSwitch += bestSwitch
		r.res.SwitchCount++
		if bestHit {
			r.res.ResidencyHits++
		}
	}
	// The task's events bracket its memory traffic, so equal-time mem
	// events keep their place between the start and the finish.
	var run obs.TaskRun
	if r.observed {
		run = obs.TaskRun{
			GPU: bestGPU, Job: int(t.Job), Round: t.Round, Index: t.Index,
			PrevJob: int(g.prevJob), PrevFree: g.free,
			Start: start, Train: total, Sync: syncT, End: end,
			Switch: bestSwitch, Clean: bestB.Clean, Context: bestB.Context,
			Init: bestB.Init, Transfer: bestB.Transfer, Hit: bestHit,
			Retries: retries, Model: r.in.Jobs[t.Job].Model,
		}
		r.rec.BeginTask(run)
	}
	if g.mem != nil {
		md := r.models[t.Job]
		g.mem.BeginAt(gpumem.JobKey(t.Job), md.TrainFootprintBytes, start)
		g.mem.Complete(gpumem.JobKey(t.Job), md.ParamBytes, trainEnd)
	}
	g.busy = append(g.busy, interval{start, trainEnd})
	r.res.BusySeconds[bestGPU] += total
	if r.observed {
		r.rec.EndTask(run)
	}
	g.free = trainEnd
	g.prevJob = t.Job

	slot := r.roundOff[t.Job] + t.Round
	r.remaining[slot]--
	if end > r.roundEnd[slot] {
		r.roundEnd[slot] = end
	}
	if end > r.res.JobCompletion[t.Job] {
		r.res.JobCompletion[t.Job] = end
	}
	if end > r.res.Makespan {
		r.res.Makespan = end
	}
	r.res.Trace.Add(trace.TaskRecord{
		Task: t, GPU: bestGPU, Start: start,
		Train: total, Sync: syncT, Switch: bestSwitch,
	})
	if r.remaining[slot] == 0 && r.waker != nil {
		r.waker.roundDone(t.Job, t.Round)
	}
}

// finish derives the aggregate metrics once every task has run.
func (r *replay) finish() *Result {
	res := &r.res
	for j, c := range res.JobCompletion {
		res.WeightedJCT += r.in.Jobs[j].Weight * c
	}
	if res.Makespan > 0 {
		for m := range res.Utilization {
			res.Utilization[m] = res.BusySeconds[m] / res.Makespan
		}
	}
	if r.opts.UtilBins > 0 && res.Makespan > 0 {
		res.UtilSeries = make([][]float64, r.in.NumGPUs)
		for m := range r.gpus {
			res.UtilSeries[m] = binIntervals(r.gpus[m].busy, res.Makespan, r.opts.UtilBins)
		}
	}
	return res
}

// candidate caches one GPU's head-task selection: its feasible start
// and the switching stall it would pay. Valid from the moment it is
// computed until the GPU executes — g.free, g.prevJob and g.mem only
// change on execution, and a released barrier value is final.
type candidate struct {
	start float64
	sw    float64
	hit   bool
	b     switching.Breakdown
}

// simPool recycles Simulators across package-level Run calls, so every
// caller — the experiment engine above all — reuses the replay arenas
// without holding a Simulator itself.
var simPool = sync.Pool{New: func() any { return NewSimulator() }}

// Run replays the schedule. cl and models may be nil, in which case
// switching costs are zero; otherwise models[j] must name job j's
// model for switching and memory accounting.
//
// The replay executes on a pooled Simulator; the returned Result is
// freshly allocated and owned by the caller. With Options.Parallel,
// decomposable schedules replay as concurrent shards (see sharded.go)
// with a deterministically merged, byte-identical result.
func Run(in *core.Instance, sch *core.Schedule, cl *cluster.Cluster, models []*model.Model, opts Options) (*Result, error) {
	if workers := shardWorkers(opts); workers > 1 {
		if res, err, handled := runSharded(in, sch, cl, models, opts, workers); handled {
			return res, err
		}
	}
	s := simPool.Get().(*Simulator)
	res, err := s.Run(in, sch, cl, models, opts)
	if err == nil {
		res = res.Clone()
	}
	s.release()
	simPool.Put(s)
	return res, err
}

// binIntervals converts busy intervals into a busy-fraction series of
// n bins over [0, horizon].
func binIntervals(ivs []interval, horizon float64, n int) []float64 {
	out := make([]float64, n)
	w := horizon / float64(n)
	for _, iv := range ivs {
		if iv.to <= 0 || iv.from >= horizon {
			continue
		}
		lo := int(iv.from / w)
		if lo < 0 {
			lo = 0
		}
		hi := int(iv.to / w)
		for b := lo; b <= hi && b < n; b++ {
			bs, be := float64(b)*w, float64(b+1)*w
			overlap := math.Min(iv.to, be) - math.Max(iv.from, bs)
			if overlap > 0 {
				out[b] += overlap / w
			}
		}
	}
	for b := range out {
		if out[b] > 1 {
			out[b] = 1
		}
	}
	return out
}
