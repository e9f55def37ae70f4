package testbed

import (
	"errors"
	"fmt"
	"sync"

	"hare/internal/cluster"
	"hare/internal/core"
	"hare/internal/faults"
	"hare/internal/gpumem"
	"hare/internal/model"
	"hare/internal/obs"
	"hare/internal/stats"
	"hare/internal/store"
	"hare/internal/switching"
)

// Options configures a testbed run.
type Options struct {
	// TimeScale is wall seconds per simulated second. A positive scale
	// paces the executors on the wall clock (0.001 replays 1000
	// simulated seconds per wall second), so barrier wake-ups, push
	// latency and the executors' contention for CPUs show up as the
	// small testbed-vs-simulator gap the paper reports. 0 runs them on
	// a virtual clock: one executor runs at a time, gradient work costs
	// no simulated time, and a plan replays as the simulator replays
	// it, the same way on every run. A negative, NaN or infinite scale
	// is an error.
	TimeScale float64
	// Scheme selects the task-switching model. The zero value is
	// switching.Default, the unoptimized baseline; Hare's fast switching
	// is switching.Hare plus Speculative.
	Scheme switching.Scheme
	// Speculative enables the per-GPU speculative memory manager (the
	// paper's KeepLatest heuristic).
	Speculative bool
	// Store receives checkpoints; an in-memory store by default.
	Store store.Store
	// Faults is the failure plan (see internal/faults): at its transient
	// rate each training attempt is lost and retried from the
	// checkpoint, and its stragglers run slow. The in-process testbed
	// replays nothing else (faults.InProcess): it can neither lose an
	// executor nor disturb a network it does not have.
	Faults *faults.Plan
	// Recorder receives structured events from every executor
	// goroutine (its sinks serialize concurrent emits); nil disables
	// instrumentation.
	Recorder *obs.Recorder
}

// Result is the measured outcome of a testbed run: what every engine
// reports from its control-plane state, plus the training losses.
type Result struct {
	Outcome
	// FinalLosses[j] is job j's held-out loss after its last round;
	// InitialLosses[j] after its first.
	InitialLosses []float64
	FinalLosses   []float64
}

// The synthetic SGD problems every engine trains: ProblemDim parameters
// (so also the length of every gradient, which the coordinator checks),
// mini-batches of problemBatch samples, one learning rate. One value each
// is in use, so they are constants, not options.
const (
	ProblemDim   = 32
	problemBatch = 8
	learningRate = 0.3
)

// plane is the in-process engine's control plane: the State the
// distributed coordinator commits through, under one lock, as the
// coordinator holds it, and one lane per GPU, which is that GPU's
// executor's SyncClient and clock. Begin returns once the task's
// previous round is in the state, and Push is Apply of a push record.
// A lane that waits — in a Begin whose previous round is still open, or
// on the virtual clock in SleepUntil — is parked in the plane's state
// until wakeLocked releases it. The first failure — a rejected push, a
// failed checkpoint save, an executor's error — fails the run and
// releases every parked lane.
type plane struct {
	mu  sync.Mutex
	st  *State
	err error
	// wall paces SleepUntil on the wall clock; nil runs the virtual
	// clock, whose time is now. active counts the lanes neither parked
	// nor done: the virtual clock moves only when it is 0.
	wall   *Clock
	now    float64
	active int
	lanes  []lane
}

// lane is one GPU's place in the plane. task is the task whose Begin it
// is parked in (NoTask in SleepUntil), and at the virtual time it
// sleeps until.
type lane struct {
	p      *plane
	wake   chan struct{}
	parked bool
	task   core.TaskRef
	at     float64
}

func newPlane(st *State, wall *Clock) *plane {
	p := &plane{st: st, wall: wall, active: len(st.GPUs), lanes: make([]lane, len(st.GPUs))}
	for g := range p.lanes {
		p.lanes[g] = lane{p: p, wake: make(chan struct{}, 1), task: NoTask}
	}
	return p
}

// Begin returns what the coordinator's dispatch would carry
// (State.Inputs) once t's previous round is in the state.
func (l *lane) Begin(t core.TaskRef) (roundEnd float64, params []float64, err error) {
	p := l.p
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.st.checkTask(t); err != nil {
		return 0, nil, err
	}
	if p.err == nil && !p.st.ready(t) {
		l.task = t
		p.parkLocked(l)
	}
	if p.err != nil {
		return 0, nil, p.err
	}
	roundEnd, params = p.st.Inputs(t)
	return roundEnd, params, nil
}

// Push applies one push record; a round it closes releases its waiters.
func (l *lane) Push(rep PushReport) (float64, error) {
	p := l.p
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err != nil {
		return 0, p.err
	}
	fx, err := p.st.Apply(&Record{Kind: RecPush, Push: rep})
	if err != nil {
		p.failLocked(err)
		return 0, err
	}
	if len(p.st.Jobs[rep.Task.Job].Partial) == 0 { // the push closed its round
		p.wakeLocked()
	}
	return fx.Completion, nil
}

// SleepUntil sleeps on the wall clock, or parks the lane until t is the
// earliest time a lane waits for on the virtual one, and returns the
// simulated time on wakeup.
func (l *lane) SleepUntil(t float64) float64 {
	p := l.p
	if p.wall != nil {
		return p.wall.SleepUntil(t)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	l.at = max(t, p.now)
	if p.err == nil {
		p.parkLocked(l)
	}
	return l.at
}

// parkLocked parks l in the plane's state until wakeLocked releases it;
// p.mu is held on entry and on return, and released while l waits.
func (p *plane) parkLocked(l *lane) {
	l.parked = true
	p.active--
	p.wakeLocked()
	p.mu.Unlock()
	<-l.wake
	p.mu.Lock()
}

// releaseLocked lets l go. Its send never blocks: a lane is released
// once per park and takes the token before it parks again.
func (p *plane) releaseLocked(l *lane) {
	l.parked, l.task = false, NoTask
	p.active++
	l.wake <- struct{}{}
}

// wakeLocked releases the parked lanes the state now lets go: every one
// once the run has failed; on the wall clock each lane whose Begin is
// ready; on the virtual clock, once no lane is active, the one that
// sleeps until the earliest (time, GPU), whose time becomes now — a
// ready Begin sleeps until the time its round closed. Lanes that all
// wait on open rounds fail the run, as the simulator's deadlock does.
func (p *plane) wakeLocked() {
	next, waiting := -1, false
	for g := range p.lanes {
		l := &p.lanes[g]
		if !l.parked {
			continue
		}
		if l.task != NoTask && p.st.ready(l.task) {
			l.task, l.at = NoTask, p.now
		}
		switch {
		case p.err != nil || p.wall != nil && l.task == NoTask:
			p.releaseLocked(l)
		case l.task != NoTask:
			waiting = true
		case next < 0 || l.at < p.lanes[next].at:
			next = g
		}
	}
	if p.active > 0 {
		return
	}
	if next >= 0 {
		p.now = p.lanes[next].at
		p.releaseLocked(&p.lanes[next])
	} else if waiting {
		p.failLocked(errors.New("testbed: deadlock: every executor waits on an open round"))
	}
}

// done retires a lane whose executor returned err (nil once it ran its
// sequence).
func (p *plane) done(err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.active--
	if err != nil {
		p.failLocked(err)
	} else {
		p.wakeLocked()
	}
}

// failLocked ends the run with err unless it already failed, and
// releases every parked lane.
func (p *plane) failLocked(err error) {
	if p.err == nil {
		p.err = err
	}
	p.wakeLocked()
}

// RemoteExecutorConfig assembles an Executor outside testbed.Run —
// the distributed path, where the configuration arrived over RPC.
type RemoteExecutorConfig struct {
	GPU         int
	GPUType     cluster.GPUType
	Instance    *core.Instance
	Models      []*model.Model
	Scheme      switching.Scheme
	Speculative bool
	Clock       *Clock
	Sync        SyncClient
	FaultRate   float64
	FaultSeed   int64
	// SlowFactor makes the executor a straggler: training attempts
	// take SlowFactor times their profiled duration. Values below 1
	// (including the zero value) mean healthy.
	SlowFactor float64
	// Recorder is local-only (it does not travel over RPC); the
	// distributed path leaves it nil unless the executor host attaches
	// its own.
	Recorder *obs.Recorder
}

// NewRemoteExecutor builds an Executor from a shipped configuration.
func NewRemoteExecutor(cfg RemoteExecutorConfig) (*Executor, error) {
	if cfg.Instance == nil || cfg.Clock == nil || cfg.Sync == nil {
		return nil, fmt.Errorf("testbed: remote executor needs instance, clock and sync client")
	}
	if err := cfg.Instance.Validate(); err != nil {
		return nil, err
	}
	if len(cfg.Models) != len(cfg.Instance.Jobs) {
		return nil, fmt.Errorf("testbed: %d models for %d jobs", len(cfg.Models), len(cfg.Instance.Jobs))
	}
	if cfg.GPU < 0 || cfg.GPU >= cfg.Instance.NumGPUs {
		return nil, fmt.Errorf("testbed: GPU %d outside the %d-GPU instance", cfg.GPU, cfg.Instance.NumGPUs)
	}
	return newExecutor(cfg), nil
}

// NewProblems builds every job's SGD problem (seeds are jobID+1 on
// every engine, so all of them train the same models). rng, when set,
// is the generator the problems share; their owner must not use them
// concurrently.
func NewProblems(in *core.Instance, rng *stats.RNG) []*Problem {
	probs := make([]*Problem, len(in.Jobs))
	for _, j := range in.Jobs {
		probs[j.ID] = NewProblem(ProblemDim, problemBatch, int64(j.ID)+1)
		probs[j.ID].rng = rng
	}
	return probs
}

// newExecutor assembles one GPU's executor from a validated
// configuration. Its problems are its own and share one generator, so
// a task reseeds it instead of allocating a source.
func newExecutor(cfg RemoteExecutorConfig) *Executor {
	if cfg.SlowFactor < 1 {
		cfg.SlowFactor = 1
	}
	var mem *gpumem.Manager
	if cfg.Speculative {
		mem = gpumem.NewManager(cfg.GPUType.MemBytes)
		mem.SetRecorder(cfg.Recorder, cfg.GPU)
	}
	e := &Executor{
		GPU: cfg.GPU, GPUType: cfg.GPUType,
		in: cfg.Instance, models: cfg.Models, scheme: cfg.Scheme, mem: mem,
		clock: cfg.Clock, sync: cfg.Sync, probs: NewProblems(cfg.Instance, stats.New(0)),
		faultRate: cfg.FaultRate,
		slow:      cfg.SlowFactor,
		prevJob:   -1,
		rec:       cfg.Recorder,
	}
	if e.faultRate > 0 { // the only case that draws from it
		e.faultRNG = stats.New(faults.RetrySeed(cfg.FaultSeed, cfg.GPU))
	}
	return e
}

// Run executes a planned schedule on the in-process testbed and
// returns the *measured* timings.
func Run(in *core.Instance, sch *core.Schedule, cl *cluster.Cluster, models []*model.Model, opts Options) (*Result, error) {
	if err := opts.Faults.CheckEngine(faults.InProcess); err != nil {
		return nil, err
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Faults.Validate(in.NumGPUs); err != nil {
		return nil, fmt.Errorf("testbed: %w", err)
	}
	seqs, err := sch.ValidSequences(in, nil)
	if err != nil {
		return nil, fmt.Errorf("testbed: invalid plan: %w", err)
	}
	if cl.Size() != in.NumGPUs {
		return nil, fmt.Errorf("testbed: cluster has %d GPUs, instance %d", cl.Size(), in.NumGPUs)
	}
	if len(models) != len(in.Jobs) {
		return nil, fmt.Errorf("testbed: %d models for %d jobs", len(models), len(in.Jobs))
	}

	var wall *Clock // nil: the virtual clock
	if opts.TimeScale != 0 {
		if wall, err = NewClock(opts.TimeScale); err != nil {
			return nil, err
		}
	}
	st := opts.Store
	if st == nil {
		st = store.NewMem()
	}
	// Executors walk their planned sequences themselves (Executor.Run),
	// so the state's queues stay empty: the plan's per-GPU order is the
	// order the simulator replays.
	state := NewState(in, make([][]core.TaskRef, in.NumGPUs), st)
	if err := state.SaveCheckpoints(); err != nil {
		return nil, err
	}
	p := newPlane(state, wall)
	var wg sync.WaitGroup
	for m := range in.NumGPUs {
		l := &p.lanes[m]
		e := newExecutor(RemoteExecutorConfig{
			GPU: m, GPUType: cl.GPUs[m].Type,
			Instance: in, Models: models,
			Scheme: opts.Scheme, Speculative: opts.Speculative,
			Sync:      l,
			FaultRate: opts.Faults.TransientRate(), FaultSeed: opts.Faults.TransientSeed(),
			SlowFactor: opts.Faults.SlowdownOf(m),
			Recorder:   opts.Recorder,
		})
		e.clock = l
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := e.Run(seqs[m])
			if err != nil {
				err = fmt.Errorf("testbed: executor %d failed: %w", m, err)
			}
			p.done(err)
		}()
	}
	wg.Wait()
	if p.err != nil {
		return nil, p.err
	}

	res := &Result{
		Outcome:       state.Outcome(),
		InitialLosses: make([]float64, len(in.Jobs)),
		FinalLosses:   make([]float64, len(in.Jobs)),
	}
	for j, ps := range state.Jobs {
		res.InitialLosses[j] = ps.Losses[0]
		res.FinalLosses[j] = ps.Losses[len(ps.Losses)-1]
	}
	return res, nil
}
