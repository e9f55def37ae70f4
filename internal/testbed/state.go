package testbed

import (
	"errors"
	"fmt"
	"slices"

	"hare/internal/core"
	"hare/internal/store"
	"hare/internal/trace"
)

// The control plane's state machine, shared by both engines. State is
// everything a crashed coordinator must get back — rpcnet's snapshot
// encodes it verbatim — and Apply is the only function that folds a
// transition into it: the in-process engine (Run) commits every push
// through it, and so do the distributed coordinator's live RPC handlers
// and its WAL replay, so a replayed record gets exactly the validation
// and bookkeeping the live one did. Everything else — locks, waiting,
// journaling, events, metrics, leases, snapshots, clocks — lives in the
// callers.

// NoTask marks an idle in-flight slot: the slot is a TaskRef value, not
// a pointer, so a snapshot and a fence record carry it like any task.
var NoTask = core.TaskRef{Job: -1}

// GPUState is one GPU's share of the state.
type GPUState struct {
	// Queue holds the tasks assigned to the GPU but not yet handed out;
	// Inflight the one task it is running (NoTask when idle).
	Queue    []core.TaskRef
	Inflight core.TaskRef
	// Failed marks a fenced GPU: it owns no work and every call from it
	// is refused. Reported marks a closed-out executor.
	Failed      bool
	FenceReason string
	Reported    bool
	// PrevJob/PrevFree mirror the executor's switch state (last job run,
	// trainEnd of its last task) so accepted pushes can be re-emitted as
	// the task-level event stream the sim and testbed engines record.
	PrevJob  core.JobID
	PrevFree float64
}

// State is the control plane's durable state. Exported fields are
// encoded into rpcnet's snapshot; the unexported ones tie the state to
// its instance, training problems and checkpoint store and are
// re-supplied by Bind after a decode.
type State struct {
	// Epoch is the coordinator incarnation (1 for a fresh serve, +1 per
	// recover record) every post-handshake RPC must echo; Recovered
	// counts completed recoveries.
	Epoch     uint64
	Recovered int
	GPUs      []GPUState
	// Jobs holds each job's parameter server: its model, losses, round
	// ends and the current round's reports. A round-r task is ready
	// once round r-1 has ended, which keeps executors from committing
	// to barrier-blocked work while their queue holds runnable tasks
	// (deadlock freedom under migration).
	Jobs      []PSState
	TasksLeft int
	FenceLog  []FenceInfo
	// Records holds one trace record per accepted gradient, in accept
	// order, and Completions[i] the realized completion of
	// Records[i].Task; done indexes them by task, memoizing completions
	// for idempotent duplicate pushes.
	Records     []trace.TaskRecord
	Completions []float64
	// Switch and recovery accounting for the result.
	SwitchTot  float64
	SwitchCnt  int
	Hits       int
	Retries    int
	Migrated   int
	Reschedule int

	in    *core.Instance
	probs []*Problem  // each job's problem, for its held-out loss
	ckpt  store.Store // where a closed round saves its checkpoints
	done  map[core.TaskRef]float64
}

// Record kinds: an accepted gradient push, a fencing transition, an
// executor's closing report, and a recovery's epoch bump (no payload).
// They are rpcnet's journal layout: a kind is only ever added, and an
// older build decodes a newer kind's record and refuses it at replay by
// number.
const (
	RecPush uint8 = iota + 1
	RecFence
	RecReport
	RecRecover
)

// Record is one transition — and one WAL entry of the distributed
// coordinator. At most one payload field is set, per Kind; LSN is the
// journal's sequence number and SimTime the simulated time the
// transition was accepted, used to restore clock continuity on recovery.
type Record struct {
	LSN     uint64
	Kind    uint8
	SimTime float64
	// RecPush: the accepted gradient push.
	Push PushReport
	// RecFence: the full fencing transition.
	Fence *FencePlan
	// RecReport: the reporting GPU and its error (empty = success).
	GPU int
	Err string
}

// KindName names the record's kind, for wal.append events and `harectl
// wal`.
func (r *Record) KindName() string {
	switch r.Kind {
	case RecPush:
		return "push"
	case RecFence:
		return "fence"
	case RecReport:
		return "report"
	case RecRecover:
		return "recover"
	}
	return fmt.Sprintf("kind(%d)", r.Kind)
}

// FencePlan is everything one fencing decision changes, computed first,
// then journaled, then applied — so the WAL record and the in-memory
// transition are identical, and recovery replays fences byte-for-byte
// instead of re-running the (state-dependent) re-planner.
type FencePlan struct {
	GPU          int
	Reason       string
	SimTime      float64
	DetectMillis float64
	// Stranded lists the dead GPU's unfinished tasks.
	Stranded []core.TaskRef
	// Queues are the survivors' refilled queues (nil for fenced GPUs),
	// and Inflight the tasks the survivors run meanwhile (NoTask for idle
	// and fenced GPUs); HasQueues distinguishes "no re-plan needed" from
	// an empty one.
	Queues    [][]core.TaskRef
	Inflight  []core.TaskRef
	HasQueues bool
	// Unrecoverable carries the run-ending error when recovery failed
	// (no survivors, re-plan error).
	Unrecoverable string
	Pending       int
	Alive         int
}

// FenceInfo is one fencing decision, in order, for audit and invariant
// checking: when the GPU was fenced, why, and — for lease expiries —
// how long after the last heartbeat the monitor noticed.
type FenceInfo struct {
	GPU     int
	Reason  string
	SimTime float64
	// DetectMillis is the lease-expiry detection latency in wall
	// milliseconds (0 for non-lease fences: device faults, executor
	// error reports).
	DetectMillis float64
}

// NewState builds the state of a fresh run. queues must be an owned
// per-GPU task assignment (empty for an engine whose executors walk the
// plan themselves). Its checkpoints are not saved yet (SaveCheckpoints).
func NewState(in *core.Instance, queues [][]core.TaskRef, ckpt store.Store) *State {
	s := &State{
		Epoch:     1,
		GPUs:      make([]GPUState, in.NumGPUs),
		Jobs:      make([]PSState, len(in.Jobs)),
		TasksLeft: in.NumTasks(),
		in:        in, probs: NewProblems(in, nil), ckpt: ckpt,
		done: make(map[core.TaskRef]float64, in.NumTasks()),
	}
	for g := range s.GPUs {
		s.GPUs[g] = GPUState{Queue: queues[g], Inflight: NoTask, PrevJob: -1}
	}
	for j := range s.Jobs {
		s.Jobs[j].Params = s.probs[j].InitParams()
	}
	return s
}

// Bind ties a decoded state to its instance and checkpoint store, after
// verifying that it fits them: a CRC-valid snapshot of the wrong shape
// must fail recovery with an error, not panic a handler later.
func (s *State) Bind(in *core.Instance, ckpt store.Store) error {
	s.in, s.probs, s.ckpt = in, NewProblems(in, nil), ckpt
	if len(s.GPUs) != in.NumGPUs || len(s.Jobs) != len(in.Jobs) || len(s.Completions) != len(s.Records) {
		return fmt.Errorf("testbed: snapshot state covers %d GPUs, %d jobs and %d completions of %d records; instance has %d GPUs and %d jobs",
			len(s.GPUs), len(s.Jobs), len(s.Completions), len(s.Records), in.NumGPUs, len(in.Jobs))
	}
	for _, j := range s.in.Jobs {
		js := &s.Jobs[j.ID]
		if len(js.Params) != ProblemDim || len(js.Losses) != len(js.RoundEnds) || len(js.RoundEnds) > j.Rounds || len(js.Partial) >= j.Scale {
			return fmt.Errorf("testbed: snapshot state of job %d holds %d parameters, %d losses for %d of %d rounds and %d partial pushes of %d; want %d parameters",
				j.ID, len(js.Params), len(js.Losses), len(js.RoundEnds), j.Rounds, len(js.Partial), j.Scale, ProblemDim)
		}
		for i := range js.Partial {
			p := &js.Partial[i]
			if err := s.checkPush(p); err != nil {
				return fmt.Errorf("testbed: snapshot partial round of job %d: %w", j.ID, err)
			}
			if p.Task.Job != j.ID || p.Task.Round != len(js.RoundEnds) {
				return fmt.Errorf("testbed: snapshot partial round %d of job %d holds %v", len(js.RoundEnds), j.ID, p.Task)
			}
		}
	}
	for g := range s.GPUs {
		work := s.GPUs[g].Queue
		if t := s.GPUs[g].Inflight; t != NoTask {
			work = append(work[:len(work):len(work)], t)
		}
		for _, t := range work {
			if err := s.checkTask(t); err != nil {
				return fmt.Errorf("testbed: snapshot work of GPU %d: %w", g, err)
			}
		}
	}
	s.done = make(map[core.TaskRef]float64, in.NumTasks())
	for i, r := range s.Records {
		s.done[r.Task] = s.Completions[i]
	}
	return nil
}

// SaveCheckpoints writes every job's checkpoints from the state: the
// initial ones of a fresh run, or, on recovery, what a checkpoint store
// that died with the old process no longer holds.
func (s *State) SaveCheckpoints() error {
	for j := range s.Jobs {
		if err := s.Jobs[j].Save(s.ckpt, core.JobID(j)); err != nil {
			return err
		}
	}
	return nil
}

// CheckGPU refuses a GPU index outside the instance.
func (s *State) CheckGPU(g int) error {
	if g < 0 || g >= s.in.NumGPUs {
		return fmt.Errorf("testbed: unknown GPU %d", g)
	}
	return nil
}

func (s *State) checkTask(t core.TaskRef) error {
	if t.Job < 0 || int(t.Job) >= len(s.in.Jobs) {
		return fmt.Errorf("testbed: task %v names unknown job %d", t, t.Job)
	}
	j := s.in.Jobs[t.Job]
	if t.Round < 0 || t.Round >= j.Rounds || t.Index < 0 || t.Index >= j.Scale {
		return fmt.Errorf("testbed: task %v outside job %d's %d rounds x %d tasks", t, t.Job, j.Rounds, j.Scale)
	}
	return nil
}

func (s *State) checkPush(rep *PushReport) error {
	if err := s.CheckGPU(rep.GPU); err != nil {
		return err
	}
	if err := s.checkTask(rep.Task); err != nil {
		return err
	}
	if len(rep.Grad) != ProblemDim {
		return fmt.Errorf("testbed: gradient for %v has dimension %d, want %d", rep.Task, len(rep.Grad), ProblemDim)
	}
	return nil
}

// Check validates one record against the instance and the current
// state without changing either. The coordinator's handlers call it
// before they journal — an invalid request must never reach the WAL —
// and Apply calls it again, so replay rejects exactly what the live
// path rejects.
func (s *State) Check(rec *Record) error {
	switch rec.Kind {
	case RecPush:
		if err := s.checkPush(&rec.Push); err != nil {
			return err
		}
		if s.GPUs[rec.Push.GPU].Failed {
			return fmt.Errorf("testbed: GPU %d is fenced; gradient for %v rejected", rec.Push.GPU, rec.Push.Task)
		}
		return nil
	case RecFence:
		return s.checkFence(rec.Fence)
	case RecReport:
		return s.CheckGPU(rec.GPU)
	case RecRecover:
		return nil
	default:
		return fmt.Errorf("testbed: unknown record kind %d", rec.Kind)
	}
}

func (s *State) checkFence(fp *FencePlan) error {
	if fp == nil {
		return errors.New("testbed: fence record without a fence plan")
	}
	if err := s.CheckGPU(fp.GPU); err != nil {
		return err
	}
	for _, t := range fp.Stranded {
		if err := s.checkTask(t); err != nil {
			return err
		}
	}
	if !fp.HasQueues {
		return nil
	}
	if len(fp.Queues) != len(s.GPUs) || len(fp.Inflight) != len(s.GPUs) {
		return fmt.Errorf("testbed: fence of GPU %d re-plans %d queues and %d in-flight slots for %d GPUs",
			fp.GPU, len(fp.Queues), len(fp.Inflight), len(s.GPUs))
	}
	// A survivor's work is its queue and its in-flight task; no task may
	// be any survivor's work twice, or a push would leave a copy queued.
	planned := make(map[core.TaskRef]bool)
	for g, q := range fp.Queues {
		for _, t := range q {
			if err := s.checkTask(t); err != nil {
				return err
			}
			if _, done := s.done[t]; done {
				return fmt.Errorf("testbed: fence of GPU %d re-plans completed task %v", fp.GPU, t)
			}
		}
		work := q
		if t := fp.Inflight[g]; t != NoTask {
			if err := s.checkTask(t); err != nil {
				return err
			}
			work = append(work[:len(work):len(work)], t)
		}
		if g == fp.GPU || s.GPUs[g].Failed {
			continue
		}
		for _, t := range work {
			if planned[t] {
				return fmt.Errorf("testbed: fence of GPU %d re-plans task %v twice", fp.GPU, t)
			}
			planned[t] = true
		}
	}
	return nil
}

// Effects is what one applied record did, returned by value so the
// caller can reply, emit and count without Apply knowing about any of
// it.
type Effects struct {
	// Completion is a push's realized (or, for a duplicate, memoized)
	// completion time.
	Completion float64
	// Fatal is the run-ending error of a fence that could not be
	// recovered from (no survivors, failed re-plan).
	Fatal error
}

// Apply validates rec and folds it into the state, a push into its
// job's parameter server. It never waits, journals, emits, snapshots or
// reads a clock. A record already folded in (a push of a done task, a
// fence of a fenced GPU, a repeated report) changes nothing, while
// every recover record is a new incarnation (Epoch and Recovered +1);
// a rejected record leaves the state unchanged. A checkpoint save that
// fails at a round's close does not, but it ends the run (the caller
// fails closed).
func (s *State) Apply(rec *Record) (Effects, error) {
	if err := s.Check(rec); err != nil {
		return Effects{}, err
	}
	switch rec.Kind {
	case RecPush:
		return s.applyPush(&rec.Push)
	case RecFence:
		return s.applyFence(rec.Fence), nil
	case RecReport:
		s.GPUs[rec.GPU].Reported = true
	default: // RecRecover: Check rejected every other kind
		s.Epoch++
		s.Recovered++
	}
	return Effects{}, nil
}

// applyPush hands one gradient to its job's parameter server and
// accounts it; the parameter server aggregates each task exactly once.
func (s *State) applyPush(rep *PushReport) (Effects, error) {
	if comp, done := s.done[rep.Task]; done {
		return Effects{Completion: comp}, nil
	}
	comp, err := s.Jobs[rep.Task.Job].Push(s.in, s.probs[rep.Task.Job], s.ckpt, *rep)
	if err != nil {
		return Effects{}, fmt.Errorf("testbed: push %v from GPU %d: %w", rep.Task, rep.GPU, err)
	}
	gs := &s.GPUs[rep.GPU]
	gs.PrevFree, gs.PrevJob = rep.TrainEnd, rep.Task.Job
	if gs.Inflight == rep.Task {
		gs.Inflight = NoTask
	}
	s.done[rep.Task] = comp
	s.dropQueued(rep.Task)
	s.Records = append(s.Records, trace.TaskRecord{
		Task: rep.Task, GPU: rep.GPU, Start: rep.Start,
		Train: rep.TrainEnd - rep.Start, Sync: comp - rep.TrainEnd, Switch: rep.Switch,
	})
	s.Completions = append(s.Completions, comp)
	s.SwitchTot += rep.Switch
	if rep.Switch > 0 {
		s.SwitchCnt++
		if rep.Hit {
			s.Hits++
		}
	}
	s.Retries += rep.Retries
	s.TasksLeft--
	return Effects{Completion: comp}, nil
}

// Completion returns the memoized completion of a task whose gradient
// was accepted.
func (s *State) Completion(t core.TaskRef) (float64, bool) {
	comp, done := s.done[t]
	return comp, done
}

// dropQueued removes a completed task from any queue it may have been
// (re-)planned into — a pushed task must never be dispatched again.
func (s *State) dropQueued(t core.TaskRef) {
	for g := range s.GPUs {
		q := s.GPUs[g].Queue
		for i := range q {
			if q[i] == t {
				s.GPUs[g].Queue = append(q[:i], q[i+1:]...)
				break
			}
		}
	}
}

// ready reports whether t's previous round has ended (round-0 tasks are
// always ready): the one barrier both engines wait on.
func (s *State) ready(t core.TaskRef) bool {
	return len(s.Jobs[t.Job].RoundEnds) >= t.Round
}

// Eligible returns the index of the first ready task in g's queue, or
// -1. Within one job a queue is round-ascending, so the first ready
// task never jumps a pending earlier round of the same job.
func (s *State) Eligible(g int) int {
	for i, t := range s.GPUs[g].Queue {
		if s.ready(t) {
			return i
		}
	}
	return -1
}

// Inputs returns what a ready task needs from the control plane before
// it trains: the realized end of its previous round (0 for a round-0
// task) and a copy of its job's parameters. Both hold until the task's
// own push, since its round cannot complete without it.
func (s *State) Inputs(t core.TaskRef) (roundEnd float64, params []float64) {
	js := &s.Jobs[t.Job]
	if t.Round > 0 {
		roundEnd = js.RoundEnds[t.Round-1]
	}
	return roundEnd, slices.Clone(js.Params)
}

// Next is the one dispatch rule: it returns GPU g's unclaimed in-flight
// task again if there is one, and otherwise moves the first ready task
// of g's queue (Eligible) into the in-flight slot and returns it; ok is
// false when g has neither. Asking twice hands out one task, so a
// dispatch whose reply was lost is simply sent again — re-running a task
// from its round's inputs is convergence-neutral (§2.2.3). Dispatch is
// not journaled: after a recovery the task is queued, or in flight,
// again.
func (s *State) Next(g int) (core.TaskRef, bool) {
	if t, ok := s.Unclaimed(g); ok {
		return t, true
	}
	i := s.Eligible(g)
	if i < 0 {
		return NoTask, false
	}
	gs := &s.GPUs[g]
	gs.Inflight = gs.Queue[i]
	gs.Queue = append(gs.Queue[:i], gs.Queue[i+1:]...)
	return gs.Inflight, true
}

// Unclaimed returns GPU g's in-flight task if its gradient has not
// been accepted yet — the one task stranded inside an executor session.
func (s *State) Unclaimed(g int) (core.TaskRef, bool) {
	t := s.GPUs[g].Inflight
	_, done := s.done[t]
	return t, t != NoTask && !done
}

// Fenced lists the fenced GPUs.
func (s *State) Fenced() (gpus []int) {
	for g := range s.GPUs {
		if s.GPUs[g].Failed {
			gpus = append(gpus, g)
		}
	}
	return gpus
}

// applyFence commits a fencing transition exactly as the fence plan
// recorded it; the (state-dependent) re-planner ran once, when the
// plan was computed. A re-plan installs the survivors' queues together
// with their in-flight tasks: dispatch is not journaled, so a fence
// replayed over an older snapshot would otherwise leave a task a
// survivor was running neither queued nor in flight.
func (s *State) applyFence(fp *FencePlan) Effects {
	gs := &s.GPUs[fp.GPU]
	if gs.Failed {
		return Effects{}
	}
	gs.Failed, gs.FenceReason = true, fp.Reason
	gs.Queue, gs.Inflight = nil, NoTask
	s.FenceLog = append(s.FenceLog, FenceInfo{GPU: fp.GPU, Reason: fp.Reason, SimTime: fp.SimTime, DetectMillis: fp.DetectMillis})
	if fp.Unrecoverable != "" {
		return Effects{Fatal: errors.New(fp.Unrecoverable)}
	}
	if fp.HasQueues {
		for g := range s.GPUs {
			if !s.GPUs[g].Failed {
				s.GPUs[g].Queue = append([]core.TaskRef(nil), fp.Queues[g]...)
				s.GPUs[g].Inflight = fp.Inflight[g]
			}
		}
		s.Reschedule++
		s.Migrated += len(fp.Stranded)
	}
	return Effects{}
}

// Outcome is what every engine's result reports from the state of a
// completed run: the measured trace in accept order, each job's
// completion (the end of its last round), the weighted JCT, the
// makespan, and the switching, residency-hit and retry totals.
type Outcome struct {
	Trace         *trace.Trace
	JobCompletion []float64
	WeightedJCT   float64
	Makespan      float64
	TotalSwitch   float64
	SwitchCount   int
	ResidencyHits int
	// Retries counts training attempts lost to injected faults.
	Retries int
}

// Outcome assembles the shared part of a completed run's result.
func (s *State) Outcome() Outcome {
	o := Outcome{
		Trace:         &trace.Trace{Records: append([]trace.TaskRecord(nil), s.Records...)},
		JobCompletion: make([]float64, len(s.in.Jobs)),
		TotalSwitch:   s.SwitchTot,
		SwitchCount:   s.SwitchCnt,
		ResidencyHits: s.Hits,
		Retries:       s.Retries,
	}
	for _, j := range s.in.Jobs {
		comp := s.Jobs[j.ID].RoundEnds[j.Rounds-1]
		o.JobCompletion[j.ID] = comp
		o.WeightedJCT += j.Weight * comp
		o.Makespan = max(o.Makespan, comp)
	}
	return o
}
