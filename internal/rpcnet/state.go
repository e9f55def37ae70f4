package rpcnet

import (
	"errors"
	"fmt"

	"hare/internal/core"
	"hare/internal/store"
	"hare/internal/testbed"
	"hare/internal/trace"
)

// The coordinator's state machine. coordState is everything a crashed
// coordinator must get back — a snapshot encodes it verbatim — and
// apply is the only function that folds a journal record into it: the
// live RPC handlers (distributed.go) and WAL replay (recovery.go) both
// go through it, so a replayed record gets exactly the validation and
// bookkeeping the live one did. Everything else — journaling, events,
// metrics, leases, snapshots, clocks — lives in the callers.

// noTask marks an idle in-flight slot: the slot is a TaskRef value, not
// a pointer, so a snapshot and a fence record carry it like any task.
var noTask = core.TaskRef{Job: -1}

// gpuState is one GPU's share of the durable state.
type gpuState struct {
	// Queue holds the tasks assigned to the GPU but not yet handed out;
	// Inflight the one task it is running (noTask when idle).
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

// coordState is the coordinator's durable state. Exported fields are
// encoded into the snapshot (codec.go); the unexported ones tie the
// state to its instance, training problems and checkpoint store and are
// re-supplied by bind after a decode.
type coordState struct {
	// Epoch is the coordinator incarnation (1 for a fresh serve, +1 per
	// recover record) every post-handshake RPC must echo; Recovered
	// counts completed recoveries.
	Epoch     uint64
	Recovered int
	GPUs      []gpuState
	// Jobs holds each job's parameter server: its model, losses, round
	// ends and the current round's reports. A round-r task is
	// dispatch-eligible once round r-1 has ended, which keeps executors
	// from committing to barrier-blocked work while their queue holds
	// runnable tasks (deadlock freedom under migration).
	Jobs      []testbed.PSState
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
	probs []*testbed.Problem // each job's problem, for its held-out loss
	ckpt  store.Store        // where a closed round saves its checkpoints
	done  map[core.TaskRef]float64
}

// newCoordState builds the state of a fresh run. queues must be an
// owned per-GPU task assignment. Its checkpoints are not saved yet
// (saveCheckpoints).
func newCoordState(in *core.Instance, queues [][]core.TaskRef, ckpt store.Store) *coordState {
	s := &coordState{
		Epoch:     1,
		GPUs:      make([]gpuState, in.NumGPUs),
		Jobs:      make([]testbed.PSState, len(in.Jobs)),
		TasksLeft: in.NumTasks(),
		in:        in, probs: testbed.NewProblems(in, nil), ckpt: ckpt,
		done: make(map[core.TaskRef]float64, in.NumTasks()),
	}
	for g := range s.GPUs {
		s.GPUs[g] = gpuState{Queue: queues[g], Inflight: noTask, PrevJob: -1}
	}
	for j := range s.Jobs {
		s.Jobs[j].Params = s.probs[j].InitParams()
	}
	return s
}

// bind ties a decoded state to its instance and checkpoint store, after
// verifying that it fits them: a CRC-valid snapshot of the wrong shape
// must fail recovery with an error, not panic a handler later.
func (s *coordState) bind(in *core.Instance, ckpt store.Store) error {
	s.in, s.probs, s.ckpt = in, testbed.NewProblems(in, nil), ckpt
	if len(s.GPUs) != in.NumGPUs || len(s.Jobs) != len(in.Jobs) || len(s.Completions) != len(s.Records) {
		return fmt.Errorf("rpcnet: snapshot state covers %d GPUs, %d jobs and %d completions of %d records; instance has %d GPUs and %d jobs",
			len(s.GPUs), len(s.Jobs), len(s.Completions), len(s.Records), in.NumGPUs, len(in.Jobs))
	}
	for _, j := range s.in.Jobs {
		js := &s.Jobs[j.ID]
		if len(js.Params) != testbed.ProblemDim || len(js.Losses) != len(js.RoundEnds) || len(js.RoundEnds) > j.Rounds || len(js.Partial) >= j.Scale {
			return fmt.Errorf("rpcnet: snapshot state of job %d holds %d parameters, %d losses for %d of %d rounds and %d partial pushes of %d; want %d parameters",
				j.ID, len(js.Params), len(js.Losses), len(js.RoundEnds), j.Rounds, len(js.Partial), j.Scale, testbed.ProblemDim)
		}
		for i := range js.Partial {
			p := &js.Partial[i]
			if err := s.checkPush(p); err != nil {
				return fmt.Errorf("rpcnet: snapshot partial round of job %d: %w", j.ID, err)
			}
			if p.Task.Job != j.ID || p.Task.Round != len(js.RoundEnds) {
				return fmt.Errorf("rpcnet: snapshot partial round %d of job %d holds %v", len(js.RoundEnds), j.ID, p.Task)
			}
		}
	}
	for g := range s.GPUs {
		work := s.GPUs[g].Queue
		if t := s.GPUs[g].Inflight; t != noTask {
			work = append(work[:len(work):len(work)], t)
		}
		for _, t := range work {
			if err := s.checkTask(t); err != nil {
				return fmt.Errorf("rpcnet: snapshot work of GPU %d: %w", g, err)
			}
		}
	}
	s.done = make(map[core.TaskRef]float64, in.NumTasks())
	for i, r := range s.Records {
		s.done[r.Task] = s.Completions[i]
	}
	return nil
}

// saveCheckpoints writes every job's checkpoints from the state: the
// initial ones of a fresh run, or, on recovery, what a checkpoint store
// that died with the old process no longer holds.
func (s *coordState) saveCheckpoints() error {
	for j := range s.Jobs {
		if err := s.Jobs[j].Save(s.ckpt, core.JobID(j)); err != nil {
			return err
		}
	}
	return nil
}

func (s *coordState) checkGPU(g int) error {
	if g < 0 || g >= s.in.NumGPUs {
		return fmt.Errorf("rpcnet: unknown GPU %d", g)
	}
	return nil
}

func (s *coordState) checkTask(t core.TaskRef) error {
	if t.Job < 0 || int(t.Job) >= len(s.in.Jobs) {
		return fmt.Errorf("rpcnet: task %v names unknown job %d", t, t.Job)
	}
	j := s.in.Jobs[t.Job]
	if t.Round < 0 || t.Round >= j.Rounds || t.Index < 0 || t.Index >= j.Scale {
		return fmt.Errorf("rpcnet: task %v outside job %d's %d rounds x %d tasks", t, t.Job, j.Rounds, j.Scale)
	}
	return nil
}

func (s *coordState) checkPush(rep *testbed.PushReport) error {
	if err := s.checkGPU(rep.GPU); err != nil {
		return err
	}
	if err := s.checkTask(rep.Task); err != nil {
		return err
	}
	if len(rep.Grad) != testbed.ProblemDim {
		return fmt.Errorf("rpcnet: gradient for %v has dimension %d, want %d", rep.Task, len(rep.Grad), testbed.ProblemDim)
	}
	return nil
}

// check validates one record against the instance and the current
// state without changing either. The live handlers call it before they
// journal — an invalid request must never reach the WAL — and apply
// calls it again, so replay rejects exactly what the live path rejects.
func (s *coordState) check(rec *journalRecord) error {
	switch rec.Kind {
	case recPush:
		if err := s.checkPush(&rec.Push); err != nil {
			return err
		}
		if s.GPUs[rec.Push.GPU].Failed {
			return fmt.Errorf("rpcnet: GPU %d is fenced; gradient for %v rejected", rec.Push.GPU, rec.Push.Task)
		}
		return nil
	case recFence:
		return s.checkFence(rec.Fence)
	case recReport:
		return s.checkGPU(rec.GPU)
	case recRecover:
		return nil
	default:
		return fmt.Errorf("rpcnet: unknown WAL record kind %d", rec.Kind)
	}
}

func (s *coordState) checkFence(fp *fencePlan) error {
	if fp == nil {
		return errors.New("rpcnet: fence record without a fence plan")
	}
	if err := s.checkGPU(fp.GPU); err != nil {
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
		return fmt.Errorf("rpcnet: fence of GPU %d re-plans %d queues and %d in-flight slots for %d GPUs",
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
				return fmt.Errorf("rpcnet: fence of GPU %d re-plans completed task %v", fp.GPU, t)
			}
		}
		work := q
		if t := fp.Inflight[g]; t != noTask {
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
				return fmt.Errorf("rpcnet: fence of GPU %d re-plans task %v twice", fp.GPU, t)
			}
			planned[t] = true
		}
	}
	return nil
}

// effects is what one applied record did, returned by value so the
// caller can reply, emit and count without apply knowing about any of
// it.
type effects struct {
	// completion is a push's realized (or, for a duplicate, memoized)
	// completion time.
	completion float64
	// fatal is the run-ending error of a fence that could not be
	// recovered from (no survivors, failed re-plan).
	fatal error
}

// apply validates rec and folds it into the state, a push into its
// job's parameter server. It never journals, emits, snapshots or reads
// a clock. A record already folded in (a push of a done task, a
// fence of a fenced GPU, a repeated report) changes nothing, while
// every recover record is a new incarnation (Epoch and Recovered +1);
// a rejected record leaves the state unchanged. A checkpoint save that
// fails at a round's close does not, but it ends the run
// (commitLocked).
func (s *coordState) apply(rec *journalRecord) (effects, error) {
	if err := s.check(rec); err != nil {
		return effects{}, err
	}
	switch rec.Kind {
	case recPush:
		return s.applyPush(&rec.Push)
	case recFence:
		return s.applyFence(rec.Fence), nil
	case recReport:
		s.GPUs[rec.GPU].Reported = true
	default: // recRecover: check rejected every other kind
		s.Epoch++
		s.Recovered++
	}
	return effects{}, nil
}

// applyPush hands one gradient to its job's parameter server and
// accounts it; the parameter server aggregates each task exactly once.
func (s *coordState) applyPush(rep *testbed.PushReport) (effects, error) {
	if comp, done := s.done[rep.Task]; done {
		return effects{completion: comp}, nil
	}
	comp, err := s.Jobs[rep.Task.Job].Push(s.in, s.probs[rep.Task.Job], s.ckpt, *rep)
	if err != nil {
		return effects{}, fmt.Errorf("rpcnet: push %v from GPU %d: %w", rep.Task, rep.GPU, err)
	}
	gs := &s.GPUs[rep.GPU]
	gs.PrevFree, gs.PrevJob = rep.TrainEnd, rep.Task.Job
	if gs.Inflight == rep.Task {
		gs.Inflight = noTask
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
	return effects{completion: comp}, nil
}

// dropQueued removes a completed task from any queue it may have been
// (re-)planned into — a pushed task must never be dispatched again.
func (s *coordState) dropQueued(t core.TaskRef) {
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

// eligible returns the index of the first task in g's queue whose
// previous round has ended (round-0 tasks are always eligible), or -1.
// Within one job a queue is round-ascending, so the first eligible task
// never jumps a pending earlier round of the same job.
func (s *coordState) eligible(g int) int {
	for i, t := range s.GPUs[g].Queue {
		if len(s.Jobs[t.Job].RoundEnds) >= t.Round {
			return i
		}
	}
	return -1
}

// dispatch hands out the i-th task of g's queue: it becomes g's
// in-flight task. Dispatch is not journaled — after a recovery the task
// is simply queued, or in flight, again.
func (s *coordState) dispatch(g, i int) core.TaskRef {
	gs := &s.GPUs[g]
	gs.Inflight = gs.Queue[i]
	gs.Queue = append(gs.Queue[:i], gs.Queue[i+1:]...)
	return gs.Inflight
}

// unclaimed returns GPU g's in-flight task if its gradient has not
// been accepted yet — the one task stranded inside an executor session.
func (s *coordState) unclaimed(g int) (core.TaskRef, bool) {
	t := s.GPUs[g].Inflight
	_, done := s.done[t]
	return t, t != noTask && !done
}

// fenced lists the fenced GPUs.
func (s *coordState) fenced() (gpus []int) {
	for g := range s.GPUs {
		if s.GPUs[g].Failed {
			gpus = append(gpus, g)
		}
	}
	return gpus
}

// requeueInflight puts g's unclaimed in-flight task back at the head
// of its queue: the executor session that held it is gone.
func (s *coordState) requeueInflight(g int) {
	if t, ok := s.unclaimed(g); ok {
		s.GPUs[g].Queue = append([]core.TaskRef{t}, s.GPUs[g].Queue...)
	}
	s.GPUs[g].Inflight = noTask
}

// applyFence commits a fencing transition exactly as the fence plan
// recorded it; the (state-dependent) re-planner ran once, when the
// plan was computed. A re-plan installs the survivors' queues together
// with their in-flight tasks: dispatch is not journaled, so a fence
// replayed over an older snapshot would otherwise leave a task a
// survivor was running neither queued nor in flight.
func (s *coordState) applyFence(fp *fencePlan) effects {
	gs := &s.GPUs[fp.GPU]
	if gs.Failed {
		return effects{}
	}
	gs.Failed, gs.FenceReason = true, fp.Reason
	gs.Queue, gs.Inflight = nil, noTask
	s.FenceLog = append(s.FenceLog, FenceInfo{GPU: fp.GPU, Reason: fp.Reason, SimTime: fp.SimTime, DetectMillis: fp.DetectMillis})
	if fp.Unrecoverable != "" {
		return effects{fatal: errors.New(fp.Unrecoverable)}
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
	return effects{}
}
