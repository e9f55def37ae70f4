package testbed

import (
	"fmt"
	"sync"

	"hare/internal/core"
	"hare/internal/store"
)

// PSState is one job's parameter-server state (paper Eq. 3), the one
// value both engines aggregate through: the model after the last
// completed round, the held-out loss and the realized end — the
// completion of its slowest task — of every completed round, and the
// current round's reports in accept order. It holds no lock, gate or
// store. The in-process ParameterServer wraps it with a lock and round
// gates; the distributed coordinator keeps one per job in its durable
// state, so a snapshot carries it verbatim.
type PSState struct {
	Params    []float64
	Losses    []float64
	RoundEnds []float64
	Partial   []PushReport
}

// Push folds one task's report into the state of its job in `in` and
// returns the task's completion: its training end plus the job's
// synchronization time on its GPU. The report must belong to the
// current round. Its last push averages the round's gradients in accept
// order, takes the SGD step, records the loss on prob, closes the round
// at its slowest completion and saves the checkpoints to st; a failed
// save is returned, and the caller fails its run.
func (s *PSState) Push(in *core.Instance, prob *Problem, st store.Store, rep PushReport) (float64, error) {
	job := in.Jobs[rep.Task.Job]
	if r := len(s.RoundEnds); rep.Task.Round != r {
		return 0, fmt.Errorf("testbed: job %d received round-%d gradient during round %d (synchronization violated)",
			job.ID, rep.Task.Round, r)
	}
	if len(rep.Grad) != len(s.Params) {
		return 0, fmt.Errorf("testbed: gradient for %v has dimension %d, want %d", rep.Task, len(rep.Grad), len(s.Params))
	}
	comp := rep.TrainEnd + in.Sync[job.ID][rep.GPU]
	s.Partial = append(s.Partial, rep)
	if len(s.Partial) == job.Scale {
		grads := make([][]float64, len(s.Partial))
		end := 0.0
		for i, p := range s.Partial {
			grads[i] = p.Grad
			end = max(end, p.TrainEnd+in.Sync[job.ID][p.GPU])
		}
		ApplySGD(s.Params, AggregateGradients(grads), learningRate)
		s.Losses = append(s.Losses, prob.Loss(s.Params))
		s.RoundEnds = append(s.RoundEnds, end)
		s.Partial = nil
		if err := s.Save(st, job.ID); err != nil {
			return 0, err
		}
	}
	return comp, nil
}

// Save writes the state's checkpoints of job to st: the rolling
// "latest" one every task loads, and the last completed round's.
func (s *PSState) Save(st store.Store, job core.JobID) error {
	ckpt := store.EncodeParams(s.Params)
	if err := st.Save(store.LatestKey(int(job)), ckpt); err != nil {
		return fmt.Errorf("testbed: checkpoint save: %w", err)
	}
	if r := len(s.RoundEnds); r > 0 {
		if err := st.Save(store.CheckpointKey(int(job), r-1), ckpt); err != nil {
			return fmt.Errorf("testbed: checkpoint save: %w", err)
		}
	}
	return nil
}

// ParameterServer is the in-process engine's parameter server: one
// job's PSState behind a lock, plus one gate per round that closes when
// the round's end is known. The gate is not a timer: whoever runs a
// task of the next round sleeps to that end on the shared clock itself.
// Completion times are simulated-clock values measured from the actual
// pushes, so relaxed (staggered) task execution is reflected faithfully.
type ParameterServer struct {
	in   *core.Instance
	job  *core.Job
	prob *Problem
	st   store.Store

	mu    sync.Mutex
	state PSState
	done  []chan struct{} // done[r] closes when state.RoundEnds[r] is set
}

// Push delivers one task's report (PSState.Push) and closes the gate of
// the round it ends, if any.
func (ps *ParameterServer) Push(rep PushReport) (float64, error) {
	if rep.Task.Job != ps.job.ID {
		return 0, fmt.Errorf("testbed: gradient for job %d pushed to PS of job %d", rep.Task.Job, ps.job.ID)
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	closed := len(ps.state.RoundEnds)
	comp, err := ps.state.Push(ps.in, ps.prob, ps.st, rep)
	for r := closed; r < len(ps.state.RoundEnds); r++ {
		close(ps.done[r])
	}
	return comp, err
}

// WaitRound blocks until every gradient of round r (0-based) has been
// pushed and returns the round's realized completion time, which may
// still lie ahead on the clock.
func (ps *ParameterServer) WaitRound(r int) (float64, error) {
	if r < 0 || r >= ps.job.Rounds {
		return 0, fmt.Errorf("testbed: job %d has no round %d", ps.job.ID, r)
	}
	<-ps.done[r]
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.state.RoundEnds[r], nil
}
