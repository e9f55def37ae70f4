package testbed

import (
	"fmt"
	"sync"

	"hare/internal/core"
	"hare/internal/store"
)

// ParameterServer aggregates one job's gradients (paper Eq. 3): each
// round it collects Scale gradient pushes, averages them, applies an
// SGD step, checkpoints the updated model and closes the round's gate,
// which carries the round's realized end — the completion of its
// slowest task — as a value. The gate is not a timer: whoever runs a
// task of the next round sleeps to that end on the shared clock itself.
// Completion times are simulated-clock values measured from the actual
// pushes, so relaxed (staggered) task execution is reflected faithfully.
type ParameterServer struct {
	Job  *core.Job
	prob *Problem
	st   store.Store
	eta  float64
	// syncOf returns the job's T^s on a given GPU.
	syncOf func(gpu int) float64

	mu       sync.Mutex
	params   []float64
	round    int
	grads    [][]float64
	roundMax float64 // max task completion (train end + sync) this round

	done []*roundGate
	// LossHistory records the held-out loss after each round, for
	// convergence assertions.
	LossHistory []float64
}

type roundGate struct {
	ch  chan struct{}
	end float64
}

// NewParameterServer builds a PS for one job.
func NewParameterServer(job *core.Job, prob *Problem, st store.Store, eta float64, syncOf func(gpu int) float64) *ParameterServer {
	ps := &ParameterServer{
		Job: job, prob: prob, st: st, eta: eta, syncOf: syncOf,
		params: prob.InitParams(),
		done:   make([]*roundGate, job.Rounds),
	}
	for r := range ps.done {
		ps.done[r] = &roundGate{ch: make(chan struct{})}
	}
	// Initial checkpoint so round-0 tasks can load.
	if err := st.Save(store.LatestKey(int(job.ID)), store.EncodeParams(ps.params)); err != nil {
		panic(fmt.Sprintf("testbed: initial checkpoint: %v", err))
	}
	return ps
}

// Push delivers one task's gradient. trainEnd is the simulated time
// the task finished computing; the task's full completion adds its
// synchronization time on its GPU. Push returns that completion time.
// When the round's last gradient arrives the PS applies the update,
// checkpoints, and closes the round's gate with its realized end.
func (ps *ParameterServer) Push(t core.TaskRef, gpu int, trainEnd float64, grad []float64) (float64, error) {
	if t.Job != ps.Job.ID {
		return 0, fmt.Errorf("testbed: gradient for job %d pushed to PS of job %d", t.Job, ps.Job.ID)
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if t.Round != ps.round {
		return 0, fmt.Errorf("testbed: job %d received round-%d gradient during round %d (synchronization violated)",
			ps.Job.ID, t.Round, ps.round)
	}
	completion := trainEnd + ps.syncOf(gpu)
	ps.grads = append(ps.grads, grad)
	if completion > ps.roundMax {
		ps.roundMax = completion
	}
	if len(ps.grads) == ps.Job.Scale {
		avg := AggregateGradients(ps.grads)
		ApplySGD(ps.params, avg, ps.eta)
		ps.LossHistory = append(ps.LossHistory, ps.prob.Loss(ps.params))
		ckpt := store.EncodeParams(ps.params)
		if err := ps.st.Save(store.LatestKey(int(ps.Job.ID)), ckpt); err != nil {
			return 0, fmt.Errorf("testbed: checkpoint save: %w", err)
		}
		if err := ps.st.Save(store.CheckpointKey(int(ps.Job.ID), ps.round), ckpt); err != nil {
			return 0, fmt.Errorf("testbed: checkpoint save: %w", err)
		}
		gate := ps.done[ps.round]
		gate.end = ps.roundMax
		close(gate.ch)
		ps.grads = nil
		ps.roundMax = 0
		ps.round++
	}
	return completion, nil
}

// WaitRound blocks until every gradient of round r (0-based) has been
// pushed and returns the round's realized completion time, which may
// still lie ahead on the clock.
func (ps *ParameterServer) WaitRound(r int) (float64, error) {
	if r < 0 || r >= ps.Job.Rounds {
		return 0, fmt.Errorf("testbed: job %d has no round %d", ps.Job.ID, r)
	}
	gate := ps.done[r]
	<-gate.ch
	return gate.end, nil
}

// Restore rewinds the parameter server to a recovered coordinator
// snapshot: params are the model parameters after the last completed
// round, losses the per-round loss history, and roundEnds the realized
// completion times of the completed rounds (len(roundEnds) is the next
// round to run). Gates of completed rounds are closed with those ends,
// and the rolling "latest" checkpoint is re-saved so a later reader finds
// it even when the checkpoint store died with the old process.
func (ps *ParameterServer) Restore(params, losses, roundEnds []float64) error {
	if len(roundEnds) > ps.Job.Rounds {
		return fmt.Errorf("testbed: job %d restore with %d completed rounds (max %d)",
			ps.Job.ID, len(roundEnds), ps.Job.Rounds)
	}
	if len(losses) != len(roundEnds) {
		return fmt.Errorf("testbed: job %d restore with %d losses for %d rounds",
			ps.Job.ID, len(losses), len(roundEnds))
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	ps.params = append(ps.params[:0], params...)
	ps.LossHistory = append([]float64(nil), losses...)
	ps.round = len(roundEnds)
	ps.grads = nil
	ps.roundMax = 0
	for r, end := range roundEnds {
		ps.done[r].end = end
		close(ps.done[r].ch)
	}
	ckpt := store.EncodeParams(ps.params)
	if err := ps.st.Save(store.LatestKey(int(ps.Job.ID)), ckpt); err != nil {
		return fmt.Errorf("testbed: restore checkpoint save: %w", err)
	}
	if ps.round > 0 {
		if err := ps.st.Save(store.CheckpointKey(int(ps.Job.ID), ps.round-1), ckpt); err != nil {
			return fmt.Errorf("testbed: restore checkpoint save: %w", err)
		}
	}
	return nil
}

// Params returns a copy of the current model parameters.
func (ps *ParameterServer) Params() []float64 {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return append([]float64(nil), ps.params...)
}

// Completion returns the realized completion time of the job's final
// round; it must be called after the job finished.
func (ps *ParameterServer) Completion() float64 {
	return ps.done[ps.Job.Rounds-1].end
}
