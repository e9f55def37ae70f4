package testbed

import (
	"fmt"

	"hare/internal/core"
	"hare/internal/store"
)

// PSState is one job's parameter-server state (paper Eq. 3), the one
// value both engines aggregate through: the model after the last
// completed round, the held-out loss and the realized end — the
// completion of its slowest task — of every completed round, and the
// current round's reports in accept order. It holds no lock, gate or
// store: State keeps one per job, so both engines aggregate under their
// control plane's one lock and rpcnet's snapshot carries it verbatim.
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
// "latest" one, and the last completed round's.
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
