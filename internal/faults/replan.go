package faults

import (
	"fmt"

	"hare/internal/core"
	"hare/internal/obs"
)

// Planner is what Replan needs of a scheduling algorithm. Every
// sched.Algorithm is one; the interface keeps this package below sched.
type Planner interface {
	Schedule(in *core.Instance) (*core.Schedule, error)
}

// Replan is the recovery re-plan the simulator and the distributed
// coordinator share: restate pending (every not-yet-started task, the
// failed GPU's stranded ones included) as a Residual over the surviving
// GPUs alive, run planner on it, and return the refreshed task
// sequences, indexed by original GPU.
func Replan(in *core.Instance, pending []core.TaskRef, alive []int, planner Planner) ([][]core.TaskRef, error) {
	if len(alive) == 0 {
		return nil, fmt.Errorf("faults: no surviving GPUs with %d tasks pending", len(pending))
	}
	residual, err := NewResidual(in, pending, alive)
	if err != nil {
		return nil, err
	}
	plan, err := planner.Schedule(residual.Instance)
	if err != nil {
		return nil, fmt.Errorf("faults: re-plan: %w", err)
	}
	return residual.Sequences(plan)
}

// EmitMigration announces one recovery re-plan: resched.triggered on the
// failed GPU's lane with the residual's size, then one task.migrated per
// stranded task on the lane whose sequence in seqs now holds it.
func EmitMigration(rec *obs.Recorder, at float64, failed, pending, alive int, stranded []core.TaskRef, seqs [][]core.TaskRef) {
	if !rec.Enabled() {
		return
	}
	rec.Emit(obs.Event{
		Type: obs.EvReschedule, Time: at, GPU: failed, Job: -1,
		Note: fmt.Sprintf("tasks=%d gpus=%d", pending, alive),
	})
	moved := make(map[core.TaskRef]bool, len(stranded))
	for _, t := range stranded {
		moved[t] = true
	}
	for g, seq := range seqs {
		for _, t := range seq {
			if moved[t] {
				rec.Emit(obs.Event{
					Type: obs.EvTaskMigrated, Time: at, GPU: g,
					Job: int(t.Job), Round: t.Round, Index: t.Index, From: failed,
				})
			}
		}
	}
}
