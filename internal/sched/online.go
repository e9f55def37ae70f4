package sched

import (
	"slices"

	"hare/internal/core"
	"hare/internal/obs"
)

// OnlineHare is the dynamic-arrival extension the paper leaves as
// future work (§1, Limitations): a non-clairvoyant scheduler that
// re-runs Hare's relaxation + list scheduling at every job arrival,
// seeing only the jobs that have arrived so far. Work committed
// before an arrival (tasks already started on their GPUs) is never
// revoked — task-level non-preemption carries over — but every
// not-yet-started round is re-planned with the new information.
//
// Comparing OnlineHare with the offline Hare quantifies the value of
// arrival clairvoyance (experiments.AblationOnline). Its line-12 GPU
// choice is Hare's: PickEarliestFinish.
type OnlineHare struct {
	// rec, when set, traces committed placement decisions, epoch by
	// epoch (re-planned, uncommitted placements are not reported).
	rec *obs.Recorder
}

// SetRecorder attaches an observability recorder.
func (o *OnlineHare) SetRecorder(r *obs.Recorder) { o.rec = r }

// NewOnlineHare returns the online variant.
func NewOnlineHare() *OnlineHare { return &OnlineHare{} }

// Name implements Algorithm.
func (*OnlineHare) Name() string { return "Hare-online" }

// Schedule implements Algorithm: Hare's list scheduler planned at every
// distinct arrival.
func (o *OnlineHare) Schedule(in *core.Instance) (*core.Schedule, error) {
	epochs := make([]float64, len(in.Jobs))
	for i, j := range in.Jobs {
		epochs[i] = j.Arrival
	}
	slices.Sort(epochs)
	return listSchedule(in, &plan{pick: PickEarliestFinish, rec: o.rec, note: "online/" + PickEarliestFinish.String()}, slices.Compact(epochs))
}
