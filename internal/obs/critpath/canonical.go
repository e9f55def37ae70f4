package critpath

import (
	"hare/internal/cluster"
	"hare/internal/core"
	"hare/internal/model"
	"hare/internal/obs"
	"hare/internal/obs/span"
	"hare/internal/sim"
)

// PlanAttribution computes the *canonical* attribution of a schedule:
// the span tree and WJCT report of a deterministic sim.Run replay of
// the plan, recorded into a private collector. The wall-clock engines
// (testbed, distributed) realize the same per-GPU task orders and
// placements as the plan but measure timings on real clocks; their
// measured attributions obey the same sums-to-JCT invariant, while the
// canonical attribution is the run-to-run-stable number to report,
// diff, and snapshot in goldens. Recorder/Metrics in opts are replaced
// by the private collector, so callers can pass their engine options
// through unchanged.
func PlanAttribution(in *core.Instance, plan *core.Schedule, cl *cluster.Cluster, models []*model.Model, opts sim.Options) (*span.Tree, *Report, error) {
	var events eventLog
	opts.Recorder = obs.NewRecorder(&events)
	opts.Metrics = nil
	if _, err := sim.Run(in, plan, cl, models, opts); err != nil {
		return nil, nil, err
	}
	tree, err := span.Build(events)
	if err != nil {
		return nil, nil, err
	}
	rep, err := Analyze(tree, in, cl)
	if err != nil {
		return nil, nil, err
	}
	return tree, rep, nil
}

// eventLog is PlanAttribution's private collector: sim.Run records from
// one goroutine, and span.Build reads the slice itself, not a copy.
type eventLog []obs.Event

func (l *eventLog) Record(e obs.Event) { *l = append(*l, e) }
