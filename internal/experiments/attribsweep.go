package experiments

import (
	"fmt"

	"hare/internal/cluster"
	"hare/internal/obs/critpath"
	"hare/internal/sched"
)

// AttribRow is one scheduler's WJCT attribution on the shared
// workload: where every job's completion time actually went, on the
// critical chain through that scheme's realized schedule.
type AttribRow struct {
	Scheme      string
	WeightedJCT float64
	// Report is the full per-job / per-GPU-type / per-weight
	// breakdown (see critpath.Report).
	Report *critpath.Report
}

// AttribSweep answers "why is scheme A slower than scheme B" rather
// than just "by how much": every scheduler plans the same generated
// workload, each plan is replayed with span instrumentation, and the
// realized event stream is folded into a critical-path attribution
// report. Differences between schemes then show up as shifted
// fractions — e.g. Hare trading barrier-wait for switch time versus
// scale-fixed gang scheduling — instead of a single opaque WJCT
// delta.
func AttribSweep(cfg Config) ([]AttribRow, error) {
	cfg = cfg.Defaults()
	cl := cluster.Heterogeneous(cluster.HighHeterogeneity, cfg.GPUs)
	in, _, models, err := buildWorkload(cfg, cl, cfg.Jobs, nil, 1)
	if err != nil {
		return nil, err
	}
	algos := sched.All()
	rows := make([]AttribRow, len(algos))
	err = cfg.pool.forEach(len(algos), func(i int) error {
		a := algos[i]
		plan, err := a.Schedule(in)
		if err != nil {
			return fmt.Errorf("attribsweep: %s: %w", a.Name(), err)
		}
		// PlanAttribution replays on a private sink, so rows stay
		// independent even when cfg.pool runs schemes concurrently.
		opts := cfg.simOptions(a.Name())
		opts.Recorder = nil
		_, rep, err := critpath.PlanAttribution(in, plan, cl, models, opts)
		if err != nil {
			return fmt.Errorf("attribsweep: %s: %w", a.Name(), err)
		}
		rows[i] = AttribRow{Scheme: a.Name(), WeightedJCT: rep.WeightedJCT, Report: rep}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}
