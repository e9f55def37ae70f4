package sim

import (
	"fmt"
	"math"

	"hare/internal/cluster"
	"hare/internal/core"
	"hare/internal/gpumem"
	"hare/internal/model"
	"hare/internal/switching"
)

// RunReference replays the schedule with the original O(tasks·GPUs)
// selection loop: every iteration rescans all GPUs' head tasks and
// recomputes their switching cost from scratch. It is kept as the
// executable specification of the replay semantics — Run's
// incremental engine must produce byte-identical Results and Traces
// (TestRunMatchesReference and TestRunGoldenSeed42 enforce this), and
// BenchmarkSimulatorReplayReference measures what the rewrite buys.
// New behavior goes into the shared replay core (exec), never into
// only one engine.
func RunReference(in *core.Instance, sch *core.Schedule, cl *cluster.Cluster, models []*model.Model, opts Options) (*Result, error) {
	if opts.Faults.HasGPUFailures() {
		// Failure cut + re-plan lives in Run's event loop only; the
		// transient-fault and straggler paths are in the shared exec
		// core and replay identically here.
		return nil, fmt.Errorf("sim: RunReference cannot replay permanent GPU failures; use Run")
	}
	r, err := newReplay(in, sch, cl, models, opts)
	if err != nil {
		return nil, err
	}
	for r.pending > 0 {
		// Choose the GPU whose head task can start earliest.
		bestGPU := -1
		var bestStart, bestSwitch float64
		var bestHit bool
		var bestB switching.Breakdown
		for m := range r.gpus {
			g := &r.gpus[m]
			if g.next >= len(g.seq) {
				continue
			}
			t := g.seq[g.next]
			barrier, ok := r.barrierOf(t)
			if !ok {
				continue // blocked on an incomplete round
			}
			var sw float64
			var hit bool
			var b switching.Breakdown
			if r.withSwitching && g.prevJob != t.Job {
				var prev *model.Model
				if g.prevJob >= 0 {
					prev = models[g.prevJob]
				}
				resident := g.mem != nil && g.mem.Resident(gpumem.JobKey(t.Job))
				b = switching.Cost(opts.Scheme, cl.GPUs[m].Type, prev, models[t.Job], resident)
				sw, hit = b.Total(), b.ResidentHit
			}
			start := math.Max(g.free+sw, barrier)
			//lint:allow floateq exact tie arm applies the deterministic GPU-index tie-break
			if bestGPU == -1 || start < bestStart || (start == bestStart && m < bestGPU) {
				bestGPU, bestStart, bestSwitch, bestHit, bestB = m, start, sw, hit, b
			}
		}
		if bestGPU == -1 {
			return nil, fmt.Errorf("sim: deadlock with %d tasks pending (round barrier never satisfied)", r.pending)
		}
		r.exec(bestGPU, bestStart, bestSwitch, bestHit, bestB)
	}
	return r.finish(), nil
}
