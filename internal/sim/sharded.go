package sim

import (
	"runtime"
	"sync"

	"hare/internal/cluster"
	"hare/internal/core"
	"hare/internal/model"
	"hare/internal/trace"
)

// Sharded parallel replay.
//
// A schedule decomposes when its GPU/job contact graph — jobs linked
// to every GPU that runs one of their tasks — has more than one
// connected component. Components share nothing a replay reads or
// writes: barriers are per-job, switching state and interval lanes are
// per-GPU, and a component's pop order is the global pop order
// restricted to its GPUs (the selection key (start, GPU id) never
// compares across components' candidates in a way that affects
// within-component order). Each component therefore replays
// independently on the normal serial engine, and the global trace is
// recovered by merging the shard traces on (start, global GPU id) —
// the exact total order the serial loop pops in, because pops are
// globally nondecreasing in start and equal-start pops ascend by GPU
// id.
//
// Floating-point accounting is kept bit-identical by recomputing the
// order-sensitive aggregates from the merged stream: TotalSwitch is
// re-folded over the merged records (the serial engine adds only
// positive stalls, in pop order), WeightedJCT is re-summed in job-id
// order, and Utilization is re-divided by the global makespan.
// Per-job and per-GPU values are component-local sums and carry over
// bit-exactly.
//
// Option sets whose accounting is order-global across components are
// ineligible and fall back to the serial engine: jitter (one RNG
// stream in pop order), transient faults and stragglers (per-GPU
// streams seeded by global id and a float loss accumulator in pop
// order), permanent failures (global re-plan), utilization series
// (binned over the global makespan), recorders (one event stream) and
// metrics (shared counters).

// shardWorkers resolves Options.Parallel to a worker count.
func shardWorkers(opts Options) int {
	switch {
	case opts.Parallel > 1:
		return opts.Parallel
	case opts.Parallel < 0:
		return runtime.GOMAXPROCS(0)
	}
	return 1
}

// shardable reports whether the option set replays identically when
// decomposed (see the package comment above).
func shardable(opts Options) bool {
	return !opts.Recorder.Enabled() &&
		opts.Metrics == nil &&
		opts.JitterFrac == 0 &&
		opts.UtilBins == 0 &&
		opts.Faults.Empty()
}

// shard is one connected component of the GPU/job contact graph.
type shard struct {
	gpus []int // global GPU ids, ascending
	jobs []int // global job ids, ascending
}

// components partitions GPUs and jobs into contact components. seqs
// are the per-GPU task sequences; only GPUs that run at least one task
// join a component (taskless GPUs have nothing to replay).
func components(in *core.Instance, seqs [][]core.TaskRef) []shard {
	parent := make([]int, in.NumGPUs)
	for m := range parent {
		parent[m] = m
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	jobAnchor := make([]int, len(in.Jobs))
	for j := range jobAnchor {
		jobAnchor[j] = -1
	}
	for m, seq := range seqs {
		for _, t := range seq {
			if a := jobAnchor[t.Job]; a < 0 {
				jobAnchor[t.Job] = m
			} else if ra, rm := find(a), find(m); ra != rm {
				parent[ra] = rm
			}
		}
	}
	compOf := make(map[int]int)
	var shards []shard
	for m, seq := range seqs {
		if len(seq) == 0 {
			continue
		}
		root := find(m)
		ci, ok := compOf[root]
		if !ok {
			ci = len(shards)
			compOf[root] = ci
			shards = append(shards, shard{})
		}
		shards[ci].gpus = append(shards[ci].gpus, m)
	}
	for j, a := range jobAnchor {
		// Every job has at least one task, so every anchor is set.
		shards[compOf[find(a)]].jobs = append(shards[compOf[find(a)]].jobs, j)
	}
	return shards
}

// buildShard materializes one component as a self-contained
// (instance, schedule, cluster, models) tuple with dense local ids.
// Job and GPU local ids ascend with their global ids, so the
// sub-replay's tie-breaks reproduce the global ones.
func buildShard(sh shard, in *core.Instance, cl *cluster.Cluster, models []*model.Model, seqs [][]core.TaskRef, sch *core.Schedule) (*core.Instance, *core.Schedule, *cluster.Cluster, []*model.Model) {
	localJob := make(map[core.JobID]core.JobID, len(sh.jobs))
	subIn := &core.Instance{
		Jobs:    make([]*core.Job, len(sh.jobs)),
		NumGPUs: len(sh.gpus),
		Train:   make([][]float64, len(sh.jobs)),
		Sync:    make([][]float64, len(sh.jobs)),
	}
	for lj, gj := range sh.jobs {
		j := *in.Jobs[gj]
		j.ID = core.JobID(lj)
		subIn.Jobs[lj] = &j
		localJob[core.JobID(gj)] = core.JobID(lj)
		subIn.Train[lj] = make([]float64, len(sh.gpus))
		subIn.Sync[lj] = make([]float64, len(sh.gpus))
		for lm, gm := range sh.gpus {
			subIn.Train[lj][lm] = in.Train[gj][gm]
			subIn.Sync[lj][lm] = in.Sync[gj][gm]
		}
	}
	var subCl *cluster.Cluster
	if cl != nil {
		subCl = &cluster.Cluster{
			GPUs:         make([]cluster.GPU, len(sh.gpus)),
			NetworkBps:   cl.NetworkBps,
			IntraHostBps: cl.IntraHostBps,
		}
		for lm, gm := range sh.gpus {
			g := cl.GPUs[gm]
			// Local dense id; the global host id is preserved so
			// host-aware sync sees the same same-host relations.
			subCl.GPUs[lm] = cluster.GPU{ID: lm, Type: g.Type, Host: g.Host}
			if g.Host+1 > subCl.Hosts {
				subCl.Hosts = g.Host + 1
			}
		}
	}
	var subModels []*model.Model
	if models != nil {
		subModels = make([]*model.Model, len(sh.jobs))
		for lj, gj := range sh.jobs {
			subModels[lj] = models[gj]
		}
	}
	subSch := core.NewSchedule(subIn)
	for lm, gm := range sh.gpus {
		for _, t := range seqs[gm] {
			p, _ := sch.At(t)
			subSch.Place(core.TaskRef{Job: localJob[t.Job], Round: t.Round, Index: t.Index}, lm, p.Start)
		}
	}
	return subIn, subSch, subCl, subModels
}

// runSharded attempts a sharded replay. handled=false means the
// caller should fall back to the serial engine: the options are
// ineligible, the schedule does not decompose, or validation failed
// (the serial path re-derives the identical error).
func runSharded(in *core.Instance, sch *core.Schedule, cl *cluster.Cluster, models []*model.Model, opts Options, workers int) (*Result, error, bool) {
	if !shardable(opts) {
		return nil, nil, false
	}
	if in.Validate() != nil || (cl != nil && cl.Size() != in.NumGPUs) ||
		(models != nil && len(models) != len(in.Jobs)) {
		return nil, nil, false
	}
	seqs, err := sch.ValidSequences(in, nil)
	if err != nil {
		return nil, nil, false
	}
	shards := components(in, seqs)
	if len(shards) < 2 {
		return nil, nil, false
	}

	subOpts := opts
	subOpts.Parallel = 0
	subOpts.Recorder = nil
	results := make([]*Result, len(shards))
	errs := make([]error, len(shards))
	work := make(chan int)
	var wg sync.WaitGroup
	if workers > len(shards) {
		workers = len(shards)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for si := range work {
				subIn, subSch, subCl, subModels := buildShard(shards[si], in, cl, models, seqs, sch)
				results[si], errs[si] = Run(subIn, subSch, subCl, subModels, subOpts)
			}
		}()
	}
	for si := range shards {
		work <- si
	}
	close(work)
	wg.Wait()
	for _, err := range errs {
		// Lowest-index error: the one the serial run would hit first.
		if err != nil {
			return nil, err, true
		}
	}
	return mergeShards(in, shards, results), nil, true
}

// mergeShards folds the shard results back into the global Result,
// bit-identical to a serial replay (see the package comment).
func mergeShards(in *core.Instance, shards []shard, results []*Result) *Result {
	res := &Result{
		Trace:           &trace.Trace{},
		JobCompletion:   make([]float64, len(in.Jobs)),
		BusySeconds:     make([]float64, in.NumGPUs),
		OverheadSeconds: make([]float64, in.NumGPUs),
		Utilization:     make([]float64, in.NumGPUs),
	}
	total := 0
	for si, r := range results {
		total += len(r.Trace.Records)
		for lj, gj := range shards[si].jobs {
			res.JobCompletion[gj] = r.JobCompletion[lj]
		}
		for lm, gm := range shards[si].gpus {
			res.BusySeconds[gm] = r.BusySeconds[lm]
			res.OverheadSeconds[gm] = r.OverheadSeconds[lm]
		}
		res.SwitchCount += r.SwitchCount
		res.ResidencyHits += r.ResidencyHits
		if r.Makespan > res.Makespan {
			res.Makespan = r.Makespan
		}
	}

	// K-way merge of the shard traces on (start, global GPU): each
	// shard's records are already in that order (a serial replay pops
	// in it, and local GPU ids ascend with global ids), so the merged
	// stream is the serial engine's exact pop order.
	res.Trace.Records = make([]trace.TaskRecord, 0, total)
	heads := make([]int, len(results))
	for len(res.Trace.Records) < total {
		best := -1
		var bestStart float64
		var bestGPU int
		for si, r := range results {
			if heads[si] >= len(r.Trace.Records) {
				continue
			}
			rec := r.Trace.Records[heads[si]]
			gm := shards[si].gpus[rec.GPU]
			//lint:allow floateq exact tie arm applies the deterministic GPU-id merge order
			if best == -1 || rec.Start < bestStart || (rec.Start == bestStart && gm < bestGPU) {
				best, bestStart, bestGPU = si, rec.Start, gm
			}
		}
		rec := results[best].Trace.Records[heads[best]]
		heads[best]++
		rec.GPU = shards[best].gpus[rec.GPU]
		rec.Task.Job = core.JobID(shards[best].jobs[rec.Task.Job])
		res.Trace.Records = append(res.Trace.Records, rec)
		// TotalSwitch re-folds in pop order; the serial engine adds
		// only positive stalls, so zero-switch records add nothing.
		if rec.Switch > 0 {
			res.TotalSwitch += rec.Switch
		}
	}

	for j, c := range res.JobCompletion {
		res.WeightedJCT += in.Jobs[j].Weight * c
	}
	if res.Makespan > 0 {
		for m := range res.Utilization {
			res.Utilization[m] = res.BusySeconds[m] / res.Makespan
		}
	}
	return res
}
