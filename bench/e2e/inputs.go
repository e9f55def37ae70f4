package main

import (
	"fmt"
	"math"

	"hare/internal/cluster"
	"hare/internal/core"
	"hare/internal/manager"
	"hare/internal/model"
	"hare/internal/profile"
	"hare/internal/sched"
	"hare/internal/sim"
	"hare/internal/stats"
	"hare/internal/store"
	"hare/internal/switching"
	"hare/internal/testbed"
	"hare/internal/trace"
	"hare/internal/workload"
)

// Seeded input generation. Everything a workload feeds the library is
// built here from -seed through the library's own generators
// (trace.Arrivals, workload.Generate, profile.BuildInstance,
// cluster.New/Heterogeneous) and stats.RNG; the library only ever sees
// the generated instances.

// distTimeScale shrinks simulated compute to microseconds of wall
// sleep, so a distributed batch costs what its control plane costs.
const distTimeScale = 1e-6

// distFleet is the 4-GPU fleet of the distributed workloads: one each
// of V100/T4/K80/M60, the smallest fleet that keeps the paper's
// heterogeneity.
func distFleet() *cluster.Cluster {
	return cluster.New([]cluster.Spec{
		{Type: cluster.V100, Count: 1}, {Type: cluster.T4, Count: 1},
		{Type: cluster.K80, Count: 1}, {Type: cluster.M60, Count: 1},
	}, 4)
}

// subSeed derives the i-th independent stream seed of a run.
func subSeed(seed int64, stream, i int) int64 {
	return stats.New(seed*1_000_003 + int64(stream)*10_007 + int64(i)).Int63()
}

// planCase is one planner/replay input: a profiled instance with its
// cluster and models.
type planCase struct {
	in     *core.Instance
	cl     *cluster.Cluster
	models []*model.Model
	epochs int // distinct arrival times = OnlineHare planning epochs
}

// layerClock accumulates the seconds set-up spends inside one layer.
type layerClock struct {
	n       int
	seconds float64
}

func (c *layerClock) time(f func()) {
	c.seconds += seconds(f)
	c.n++
}

func (c *layerClock) mean() float64 {
	if c.n == 0 {
		return 0
	}
	return c.seconds / float64(c.n)
}

// genClocks times the generator layers while set-up runs.
type genClocks struct{ generate, buildInstance layerClock }

// buildCase generates one instance: jobs arriving over horizon seconds
// on a HighHeterogeneity fleet.
func buildCase(seed int64, jobs, gpus int, horizon, roundsScale float64, gc *genClocks) (*planCase, error) {
	cl := cluster.Heterogeneous(cluster.HighHeterogeneity, gpus)
	var specs []*workload.Spec
	gc.generate.time(func() {
		specs = workload.Generate(workload.Options{
			NumJobs:     jobs,
			Arrivals:    trace.Arrivals(jobs, horizon, seed+1),
			RoundsScale: roundsScale,
			MaxSync:     cl.Size(),
			Seed:        seed + 2,
		})
	})
	c := &planCase{cl: cl, models: make([]*model.Model, len(specs))}
	jobSpecs := make([]profile.JobSpec, len(specs))
	for i, s := range specs {
		jobSpecs[i] = s
		c.models[i] = model.MustByName(s.Model)
	}
	var err error
	gc.buildInstance.time(func() {
		c.in, err = profile.New(profile.Options{Seed: seed + 3}).BuildInstance(workload.Jobs(specs), jobSpecs, cl)
	})
	if err != nil {
		return nil, fmt.Errorf("inputs: build instance: %w", err)
	}
	c.epochs = 1
	for i := 1; i < len(c.in.Jobs); i++ {
		if c.in.Jobs[i].Arrival > c.in.Jobs[i-1].Arrival {
			c.epochs++
		}
	}
	return c, nil
}

// hareSimOptions is how every workload replays a Hare plan for
// wjct_sim: Hare's fast switching with speculative memory, as the
// manager's backends run it.
func hareSimOptions() sim.Options {
	return sim.Options{Scheme: switching.Hare, Speculative: true}
}

// batch is one manager batch of the distributed workloads: the job
// requests a client submits plus the references set-up computed for
// them.
type batch struct {
	reqs  []manager.JobRequest
	tasks int
	// in/plan/models are the batch as the manager will build it (jobs
	// indexed in submission order, all arriving at 0).
	in     *core.Instance
	plan   *core.Schedule
	models []*model.Model
	wjct   float64     // sim.Run WeightedJCT of the Hare plan
	ref    [][]float64 // crash-free testbed.Run final parameters, per job
}

// buildBatches packs a seeded workload.Generate job stream into n
// batches of about targetTasks tasks each: jobs join a batch in stream
// order until it holds at least targetTasks. Packing by task count
// rather than job count keeps batches comparable across seeds — the
// zoo's per-job task counts differ by 10x.
func buildBatches(seed int64, n, targetTasks int, roundsScale float64, cl *cluster.Cluster, gc *genClocks) ([]*batch, error) {
	out := make([]*batch, 0, n)
	for stream := 0; len(out) < n; stream++ {
		var specs []*workload.Spec
		gc.generate.time(func() {
			specs = workload.Generate(workload.Options{
				NumJobs:     4 * targetTasks, // ≥ 1 task per job: enough for several batches
				RoundsScale: roundsScale,
				MaxSync:     cl.Size(),
				Seed:        subSeed(seed, 7, stream),
			})
		})
		cur := &batch{}
		for _, s := range specs {
			cur.reqs = append(cur.reqs, manager.JobRequest{
				Model: s.Model, Rounds: s.Job.Rounds, Scale: s.Job.Scale, Weight: s.Job.Weight,
				Tag: fmt.Sprintf("b%d", len(out)),
			})
			cur.tasks += s.Job.NumTasks()
			if cur.tasks < targetTasks {
				continue
			}
			if err := cur.reference(cl, gc); err != nil {
				return nil, err
			}
			out = append(out, cur)
			if len(out) == n {
				break
			}
			cur = &batch{}
		}
	}
	return out, nil
}

// reference builds the batch's instance the way manager.ExecuteBatch
// does, plans it with Hare, replays the plan for wjct_sim and runs the
// crash-free in-process testbed for the reference checkpoints.
func (b *batch) reference(cl *cluster.Cluster, gc *genClocks) error {
	jobs := make([]*core.Job, len(b.reqs))
	specs := make([]profile.JobSpec, len(b.reqs))
	b.models = make([]*model.Model, len(b.reqs))
	for i, r := range b.reqs {
		jobs[i] = &core.Job{
			ID: core.JobID(i), Name: fmt.Sprintf("job-%d(%s)", i, r.Model), Model: r.Model,
			Weight: r.Weight, Rounds: r.Rounds, Scale: r.Scale,
		}
		specs[i] = reqSpec{req: r}
		b.models[i] = model.MustByName(r.Model)
	}
	var err error
	gc.buildInstance.time(func() {
		b.in, err = profile.New(profile.Options{}).BuildInstance(jobs, specs, cl)
	})
	if err != nil {
		return fmt.Errorf("inputs: batch instance: %w", err)
	}
	if b.plan, err = sched.NewHare().Schedule(b.in); err != nil {
		return fmt.Errorf("inputs: batch plan: %w", err)
	}
	res, err := sim.Run(b.in, b.plan, cl, b.models, hareSimOptions())
	if err != nil {
		return fmt.Errorf("inputs: batch replay: %w", err)
	}
	b.wjct = res.WeightedJCT
	refStore := store.NewMem()
	if _, err := testbed.Run(b.in, b.plan, cl, b.models, testbed.Options{
		TimeScale: distTimeScale, Scheme: switching.Hare, Speculative: true, Store: refStore,
	}); err != nil {
		return fmt.Errorf("inputs: reference testbed run: %w", err)
	}
	b.ref, err = loadParams(refStore, len(jobs))
	return err
}

// reqSpec adapts a JobRequest to profile.JobSpec exactly as the
// manager does (batch scale 1).
type reqSpec struct{ req manager.JobRequest }

func (s reqSpec) ModelName() string   { return s.req.Model }
func (s reqSpec) BatchScale() float64 { return 1 }
func (s reqSpec) SyncScale() int      { return s.req.Scale }

// loadParams reads every job's rolling "latest" checkpoint.
func loadParams(st store.Store, jobs int) ([][]float64, error) {
	out := make([][]float64, jobs)
	for j := range out {
		data, err := st.Load(store.LatestKey(j))
		if err != nil {
			return nil, fmt.Errorf("checkpoint of job %d: %w", j, err)
		}
		if out[j], err = store.DecodeParams(data); err != nil {
			return nil, fmt.Errorf("checkpoint of job %d: %w", j, err)
		}
	}
	return out, nil
}

// checkParams compares final checkpoints against the reference to 1e-9.
func checkParams(st store.Store, ref [][]float64) error {
	got, err := loadParams(st, len(ref))
	if err != nil {
		return err
	}
	for j := range ref {
		if len(got[j]) != len(ref[j]) {
			return fmt.Errorf("job %d checkpoint has %d params, reference %d", j, len(got[j]), len(ref[j]))
		}
		for i := range ref[j] {
			if math.Abs(got[j][i]-ref[j][i]) > 1e-9 {
				return fmt.Errorf("job %d param %d = %.12g, reference %.12g", j, i, got[j][i], ref[j][i])
			}
		}
	}
	return nil
}

// checkExactlyOnce verifies a trace holds every task of the instance
// exactly once.
func checkExactlyOnce(in *core.Instance, tr *trace.Trace) error {
	seen := make(map[core.TaskRef]bool, len(tr.Records))
	for _, r := range tr.Records {
		if seen[r.Task] {
			return fmt.Errorf("task %v executed twice", r.Task)
		}
		seen[r.Task] = true
	}
	if len(seen) != in.NumTasks() {
		return fmt.Errorf("%d distinct tasks executed, want %d", len(seen), in.NumTasks())
	}
	return nil
}

// traceHash fingerprints every realized field of a replay trace at
// full float64 precision (word-wise FNV-1a; fmt-based digests cost more
// than the replay they check).
func traceHash(tr *trace.Trace) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	for _, r := range tr.Records {
		mix(uint64(r.Task.Job))
		mix(uint64(r.Task.Round))
		mix(uint64(r.Task.Index))
		mix(uint64(r.GPU))
		mix(math.Float64bits(r.Start))
		mix(math.Float64bits(r.Train))
		mix(math.Float64bits(r.Sync))
		mix(math.Float64bits(r.Switch))
	}
	return h
}
