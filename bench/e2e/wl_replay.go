package main

import (
	"fmt"
	"runtime"

	"hare/internal/cluster"
	"hare/internal/core"
	"hare/internal/gpumem"
	"hare/internal/model"
	"hare/internal/sched"
	"hare/internal/sim"
	"hare/internal/switching"
	"hare/internal/tenants"
)

// replaySweep is the simulator-bound workload: one op replays the five
// sched.All() plans of the next pooled instance under the three
// switching schemes — 15 sim.Run calls. The planner runs in set-up
// only, so planner, WAL and wire changes predict no move here; it
// guards the pooled replay core while code around it is refactored.
type replaySweep struct {
	pool []*replayCase
	// simWJCT and bestBase sum, over the pool, the reference weighted
	// JCT of the Hare plan (Hare switching) and of the best baseline
	// plan (default switching).
	simWJCT, bestBase float64
	gc                genClocks
	reference         layerClock // RunReference calls of set-up
	refTasks          int
}

type replayCase struct {
	*planCase
	plans []*core.Schedule
	// refWJCT[p][s] and refHash[p][s] are sim.RunReference's result for
	// plan p under scheme s.
	refWJCT [][]float64
	refHash [][]uint64
}

// sweepOptions is the replay configuration of one scheme of the sweep:
// speculative memory on, which only Hare's scheme consults.
func sweepOptions(s switching.Scheme) sim.Options {
	return sim.Options{Scheme: s, Speculative: true}
}

func (w *replaySweep) setup(e *env) error {
	sz := e.sz
	algos := sched.All()
	schemes := switching.Schemes()
	for i := 0; i < sz.replayPool; i++ {
		pc, err := buildCase(subSeed(e.seed, 3, i), sz.replayJobs, sz.replayGPUs, sz.replayHorizon, sz.roundsScale, &w.gc)
		if err != nil {
			return err
		}
		c := &replayCase{planCase: pc}
		best := 0.0
		for p, a := range algos {
			plan, err := a.Schedule(pc.in)
			if err != nil {
				return fmt.Errorf("replay-sweep: %s: %w", a.Name(), err)
			}
			c.plans = append(c.plans, plan)
			c.refWJCT = append(c.refWJCT, make([]float64, len(schemes)))
			c.refHash = append(c.refHash, make([]uint64, len(schemes)))
			for s, scheme := range schemes {
				var res *sim.Result
				w.reference.time(func() {
					res, err = sim.RunReference(pc.in, plan, pc.cl, pc.models, sweepOptions(scheme))
				})
				if err != nil {
					return fmt.Errorf("replay-sweep: reference %s/%v: %w", a.Name(), scheme, err)
				}
				w.refTasks += pc.in.NumTasks()
				c.refWJCT[p][s], c.refHash[p][s] = res.WeightedJCT, traceHash(res.Trace)
				switch {
				case p == 0 && scheme == switching.Hare:
					w.simWJCT += res.WeightedJCT
				case p > 0 && scheme == switching.Default && (best == 0 || res.WeightedJCT < best):
					best = res.WeightedJCT
				}
			}
		}
		w.bestBase += best
		w.pool = append(w.pool, c)
	}
	return nil
}

func (w *replaySweep) op(i int, tr *tracer) (int, func() error, error) {
	c := w.pool[i%len(w.pool)]
	schemes := switching.Schemes()
	results := make([][]*sim.Result, len(c.plans))
	for p, plan := range c.plans {
		results[p] = make([]*sim.Result, len(schemes))
		for s, scheme := range schemes {
			h0 := tr.heap()
			id := tr.begin("sim.run")
			res, err := sim.Run(c.in, plan, c.cl, c.models, sweepOptions(scheme))
			tr.end(id)
			tr.add("sim.run.objects", tr.heap().objects-h0.objects)
			if err != nil {
				return 0, nil, err
			}
			results[p][s] = res
		}
	}
	check := func() error {
		for p := range results {
			for s, res := range results[p] {
				//lint:allow floateq the pooled engine must match RunReference bit for bit
				if res.WeightedJCT != c.refWJCT[p][s] || traceHash(res.Trace) != c.refHash[p][s] {
					return fmt.Errorf("plan %d scheme %v: WJCT %.17g hash %#x, reference %.17g %#x",
						p, schemes[s], res.WeightedJCT, traceHash(res.Trace), c.refWJCT[p][s], c.refHash[p][s])
				}
			}
		}
		return nil
	}
	return len(c.plans) * len(schemes) * c.in.NumTasks(), check, nil
}

func (w *replaySweep) cycle() int    { return len(w.pool) }
func (w *replaySweep) session() int  { return 1 }
func (w *replaySweep) wjct() float64 { return w.simWJCT }
func (w *replaySweep) close() error  { return nil }

func (w *replaySweep) layers(tr *tracer, e *env, m metricSet) error {
	run := tr.stats("sim.run")
	tasksPerRun := 0.0
	for _, c := range w.pool {
		tasksPerRun += float64(c.in.NumTasks()) / float64(len(w.pool))
	}
	m.set("sim.run.ns_per_task", run.mean()*1e9/tasksPerRun)
	m.set("sim.run.allocs_per_replay", tr.count("sim.run.objects")/float64(run.N))
	m.set("sim.reference.ns_per_task", w.reference.seconds*1e9/float64(w.refTasks))
	m.set("sched.wjct_vs_best_baseline", w.bestBase/w.simWJCT)
	m.set("workload.generate_s", w.gc.generate.mean())
	m.set("profile.build_instance_s", w.gc.buildInstance.mean())

	// A reused Simulator replays the same 15 (plan, scheme) pairs of the
	// first instance; the first sweep grows its arenas and is dropped.
	c := w.pool[0]
	simulator := sim.NewSimulator()
	var reused []float64
	for r := 0; r <= e.sz.probeReps; r++ {
		var err error
		d := seconds(func() {
			for _, plan := range c.plans {
				for _, scheme := range switching.Schemes() {
					if _, err = simulator.Run(c.in, plan, c.cl, c.models, sweepOptions(scheme)); err != nil {
						return
					}
				}
			}
		})
		if err != nil {
			return err
		}
		if r > 0 {
			reused = append(reused, d)
		}
	}
	replays := float64(len(c.plans) * len(switching.Schemes()))
	m.set("sim.reused.ns_per_task", median(reused)*1e9/(replays*float64(c.in.NumTasks())))
	m.set("switching.cost_ns", probeSwitching(c.cl, c.models))
	m.set("gpumem.begin_complete_ns", probeGPUMem(c))
	return probeSharded(e, m)
}

// probeSwitching times switching.Cost over every (scheme, GPU type,
// prev model, next model, residency) combination of the instance.
func probeSwitching(cl *cluster.Cluster, models []*model.Model) float64 {
	distinct := models[:min(len(models), 8)]
	calls := 0
	var sink float64
	d := seconds(func() {
		for _, s := range switching.Schemes() {
			for k := 0; k < 4; k++ { // one GPU of each type: the fleet is laid out type by type
				g := cl.GPUs[k*len(cl.GPUs)/4]
				for _, prev := range distinct {
					for _, next := range distinct {
						sink += switching.Cost(s, g.Type, prev, next, false).Total()
						sink += switching.Cost(s, g.Type, prev, next, true).Total()
						calls += 2
					}
				}
			}
		}
	})
	runtime.KeepAlive(sink)
	return d * 1e9 / float64(calls)
}

// probeGPUMem times one BeginAt+Complete pair of the speculative memory
// manager over the Hare plan's sequence of GPU 0.
func probeGPUMem(c *replayCase) float64 {
	seq := c.plans[0].Sequences(c.in.NumGPUs)[0]
	look := make([]gpumem.JobKey, len(seq))
	for i, t := range seq {
		look[i] = gpumem.JobKey(t.Job)
	}
	mgr := gpumem.NewManager(c.cl.GPUs[0].Type.MemBytes)
	mgr.SetLookahead(look)
	d := seconds(func() {
		for i, t := range seq {
			md := c.models[t.Job]
			mgr.BeginAt(gpumem.JobKey(t.Job), md.TrainFootprintBytes, float64(i))
			mgr.Complete(gpumem.JobKey(t.Job), md.ParamBytes, float64(i)+0.5)
		}
	})
	return d * 1e9 / float64(max(len(seq), 1))
}

// probeSharded builds a decomposable multi-tenant trace and compares
// the serial replay with the sharded one. The ratio depends on the core
// count, so it is a diagnostic, not a gate.
func probeSharded(e *env, m metricSet) error {
	var tr *tenants.Trace
	var err error
	m.set("tenants.build_s", seconds(func() {
		tr, err = tenants.Build(tenants.Config{Tenants: 4, JobsPerTenant: 40, GPUsPerTenant: 8, Seed: subSeed(e.seed, 4, 0)})
	}))
	if err != nil {
		return err
	}
	timeRun := func(parallel int) (float64, error) {
		var ds []float64
		for r := 0; r < e.sz.probeReps; r++ {
			var err error
			ds = append(ds, seconds(func() {
				_, err = sim.Run(tr.Instance, tr.Schedule, tr.Cluster, tr.Models, sim.Options{Scheme: switching.Hare, Speculative: true, Parallel: parallel})
			}))
			if err != nil {
				return 0, err
			}
		}
		return median(ds), nil
	}
	serial, err := timeRun(0)
	if err != nil {
		return err
	}
	sharded, err := timeRun(-1)
	if err != nil {
		return err
	}
	m.set("sim.sharded.speedup", serial/sharded)
	return nil
}
