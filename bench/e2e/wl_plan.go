package main

import (
	"fmt"

	"hare/internal/assign"
	"hare/internal/core"
	"hare/internal/sched"
	"hare/internal/sched/relax"
	"hare/internal/sim"
	"hare/internal/stats"
	"hare/internal/switching"
)

// planOnline is the planner-bound workload: one op plans the next
// pooled instance offline (Hare) and online (OnlineHare, which
// re-solves at every arrival epoch) and validates both plans. rpcnet
// and store do nothing here, so a WAL or wire change predicts no move.
//
// The pool is many mid-size instances rather than a few large ones:
// OnlineHare's cost per instance swings ±35 % with the burstiness of
// the drawn arrivals, and only a pool of >100 draws brings the median
// op within a few percent from seed to seed.
type planOnline struct {
	pool []*planCase
	// hareWJCT/onlineWJCT are each instance's planned weighted JCTs the
	// first time it was planned; every recurrence must reproduce them
	// bit for bit.
	hareWJCT, onlineWJCT []float64
	simWJCT              float64
	gc                   genClocks
}

func (w *planOnline) setup(e *env) error {
	sz := e.sz
	w.pool = make([]*planCase, sz.planPool)
	w.hareWJCT = make([]float64, sz.planPool)
	w.onlineWJCT = make([]float64, sz.planPool)
	for i := range w.pool {
		c, err := buildCase(subSeed(e.seed, 1, i), sz.planJobs, sz.planGPUs, sz.planHorizon, sz.roundsScale, &w.gc)
		if err != nil {
			return err
		}
		w.pool[i] = c
		plan, err := sched.NewHare().Schedule(c.in)
		if err != nil {
			return fmt.Errorf("plan-online: reference plan %d: %w", i, err)
		}
		res, err := sim.Run(c.in, plan, c.cl, c.models, hareSimOptions())
		if err != nil {
			return fmt.Errorf("plan-online: reference replay %d: %w", i, err)
		}
		w.hareWJCT[i] = plan.WeightedJCT(c.in)
		w.simWJCT += res.WeightedJCT
	}
	return nil
}

func (w *planOnline) op(i int, tr *tracer) (int, func() error, error) {
	k := i % len(w.pool)
	c := w.pool[k]
	hare := timedAlgo{Algorithm: sched.NewHare(), tr: tr, name: "sched.hare.plan"}
	online := timedAlgo{Algorithm: sched.NewOnlineHare(), tr: tr, name: "sched.online.plan"}
	ph, err := hare.Schedule(c.in)
	if err != nil {
		return 0, nil, err
	}
	po, err := online.Schedule(c.in)
	if err != nil {
		return 0, nil, err
	}
	id := tr.begin("core.validate")
	errH, errO := core.ValidateSchedule(c.in, ph), core.ValidateSchedule(c.in, po)
	tr.end(id)
	if errH != nil {
		return 0, nil, fmt.Errorf("hare plan infeasible: %w", errH)
	}
	if errO != nil {
		return 0, nil, fmt.Errorf("online plan infeasible: %w", errO)
	}
	check := func() error {
		wh, wo := ph.WeightedJCT(c.in), po.WeightedJCT(c.in)
		if w.onlineWJCT[k] == 0 {
			w.onlineWJCT[k] = wo
		}
		//lint:allow floateq the planners are deterministic: a recurring instance must replan bit-identically
		if wh != w.hareWJCT[k] || wo != w.onlineWJCT[k] {
			return fmt.Errorf("instance %d replanned to WJCT %.17g/%.17g, first saw %.17g/%.17g",
				k, wh, wo, w.hareWJCT[k], w.onlineWJCT[k])
		}
		return nil
	}
	return c.in.NumTasks(), check, nil
}

func (w *planOnline) cycle() int    { return len(w.pool) }
func (w *planOnline) session() int  { return 1 }
func (w *planOnline) wjct() float64 { return w.simWJCT }
func (w *planOnline) close() error  { return nil }

func (w *planOnline) layers(tr *tracer, e *env, m metricSet) error {
	hare, online := tr.stats("sched.hare.plan"), tr.stats("sched.online.plan")
	m.set("sched.hare.plan_s", median(hare.PerOp))
	m.set("sched.online.plan_s", median(online.PerOp))
	m.set("core.validate_s", median(tr.stats("core.validate").PerOp))
	m.set("sched.hare.alloc_kb", tr.count("sched.hare.plan.alloc_bytes")/1024/float64(hare.N))
	m.set("sched.online.alloc_kb", tr.count("sched.online.plan.alloc_bytes")/1024/float64(online.N))
	epochs := 0
	for _, c := range w.pool {
		epochs += c.epochs
	}
	m.set("sched.online.us_per_arrival", online.mean()*1e6/(float64(epochs)/float64(len(w.pool))))
	m.set("workload.generate_s", w.gc.generate.mean())
	m.set("profile.build_instance_s", w.gc.buildInstance.mean())

	// Probes on the first instances of the pool: the relaxation alone,
	// the four baselines, and the Hungarian solver Sched_Allox leans on.
	n := min(e.sz.probeReps, len(w.pool))
	var fluid, base []float64
	for _, c := range w.pool[:n] {
		var err error
		fluid = append(fluid, seconds(func() { _, err = relax.Fluid(c.in) }))
		if err != nil {
			return err
		}
	}
	bestBase := 0.0
	for _, c := range w.pool {
		best, planS, err := bestBaselineWJCT(c)
		if err != nil {
			return err
		}
		base = append(base, planS)
		bestBase += best
	}
	m.set("sched.relax.fluid_s", median(fluid))
	m.set("sched.baselines.plan_s", median(base))
	m.set("sched.wjct_vs_best_baseline", bestBase/w.simWJCT)

	rng := stats.New(subSeed(e.seed, 2, 0))
	cost := make([][]float64, 64)
	for i := range cost {
		cost[i] = make([]float64, 64)
		for j := range cost[i] {
			cost[i][j] = rng.Uniform(1, 100)
		}
	}
	var hung []float64
	for r := 0; r < e.sz.probeReps; r++ {
		var err error
		hung = append(hung, seconds(func() { _, _, err = assign.Solve(cost) }))
		if err != nil {
			return err
		}
	}
	m.set("assign.hungarian_us", median(hung)*1e6)
	return nil
}

// bestBaselineWJCT plans the instance with the paper's four baselines,
// replays each (baselines pay the default switching cost, as in the
// evaluation) and returns the lowest simulated weighted JCT plus the
// seconds the four Schedule calls took together.
func bestBaselineWJCT(c *planCase) (best, planSeconds float64, err error) {
	for _, a := range sched.Baselines() {
		t0 := now()
		plan, err := a.Schedule(c.in)
		planSeconds += now() - t0
		if err != nil {
			return 0, 0, fmt.Errorf("%s: %w", a.Name(), err)
		}
		res, err := sim.Run(c.in, plan, c.cl, c.models, sim.Options{Scheme: switching.Default})
		if err != nil {
			return 0, 0, fmt.Errorf("%s replay: %w", a.Name(), err)
		}
		if best == 0 || res.WeightedJCT < best {
			best = res.WeightedJCT
		}
	}
	return best, planSeconds, nil
}

// seconds times one call.
func seconds(f func()) float64 {
	t0 := now()
	f()
	return now() - t0
}
