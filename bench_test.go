package hare

// One sub-benchmark per entry of the experiment registry (see
// DESIGN.md's experiment index) plus micro-benchmarks of the core
// machinery. The benchmarks run scaled-down configurations so
// `go test -bench=.` completes on a laptop; cmd/harebench runs the
// full-size experiments and prints the paper-shaped rows. Where a
// figure has a headline comparison, a benchmark of its own reports it
// as a custom metric (Hare's weighted JCT as a fraction of the best
// baseline's).

import (
	"math"
	"testing"

	"hare/internal/assign"
	"hare/internal/cluster"
	"hare/internal/experiments"
	"hare/internal/gpumem"
	"hare/internal/manager"
	"hare/internal/obs"
	"hare/internal/rpcnet"
	"hare/internal/sched"
	"hare/internal/sched/relax"
	"hare/internal/sim"
	"hare/internal/stats"
	"hare/internal/switching"
	"hare/internal/tenants"
)

// benchCfg is the scaled-down experiment configuration shared by the
// figure benchmarks.
func benchCfg() experiments.Config {
	return experiments.Config{
		Seed:           42,
		RoundsScale:    0.1,
		Jobs:           40,
		GPUs:           24,
		HorizonSeconds: 300,
	}
}

// reportHareVsBest attaches Hare's weighted JCT relative to the best
// baseline as a benchmark metric.
func reportHareVsBest(b *testing.B, rows []experiments.SweepRow) {
	b.Helper()
	var ratioSum float64
	var n int
	for _, row := range rows {
		var hare, best float64
		best = math.Inf(1)
		for _, r := range row.Results {
			if r.Scheme == "Hare" {
				hare = r.WeightedJCT
			} else if r.WeightedJCT < best {
				best = r.WeightedJCT
			}
		}
		if best > 0 && !math.IsInf(best, 1) {
			ratioSum += hare / best
			n++
		}
	}
	if n > 0 {
		b.ReportMetric(ratioSum/float64(n), "hare/best-baseline")
	}
}

// BenchmarkExperiments times every entry of the experiment registry,
// one sub-benchmark per ID, at benchCfg; an experiment that errors
// fails its benchmark.
func BenchmarkExperiments(b *testing.B) {
	cfg := benchCfg()
	for _, e := range experiments.All() {
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig14GPUSweep(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig14GPUSweep(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportHareVsBest(b, rows)
		}
	}
}

// BenchmarkFig14GPUSweepParallel runs the same sweep with the worker
// pool sized to the machine; compare its ns/op against
// BenchmarkFig14GPUSweep for the parallel engine's speedup (the rows
// are identical — TestParallelMatchesSerialFig14 pins that).
func BenchmarkFig14GPUSweepParallel(b *testing.B) {
	cfg := benchCfg()
	cfg.Parallel = -1 // GOMAXPROCS
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig14GPUSweep(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportHareVsBest(b, rows)
		}
	}
}

func BenchmarkFig15JobSweep(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig15JobSweep(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportHareVsBest(b, rows)
		}
	}
}

func BenchmarkFig16Heterogeneity(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig16Heterogeneity(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportHareVsBest(b, rows)
		}
	}
}

func BenchmarkFig18Bandwidth(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig18Bandwidth(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportHareVsBest(b, rows)
		}
	}
}

func BenchmarkFig19BatchSize(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig19BatchSize(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportHareVsBest(b, rows)
		}
	}
}

// --- Micro-benchmarks of the core machinery ---

func benchInstance(jobs, gpus int, seed int64) *Instance {
	cl := HeterogeneousCluster(HighHeterogeneity, gpus)
	_, in, _, err := BuildWorkload(WorkloadConfig{
		Jobs: jobs, Seed: seed, HorizonSeconds: 600, RoundsScale: 0.1,
	}, cl)
	if err != nil {
		panic(err)
	}
	return in
}

func BenchmarkHareSchedule(b *testing.B) {
	in := benchInstance(60, 24, 5)
	algo := sched.NewHare()
	b.ReportMetric(float64(in.NumTasks()), "tasks")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := algo.Schedule(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFluidRelaxation(b *testing.B) {
	in := benchInstance(60, 24, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := relax.Fluid(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAlloxSchedule(b *testing.B) {
	in := benchInstance(60, 24, 5)
	algo := sched.NewSchedAllox()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := algo.Schedule(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulatorReplay(b *testing.B) {
	cl := HeterogeneousCluster(HighHeterogeneity, 24)
	_, in, models, err := BuildWorkload(WorkloadConfig{
		Jobs: 60, Seed: 5, HorizonSeconds: 600, RoundsScale: 0.1,
	}, cl)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := sched.NewHare().Schedule(in)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(in, plan, cl, models, sim.Options{
			Scheme: switching.Hare, Speculative: true,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorReplayReference replays the same plan with the
// original O(tasks·GPUs) rescan loop; the gap to
// BenchmarkSimulatorReplay is what the incremental candidate engine
// buys (docs/PERFORMANCE.md records the numbers).
func BenchmarkSimulatorReplayReference(b *testing.B) {
	cl := HeterogeneousCluster(HighHeterogeneity, 24)
	_, in, models, err := BuildWorkload(WorkloadConfig{
		Jobs: 60, Seed: 5, HorizonSeconds: 600, RoundsScale: 0.1,
	}, cl)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := sched.NewHare().Schedule(in)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunReference(in, plan, cl, models, sim.Options{
			Scheme: switching.Hare, Speculative: true,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPooledReplay measures the steady state of a reused
// Simulator on BenchmarkSimulatorReplay's workload: after the first
// run grows the arenas, replays recycle every buffer and the returned
// Result, so allocs/op and B/op must stay zero (hareperf caps both
// at 0).
func BenchmarkPooledReplay(b *testing.B) {
	cl := HeterogeneousCluster(HighHeterogeneity, 24)
	_, in, models, err := BuildWorkload(WorkloadConfig{
		Jobs: 60, Seed: 5, HorizonSeconds: 600, RoundsScale: 0.1,
	}, cl)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := sched.NewHare().Schedule(in)
	if err != nil {
		b.Fatal(err)
	}
	opts := sim.Options{Scheme: switching.Hare, Speculative: true}
	s := sim.NewSimulator()
	if _, err := s.Run(in, plan, cl, models, opts); err != nil {
		b.Fatal(err) // warm the arenas outside the timer
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Run(in, plan, cl, models, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// shardedBenchTrace builds the multi-tenant trace the sharded-replay
// benchmarks share: 8 independent tenants, so Options.Parallel can
// fan the replay across up to 8 workers.
func shardedBenchTrace(b *testing.B) *tenants.Trace {
	b.Helper()
	tr, err := tenants.Build(tenants.Config{
		Tenants: 8, JobsPerTenant: 20, GPUsPerTenant: 8,
		RoundsScale: 0.2, Seed: 42,
	})
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

// BenchmarkShardedReplay replays the multi-tenant trace with
// component sharding across GOMAXPROCS workers; against
// BenchmarkShardedReplaySerial it reports the wall-clock speedup
// sharding buys (≥2x expected at GOMAXPROCS ≥ 4; identical results
// are pinned by TestShardedMatchesSerial).
func BenchmarkShardedReplay(b *testing.B) {
	tr := shardedBenchTrace(b)
	opts := sim.Options{Scheme: switching.Hare, Speculative: true, Parallel: -1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(tr.Instance, tr.Schedule, tr.Cluster, tr.Models, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShardedReplaySerial is the serial control for
// BenchmarkShardedReplay: same trace, same pooled engine, no
// sharding.
func BenchmarkShardedReplaySerial(b *testing.B) {
	tr := shardedBenchTrace(b)
	opts := sim.Options{Scheme: switching.Hare, Speculative: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(tr.Instance, tr.Schedule, tr.Cluster, tr.Models, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// obsBenchSetup builds the workload and plan shared by the obs
// overhead benchmarks, matching BenchmarkSimulatorReplay.
func obsBenchSetup(b *testing.B) (*Instance, *Schedule, *Cluster, []*Model) {
	b.Helper()
	cl := HeterogeneousCluster(HighHeterogeneity, 24)
	_, in, models, err := BuildWorkload(WorkloadConfig{
		Jobs: 60, Seed: 5, HorizonSeconds: 600, RoundsScale: 0.1,
	}, cl)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := sched.NewHare().Schedule(in)
	if err != nil {
		b.Fatal(err)
	}
	return in, plan, cl, models
}

// BenchmarkObsDisabled replays the instrumented simulator path with a
// nil recorder — the acceptance bar is that it stays within noise
// (≤2%) of BenchmarkSimulatorReplay, the uninstrumented baseline, so
// observability hooks cost nothing when nobody listens.
func BenchmarkObsDisabled(b *testing.B) {
	in, plan, cl, models := obsBenchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(in, plan, cl, models, SimOptions{
			Scheme: switching.Hare, Speculative: true,
			Recorder: nil, Metrics: nil,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkObsEnabledRing measures the same replay with full event
// emission into a ring sink plus live counters — the hared
// steady-state configuration.
func BenchmarkObsEnabledRing(b *testing.B) {
	in, plan, cl, models := obsBenchSetup(b)
	ring := obs.NewRingSink(4096)
	reg := obs.NewRegistry()
	rec := obs.NewRecorder(ring)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(in, plan, cl, models, SimOptions{
			Scheme: switching.Hare, Speculative: true,
			Recorder: rec, Metrics: reg,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkObsRPCDisabled pins the cost of the control-plane RPC
// instrumentation when nobody listens: a nil RPCObserver hands out nil
// method handles, so the per-call wrapper rpcnet wraps around every
// coordinator/executor RPC must add no clock reads and no allocations.
// The loop mirrors the executor's call path — Active gate, Start,
// call body, Observe — with a xorshift standing in for the RPC.
func BenchmarkObsRPCDisabled(b *testing.B) {
	m := obs.NewRPCObserver(nil, nil, "client").Method("Coordinator.Push")
	var calls uint64
	sink := uint64(0x9e3779b97f4a7c15)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var call uint64
		if m.Active() {
			calls++
			call = calls
		}
		t := m.Start(0)
		sink ^= sink << 13
		sink ^= sink >> 7
		sink ^= sink << 17
		m.Observe(t, 0, obs.Event{GPU: 0, Call: call}, nil)
	}
	if sink == 0 {
		b.Fatal("xorshift collapsed")
	}
}

// BenchmarkObsRPCEnabledRing measures the same wrapper fully on: event
// emission into a ring sink plus the per-method counter series — the
// hared steady-state configuration of the distributed control plane.
func BenchmarkObsRPCEnabledRing(b *testing.B) {
	ring := obs.NewRingSink(4096)
	reg := obs.NewRegistry()
	m := obs.NewRPCObserver(obs.NewRecorder(ring), reg, "client").Method("Coordinator.Push")
	var calls uint64
	sink := uint64(0x9e3779b97f4a7c15)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var call uint64
		if m.Active() {
			calls++
			call = calls
		}
		t := m.Start(0)
		sink ^= sink << 13
		sink ^= sink >> 7
		sink ^= sink << 17
		m.Observe(t, 0, obs.Event{GPU: 0, Call: call}, nil)
	}
	if sink == 0 {
		b.Fatal("xorshift collapsed")
	}
}

func BenchmarkHungarian(b *testing.B) {
	rng := stats.New(9)
	const n, m = 60, 120
	cost := make([][]float64, n)
	for i := range cost {
		cost[i] = make([]float64, m)
		for j := range cost[i] {
			cost[i][j] = rng.Uniform(0, 100)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := assign.Solve(cost); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOnlineHareSchedule(b *testing.B) {
	in := benchInstance(60, 24, 5)
	algo := sched.NewOnlineHare()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := algo.Schedule(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTiresiasLASSchedule(b *testing.B) {
	in := benchInstance(60, 24, 5)
	algo := sched.NewTiresiasLAS()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := algo.Schedule(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPipelineStall(b *testing.B) {
	zoo := ModelZoo()
	var sink float64
	for i := 0; i < b.N; i++ {
		m := zoo[i%len(zoo)]
		plan, err := switching.PipelineStall(m, cluster.V100, m.BatchSeconds(cluster.V100.Speed, 1), 0)
		if err != nil {
			b.Fatal(err)
		}
		sink += plan.Stall
	}
	_ = sink
}

func BenchmarkManagerBatch(b *testing.B) {
	cl := HeterogeneousCluster(HighHeterogeneity, 12)
	for i := 0; i < b.N; i++ {
		m := manager.New(cl, manager.Options{Backend: &manager.SimBackend{}})
		for j := 0; j < 20; j++ {
			if _, err := m.Submit(manager.JobRequest{
				Model: "ResNet50", Rounds: 5, Scale: 2, Weight: 1,
			}); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := m.ExecuteBatch(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchManagerBatch times the batches a Manager over the distributed
// backend, wired as hared wires it (memory journal), executes after
// warm untimed ones — every op the first batch of a new Manager when
// warm is 0. At TimeScale 1e-6 the 8-task batch is all control plane
// (listener, four executors, one RPC per task whose successor is ready
// when it pushes, two otherwise), and a batch's
// realized makespan is its wall time, so a Manager whose batch cost
// grows with its uptime shows: a cumulative arrival on a backend clock
// that restarts at 0 made batch k sleep through the k before it, and the
// 15th cost ~15× the first. hareperf caps Reused ÷ Fresh
// (docs/PERFORMANCE.md "Reused daemon").
func benchManagerBatch(b *testing.B, warm int) {
	cl := cluster.New([]cluster.Spec{
		{Type: cluster.V100, Count: 2}, {Type: cluster.K80, Count: 2},
	}, 4)
	var m *manager.Manager
	for i := -warm; i < b.N; i++ {
		if m == nil || warm == 0 {
			m = manager.New(cl, manager.Options{
				Backend: &manager.DistributedBackend{TimeScale: 1e-6, Journal: rpcnet.NewMemJournal()},
			})
		}
		for _, name := range []string{"VGG19", "ResNet50"} {
			if _, err := m.Submit(manager.JobRequest{Model: name, Rounds: 2, Scale: 2, Weight: 1}); err != nil {
				b.Fatal(err)
			}
		}
		if i == 0 {
			b.ResetTimer()
		}
		if _, err := m.ExecuteBatch(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkManagerBatchFresh(b *testing.B) { benchManagerBatch(b, 0) }

// BenchmarkManagerBatchReused: the ops are batches 15, 16, … of one
// long-lived Manager, the shape of a harectl session against hared.
func BenchmarkManagerBatchReused(b *testing.B) { benchManagerBatch(b, 14) }

func BenchmarkGPUMemManager(b *testing.B) {
	zoo := ModelZoo()
	mem := gpumem.NewManager(16 << 30)
	look := make([]gpumem.JobKey, 64)
	for i := range look {
		look[i] = gpumem.JobKey(i % 6)
	}
	mem.SetLookahead(look)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := zoo[i%len(zoo)]
		k := gpumem.JobKey(i % 6)
		mem.BeginAt(k, m.TrainFootprintBytes, 0)
		mem.Complete(k, m.ParamBytes, float64(i))
	}
}

func BenchmarkSwitchingCost(b *testing.B) {
	zoo := ModelZoo()
	var sink float64
	for i := 0; i < b.N; i++ {
		prev := zoo[i%len(zoo)]
		next := zoo[(i+1)%len(zoo)]
		sink += switching.Cost(switching.Hare, cluster.V100, prev, next, i%2 == 0).Total()
	}
	_ = sink
}
