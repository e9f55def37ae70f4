package critpath_test

import (
	"math"
	"reflect"
	"testing"

	"hare/internal/cluster"
	"hare/internal/core"
	"hare/internal/faults"
	"hare/internal/model"
	"hare/internal/obs"
	"hare/internal/obs/critpath"
	"hare/internal/obs/span"
	"hare/internal/sched"
	"hare/internal/sim"
	"hare/internal/switching"
	"hare/internal/workload"
)

// bucketSum adds an attribution vector's buckets in field order.
func bucketSum(b critpath.Buckets) float64 {
	return b.Arrival + b.Queue + b.BarrierWait + b.Switch + b.Compute + b.Comm
}

// smallCase is the deterministic 2-GPU, 2-job fixture shared with the
// span tests.
func smallCase(t *testing.T) (*core.Instance, *core.Schedule, *cluster.Cluster, []*model.Model) {
	t.Helper()
	cl := cluster.New([]cluster.Spec{{Type: cluster.V100, Count: 1}, {Type: cluster.T4, Count: 1}}, 4)
	in := &core.Instance{
		NumGPUs: 2,
		Jobs: []*core.Job{
			{ID: 0, Name: "job-0(ResNet50)", Model: "ResNet50", Weight: 1, Arrival: 0, Rounds: 2, Scale: 2},
			{ID: 1, Name: "job-1(GraphSAGE)", Model: "GraphSAGE", Weight: 2, Arrival: 1, Rounds: 2, Scale: 1},
		},
		Train: [][]float64{{4, 8}, {3, 6}},
		Sync:  [][]float64{{0.5, 0.5}, {0.25, 0.25}},
	}
	models := []*model.Model{model.MustByName("ResNet50"), model.MustByName("GraphSAGE")}
	plan, err := sched.NewHare().Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	return in, plan, cl, models
}

// generatedCase builds a heterogeneous multi-job instance from the
// workload generator, profiled the way the rpcnet chaos tests do it.
func generatedCase(t *testing.T, numJobs int, seed int64) (*core.Instance, *core.Schedule, *cluster.Cluster, []*model.Model) {
	t.Helper()
	cl := cluster.New([]cluster.Spec{{Type: cluster.V100, Count: 2}, {Type: cluster.T4, Count: 2}}, 4)
	specs := workload.Generate(workload.Options{
		NumJobs: numJobs, RoundsScale: 0.1, MaxSync: cl.Size(), Seed: seed,
	})
	in := &core.Instance{NumGPUs: cl.Size()}
	models := make([]*model.Model, len(specs))
	for i, s := range specs {
		m := model.MustByName(s.Model)
		models[i] = m
		in.Jobs = append(in.Jobs, s.Job)
		tr := make([]float64, cl.Size())
		sy := make([]float64, cl.Size())
		for _, g := range cl.GPUs {
			tr[g.ID] = m.BatchSeconds(g.Type.Speed, 1) * 20
			sy[g.ID] = 0.05
		}
		in.Train = append(in.Train, tr)
		in.Sync = append(in.Sync, sy)
	}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	plan, err := sched.NewHare().Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	return in, plan, cl, models
}

// analyzeRun runs the simulator with a private collector and returns
// result, tree, and report.
func analyzeRun(t *testing.T, in *core.Instance, plan *core.Schedule, cl *cluster.Cluster, models []*model.Model, opts sim.Options) (*sim.Result, *span.Tree, *critpath.Report) {
	t.Helper()
	collect := obs.NewCollectSink()
	opts.Recorder = obs.NewRecorder(collect)
	res, err := sim.Run(in, plan, cl, models, opts)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := span.Build(collect.Events())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := critpath.Analyze(tree, in, cl)
	if err != nil {
		t.Fatal(err)
	}
	return res, tree, rep
}

// assertSums checks the core invariant: every job's buckets sum to its
// realized completion within 1e-9, and the weighted aggregate matches
// WeightedJCT.
func assertSums(t *testing.T, rep *critpath.Report, completions []float64, wjct float64) {
	t.Helper()
	const eps = 1e-9
	seen := make([]bool, len(completions))
	for _, ja := range rep.Jobs {
		if ja.Job < 0 || ja.Job >= len(completions) {
			t.Fatalf("report names unknown job %d", ja.Job)
		}
		seen[ja.Job] = true
		if ja.Completion != completions[ja.Job] {
			t.Errorf("job %d completion %.17g, want realized %.17g", ja.Job, ja.Completion, completions[ja.Job])
		}
		if d := math.Abs(bucketSum(ja.Buckets) - completions[ja.Job]); d > eps {
			t.Errorf("job %d bucket sum off by %.3g (> %.0e): %+v", ja.Job, d, eps, ja.Buckets)
		}
		f := ja.Fractions()
		for _, v := range []float64{f.Arrival, f.Queue, f.BarrierWait, f.Switch, f.Compute, f.Comm} {
			if v < 0 || v > 1+eps {
				t.Errorf("job %d has fraction %g outside [0,1]: %+v", ja.Job, v, f)
			}
		}
	}
	for j, ok := range seen {
		if !ok {
			t.Errorf("job %d missing from report", j)
		}
	}
	if d := math.Abs(rep.WeightedJCT - wjct); d > eps*float64(len(completions)) {
		t.Errorf("report WJCT %.17g vs realized %.17g (diff %.3g)", rep.WeightedJCT, wjct, d)
	}
	if d := math.Abs(bucketSum(rep.Weighted) - rep.WeightedJCT); d > eps*float64(len(completions)) {
		t.Errorf("weighted buckets sum %.17g vs WJCT %.17g", bucketSum(rep.Weighted), rep.WeightedJCT)
	}
	var byWeight float64
	for _, row := range rep.ByWeight {
		byWeight += bucketSum(row.Buckets)
	}
	if d := math.Abs(byWeight - rep.WeightedJCT); d > 1e-6 {
		t.Errorf("by-weight rows sum %.17g vs WJCT %.17g", byWeight, rep.WeightedJCT)
	}
}

func TestAttributionSumsToCompletion(t *testing.T) {
	in, plan, cl, models := smallCase(t)
	res, _, rep := analyzeRun(t, in, plan, cl, models, sim.Options{
		Scheme: switching.Hare, Speculative: true, Seed: 42,
	})
	assertSums(t, rep, res.JobCompletion, res.WeightedJCT)

	// Every round must name a zero-slack straggler whose end is the
	// round barrier.
	rounds := 0
	for _, j := range in.Jobs {
		rounds += j.Rounds
	}
	if len(rep.Stragglers) != rounds {
		t.Errorf("stragglers = %d, want one per round = %d", len(rep.Stragglers), rounds)
	}
	for _, s := range rep.Stragglers {
		if s.Ties < 1 || s.Spread < 0 {
			t.Errorf("bad straggler row: %+v", s)
		}
	}
}

func TestAttributionGenerated(t *testing.T) {
	in, plan, cl, models := generatedCase(t, 12, 42)
	res, _, rep := analyzeRun(t, in, plan, cl, models, sim.Options{
		Scheme: switching.Hare, Speculative: true, Seed: 42,
	})
	assertSums(t, rep, res.JobCompletion, res.WeightedJCT)
	if len(rep.ByType) != 2 {
		t.Errorf("ByType rows = %d, want 2 (V100, T4)", len(rep.ByType))
	}
}

// TestRunMatchesReferenceAttribution pins the acceptance criterion:
// the attribution derived from sim.Run's event stream is byte-
// identical to the one derived from sim.RunReference's.
func TestRunMatchesReferenceAttribution(t *testing.T) {
	in, plan, cl, models := generatedCase(t, 12, 42)
	opts := sim.Options{Scheme: switching.Hare, Speculative: true, Seed: 42}

	runCollect := obs.NewCollectSink()
	runOpts := opts
	runOpts.Recorder = obs.NewRecorder(runCollect)
	if _, err := sim.Run(in, plan, cl, models, runOpts); err != nil {
		t.Fatal(err)
	}
	refCollect := obs.NewCollectSink()
	refOpts := opts
	refOpts.Recorder = obs.NewRecorder(refCollect)
	if _, err := sim.RunReference(in, plan, cl, models, refOpts); err != nil {
		t.Fatal(err)
	}

	runTree, err := span.Build(runCollect.Events())
	if err != nil {
		t.Fatal(err)
	}
	refTree, err := span.Build(refCollect.Events())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(runTree, refTree) {
		t.Fatal("span trees differ between Run and RunReference")
	}
	runRep, err := critpath.Analyze(runTree, in, cl)
	if err != nil {
		t.Fatal(err)
	}
	refRep, err := critpath.Analyze(refTree, in, cl)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(runRep, refRep) {
		t.Fatal("attribution reports differ between Run and RunReference")
	}
}

func TestAttributionWithTransientFaults(t *testing.T) {
	in, plan, cl, models := generatedCase(t, 8, 42)
	opts := sim.Options{Scheme: switching.Hare, Speculative: true, Seed: 42,
		Faults: &faults.Plan{Rate: 0.2, Seed: 5}}
	res, _, rep := analyzeRun(t, in, plan, cl, models, opts)
	if res.Retries == 0 {
		t.Fatal("no retries injected")
	}
	assertSums(t, rep, res.JobCompletion, res.WeightedJCT)

	// Lost attempts are charged as compute: the faulty run's total
	// weighted compute exceeds the fault-free run's.
	resFree, _, repFree := analyzeRun(t, in, plan, cl, models, sim.Options{
		Scheme: switching.Hare, Speculative: true, Seed: 42,
	})
	if resFree.Retries != 0 {
		t.Fatal("fault-free run retried")
	}
	if rep.Weighted.Compute <= repFree.Weighted.Compute {
		t.Errorf("faulty compute %.6f not above fault-free %.6f",
			rep.Weighted.Compute, repFree.Weighted.Compute)
	}
}

// TestAttributionWithMigration is the deterministic migrated-task
// attribution case: a permanent GPU failure mid-run strands tasks,
// the replanner moves them, and the attribution still telescopes to
// the realized completions.
func TestAttributionWithMigration(t *testing.T) {
	in, plan, cl, models := generatedCase(t, 8, 42)
	failAt := plan.Makespan(in) / 3
	opts := sim.Options{Scheme: switching.Hare, Speculative: true, Seed: 42,
		Faults:    &faults.Plan{Failures: []faults.GPUFailure{{GPU: 1, Time: failAt}}},
		Replanner: sched.NewHare(),
	}
	res, tree, rep := analyzeRun(t, in, plan, cl, models, opts)
	if res.TasksMigrated == 0 {
		t.Fatal("no tasks migrated; move the failure earlier")
	}
	assertSums(t, rep, res.JobCompletion, res.WeightedJCT)

	markers := 0
	for _, s := range tree.Spans {
		if s.Kind == span.KindTask && s.Attempt < 0 {
			markers++
		}
	}
	if markers != res.TasksMigrated {
		t.Errorf("stranded markers = %d, want %d", markers, res.TasksMigrated)
	}
}

func TestPlanAttribution(t *testing.T) {
	in, plan, cl, models := smallCase(t)
	opts := sim.Options{Scheme: switching.Hare, Speculative: true, Seed: 42}
	tree, rep, err := critpath.PlanAttribution(in, plan, cl, models, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	// Identical to an explicit run+build+analyze of the same options.
	_, _, want := analyzeRun(t, in, plan, cl, models, opts)
	if !reflect.DeepEqual(rep, want) {
		t.Fatal("PlanAttribution differs from explicit pipeline")
	}
	// Formatting covers every job and is non-empty.
	for _, ja := range rep.Jobs {
		s, err := rep.FormatJob(ja.Job)
		if err != nil || s == "" {
			t.Errorf("FormatJob(%d): %q, %v", ja.Job, s, err)
		}
	}
	if _, err := rep.FormatJob(99); err == nil {
		t.Error("FormatJob(99) should fail")
	}
}
