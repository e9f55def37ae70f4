package sim

// Tests for the pooled Simulator and the component decomposition that
// backs sharded replay.

import (
	"reflect"
	"testing"

	"hare/internal/core"
	"hare/internal/sched"
	"hare/internal/switching"
)

// TestSimulatorReuseDeterministic replays A, then a different workload
// B, then A again on one Simulator: the two A results must be
// bit-identical (stale state from B must not leak into the arenas),
// and both must match the package-level Run.
func TestSimulatorReuseDeterministic(t *testing.T) {
	in, cl, models := goldenWorkload(t)
	plan, err := sched.NewHare().Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	optsA := Options{Scheme: switching.Hare, Speculative: true}
	optsB := Options{Scheme: switching.Default, UtilBins: 8}

	fresh, err := Run(in, plan, cl, models, optsA)
	if err != nil {
		t.Fatal(err)
	}

	s := NewSimulator()
	runClone := func(opts Options) *Result {
		res, err := s.Run(in, plan, cl, models, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res.Clone()
	}
	a1 := runClone(optsA)
	b := runClone(optsB)
	a2 := runClone(optsA)

	if !reflect.DeepEqual(a1, a2) {
		t.Fatal("re-running A on a reused Simulator diverged from the first A run")
	}
	if !reflect.DeepEqual(a1, fresh) {
		t.Fatal("reused Simulator diverged from package-level Run")
	}
	if reflect.DeepEqual(a1, b) {
		t.Fatal("A and B produced identical results; B did not exercise the arenas")
	}
	if b.UtilSeries == nil || a2.UtilSeries != nil {
		t.Fatal("UtilSeries presence leaked between pooled runs")
	}
}

// TestRunShardedHandles pins that a decomposable schedule really
// takes the sharded path (handled=true) — without this, a regression
// in shardable or components could silently route everything through
// the serial fallback and the equivalence suite would still pass.
func TestRunShardedHandles(t *testing.T) {
	in := &core.Instance{
		Jobs: []*core.Job{
			{ID: 0, Weight: 1, Rounds: 2, Scale: 1},
			{ID: 1, Weight: 2, Rounds: 2, Scale: 1},
		},
		NumGPUs: 2,
		Train:   [][]float64{{1, 1}, {2, 2}},
		Sync:    [][]float64{{0.5, 0.5}, {0.25, 0.25}},
	}
	sch := core.NewSchedule(in)
	sch.Place(core.TaskRef{Job: 0, Round: 0, Index: 0}, 0, 0)
	sch.Place(core.TaskRef{Job: 0, Round: 1, Index: 0}, 0, 1.5)
	sch.Place(core.TaskRef{Job: 1, Round: 0, Index: 0}, 1, 0)
	sch.Place(core.TaskRef{Job: 1, Round: 1, Index: 0}, 1, 2.25)
	var opts Options

	res, err, handled := runSharded(in, sch, nil, nil, opts, 2)
	if !handled {
		t.Fatal("two-component schedule fell back to the serial engine")
	}
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(in, sch, nil, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, want) {
		t.Fatalf("sharded result diverged:\n got %+v\nwant %+v", res, want)
	}

	// Ineligible options must decline immediately.
	uopts := opts
	uopts.UtilBins = 8
	if _, _, handled := runSharded(in, sch, nil, nil, uopts, 2); handled {
		t.Fatal("a utilization-series run must not take the sharded path")
	}
}

// TestShardComponents checks the union-find decomposition on a
// hand-built contact graph: jobs 0 on GPUs {0,1}, job 1 on GPU 2,
// job 2 on GPUs {2,3} (merging with job 1), and GPU 4 idle.
func TestShardComponents(t *testing.T) {
	in := &core.Instance{
		Jobs: []*core.Job{
			{ID: 0, Weight: 1, Rounds: 1, Scale: 2},
			{ID: 1, Weight: 1, Rounds: 1, Scale: 1},
			{ID: 2, Weight: 1, Rounds: 1, Scale: 2},
		},
		NumGPUs: 5,
	}
	seqs := [][]core.TaskRef{
		{{Job: 0, Round: 0, Index: 0}},
		{{Job: 0, Round: 0, Index: 1}},
		{{Job: 1, Round: 0, Index: 0}, {Job: 2, Round: 0, Index: 0}},
		{{Job: 2, Round: 0, Index: 1}},
		nil, // idle GPU joins no shard
	}
	shards := components(in, seqs)
	if len(shards) != 2 {
		t.Fatalf("got %d components, want 2", len(shards))
	}
	got := map[int][2][]int{}
	for _, sh := range shards {
		got[sh.gpus[0]] = [2][]int{sh.gpus, sh.jobs}
	}
	want := map[int][2][]int{
		0: {{0, 1}, {0}},
		2: {{2, 3}, {1, 2}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("components = %v, want %v", got, want)
	}
}
