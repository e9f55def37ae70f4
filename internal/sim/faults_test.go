package sim

import (
	"reflect"
	"strings"
	"testing"

	"hare/internal/cluster"
	"hare/internal/core"
	"hare/internal/faults"
	"hare/internal/model"
	"hare/internal/obs"
	"hare/internal/switching"
	"hare/internal/testbed"
	"hare/internal/workload"
)

// TestSimTransientFaultsObservable: a nonzero fault rate produces
// retries, charges their lost GPU time, and leaves the schedule
// feasibility invariants intact.
func TestSimTransientFaultsObservable(t *testing.T) {
	in, cl, models := goldenWorkload(t)
	plan := planFor(t, in)
	clean, err := Run(in, plan, cl, models, Options{Scheme: switching.Hare})
	if err != nil {
		t.Fatal(err)
	}
	ring := obs.NewRingSink(1 << 16)
	res, err := Run(in, plan, cl, models, Options{
		Scheme:   switching.Hare,
		Faults:   &faults.Plan{Rate: 0.1, Seed: 3},
		Recorder: obs.NewRecorder(ring),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Retries == 0 || res.LostSeconds <= 0 {
		t.Fatalf("rate 0.1 produced retries=%d lost=%g — injection inert", res.Retries, res.LostSeconds)
	}
	if res.WeightedJCT <= clean.WeightedJCT {
		t.Errorf("faulty WJCT %g not above fault-free %g", res.WeightedJCT, clean.WeightedJCT)
	}
	assertBarriers(t, in, res)
	var injected int
	for _, e := range ring.Snapshot() {
		if e.Type == obs.EvFaultInjected {
			injected++
		}
	}
	if injected == 0 {
		t.Error("no fault.injected events emitted")
	}
}

// TestSimStragglerSlowsOnlyItsGPU: a straggler factor stretches
// training on the slow GPU and nothing else.
func TestSimStragglerSlowsOnlyItsGPU(t *testing.T) {
	in := twoJobInstance()
	plan := planFor(t, in)
	clean, err := Run(in, plan, nil, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(in, plan, nil, nil, Options{
		Faults: &faults.Plan{Stragglers: []faults.Straggler{{GPU: 1, Factor: 2}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res.Trace.Records {
		want := clean.Trace.Records[i].Train
		if r.GPU == 1 {
			want *= 2
		}
		if r.Train != want {
			t.Errorf("task %v on gpu%d train %g, want %g", r.Task, r.GPU, r.Train, want)
		}
	}
}

// failureWorkload is a mid-sized heterogeneous workload for the
// failure tests (the golden workload is overkill for re-planning).
func failureWorkload(t testing.TB) (*core.Instance, *cluster.Cluster, []*model.Model) {
	t.Helper()
	cl := cluster.Heterogeneous(cluster.HighHeterogeneity, 6)
	specs := workload.Generate(workload.Options{
		NumJobs: 8, RoundsScale: 0.1, MaxSync: cl.Size(), Seed: 17,
	})
	in := &core.Instance{NumGPUs: cl.Size()}
	for _, s := range specs {
		m := model.MustByName(s.Model)
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
	models := make([]*model.Model, len(specs))
	for i, s := range specs {
		models[i] = model.MustByName(s.Model)
	}
	return in, cl, models
}

// TestSimFailureRescheduleCompletes: permanent GPU failures strand
// work, the replanner migrates it, and the run still executes every
// task exactly once while respecting the round barriers. Dead GPUs
// start nothing after their failure instant.
func TestSimFailureRescheduleCompletes(t *testing.T) {
	in, cl, models := failureWorkload(t)
	plan := planFor(t, in)
	clean, err := Run(in, plan, cl, models, Options{Scheme: switching.Hare})
	if err != nil {
		t.Fatal(err)
	}
	failAt := map[int]float64{2: clean.Makespan * 0.25, 4: clean.Makespan * 0.55}
	ring := obs.NewRingSink(1 << 16)
	res, err := Run(in, plan, cl, models, Options{
		Scheme: switching.Hare,
		Faults: &faults.Plan{Failures: []faults.GPUFailure{
			{GPU: 2, Time: failAt[2]},
			{GPU: 4, Time: failAt[4], Crash: true},
		}},
		Recorder: obs.NewRecorder(ring),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.FailedGPUs, []int{2, 4}) {
		t.Errorf("FailedGPUs = %v, want [2 4]", res.FailedGPUs)
	}
	if res.GPUFailures != 2 || res.Reschedules != 2 {
		t.Errorf("failures=%d reschedules=%d, want 2 and 2", res.GPUFailures, res.Reschedules)
	}
	if res.TasksMigrated < 1 {
		t.Errorf("tasks migrated = %d, want >= 1", res.TasksMigrated)
	}
	// Exactly-once execution of the full instance.
	if len(res.Trace.Records) != in.NumTasks() {
		t.Fatalf("executed %d tasks, want %d", len(res.Trace.Records), in.NumTasks())
	}
	seen := make(map[core.TaskRef]bool)
	for _, r := range res.Trace.Records {
		if seen[r.Task] {
			t.Errorf("task %v executed twice", r.Task)
		}
		seen[r.Task] = true
		if ft, dead := failAt[r.GPU]; dead && r.Start > ft {
			t.Errorf("task %v starts on dead gpu%d at %g (failed at %g)", r.Task, r.GPU, r.Start, ft)
		}
	}
	assertBarriers(t, in, res)
	// Losing a third of the fleet cannot speed the workload up.
	if res.Makespan < clean.Makespan {
		t.Errorf("makespan with failures %g below fault-free %g", res.Makespan, clean.Makespan)
	}
	var migrated int
	for _, e := range ring.Snapshot() {
		if e.Type == obs.EvTaskMigrated {
			migrated++
		}
	}
	if migrated != res.TasksMigrated {
		t.Errorf("task.migrated events = %d, result says %d", migrated, res.TasksMigrated)
	}
}

// TestSimFailureSurvivorsFewerThanScale: when failures leave fewer
// GPUs than some job's Scale, the residual's virtual round splitting
// keeps the re-plan feasible — relaxed scale-fixed sync lets the wide
// rounds serialize on the survivors — and the run still executes every
// task exactly once.
func TestSimFailureSurvivorsFewerThanScale(t *testing.T) {
	in, cl, models := failureWorkload(t)
	maxScale := 0
	for _, j := range in.Jobs {
		if j.Scale > maxScale {
			maxScale = j.Scale
		}
	}
	if maxScale <= 2 {
		t.Fatalf("workload max scale %d does not exceed the 2 survivors — test is inert", maxScale)
	}
	plan := planFor(t, in)
	clean, err := Run(in, plan, cl, models, Options{Scheme: switching.Hare})
	if err != nil {
		t.Fatal(err)
	}
	var fp faults.Plan
	for i, g := range []int{1, 2, 3, 4} { // survivors: 0 and 5
		fp.Failures = append(fp.Failures, faults.GPUFailure{
			GPU: g, Time: clean.Makespan * float64(i+1) / 6,
		})
	}
	res, err := Run(in, plan, cl, models, Options{Scheme: switching.Hare, Faults: &fp})
	if err != nil {
		t.Fatal(err)
	}
	if res.GPUFailures != 4 || res.Reschedules != 4 {
		t.Errorf("failures=%d reschedules=%d, want 4 and 4", res.GPUFailures, res.Reschedules)
	}
	if len(res.Trace.Records) != in.NumTasks() {
		t.Fatalf("executed %d tasks, want %d", len(res.Trace.Records), in.NumTasks())
	}
	seen := make(map[core.TaskRef]bool)
	for _, r := range res.Trace.Records {
		if seen[r.Task] {
			t.Errorf("task %v executed twice", r.Task)
		}
		seen[r.Task] = true
	}
	assertBarriers(t, in, res)
}

// TestSimFailureDeterminism: the same failure plan replays to the
// exact same Result, trace included.
func TestSimFailureDeterminism(t *testing.T) {
	in, cl, models := failureWorkload(t)
	plan := planFor(t, in)
	opts := Options{
		Scheme:      switching.Hare,
		Speculative: true,
		Faults: &faults.Plan{
			Rate: 0.05, Seed: 5,
			Failures:   []faults.GPUFailure{{GPU: 1, Time: 40}},
			Stragglers: []faults.Straggler{{GPU: 3, Factor: 1.3}},
		},
	}
	a, err := Run(in, plan, cl, models, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(in, plan, cl, models, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("same failure plan replayed to different results")
	}
}

// TestSimAllGPUsFailingIsUnrecoverable.
func TestSimAllGPUsFailingIsUnrecoverable(t *testing.T) {
	in := twoJobInstance()
	plan := planFor(t, in)
	_, err := Run(in, plan, nil, nil, Options{
		Faults: &faults.Plan{Failures: []faults.GPUFailure{
			{GPU: 0, Time: 0}, {GPU: 1, Time: 0},
		}},
	})
	if err == nil || !strings.Contains(err.Error(), "no surviving GPUs") {
		t.Errorf("err = %v, want unrecoverable-run error", err)
	}
}

// TestReferenceRejectsFailurePlans: the reference engine owns no
// failure loop and must say so rather than silently ignore the plan.
func TestReferenceRejectsFailurePlans(t *testing.T) {
	in := twoJobInstance()
	plan := planFor(t, in)
	_, err := RunReference(in, plan, nil, nil, Options{
		Faults: &faults.Plan{Failures: []faults.GPUFailure{{GPU: 0, Time: 1}}},
	})
	if err == nil || !strings.Contains(err.Error(), "RunReference") {
		t.Errorf("err = %v, want RunReference rejection", err)
	}
}

// TestSimRetriesMatchTestbed: for the same plan and (rate, seed) the
// simulator and the in-process testbed lose the same number of
// attempts — the per-GPU positional fault streams are the contract
// that makes fault experiments transferable between backends.
func TestSimRetriesMatchTestbed(t *testing.T) {
	in, cl, models := failureWorkload(t)
	plan := planFor(t, in)
	fp := &faults.Plan{Rate: 0.2, Seed: 9}
	simRes, err := Run(in, plan, cl, models, Options{Scheme: switching.Hare, Faults: fp})
	if err != nil {
		t.Fatal(err)
	}
	tbRes, err := testbed.Run(in, plan, cl, models, testbed.Options{TimeScale: 1e-4, Faults: fp})
	if err != nil {
		t.Fatal(err)
	}
	if simRes.Retries == 0 {
		t.Fatal("rate 0.2 produced zero retries")
	}
	if simRes.Retries != tbRes.Retries {
		t.Errorf("sim retries %d != testbed retries %d", simRes.Retries, tbRes.Retries)
	}
}
