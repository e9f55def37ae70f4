package hare_test

import (
	"math"
	"os"
	"testing"

	"hare"
	"hare/internal/obs"
)

func TestEndToEndPublicAPI(t *testing.T) {
	cl := hare.TestbedCluster()
	specs, in, models, err := hare.BuildWorkload(hare.WorkloadConfig{
		Jobs: 10, Seed: 3, HorizonSeconds: 120, RoundsScale: 0.05,
	}, cl)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 10 || len(models) != 10 || len(in.Jobs) != 10 {
		t.Fatalf("workload sizes %d/%d/%d", len(specs), len(models), len(in.Jobs))
	}
	plan, err := hare.NewScheduler().Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := hare.Validate(in, plan); err != nil {
		t.Fatal(err)
	}
	res, err := hare.Simulate(in, plan, cl, models, hare.SimOptions{
		Scheme: hare.SwitchHare, Speculative: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.WeightedJCT <= 0 || math.IsNaN(res.WeightedJCT) {
		t.Errorf("weighted JCT %g", res.WeightedJCT)
	}
	if u := res.MeanUtilization(); u <= 0 || u > 1 {
		t.Errorf("mean utilization %g", u)
	}
}

func TestAllSchedulersViaFacade(t *testing.T) {
	cl := hare.HeterogeneousCluster(hare.MidHeterogeneity, 6)
	_, in, _, err := hare.BuildWorkload(hare.WorkloadConfig{
		Jobs: 8, Seed: 5, HorizonSeconds: 60, RoundsScale: 0.05,
	}, cl)
	if err != nil {
		t.Fatal(err)
	}
	schedulers := hare.Schedulers()
	if len(schedulers) != 5 {
		t.Fatalf("%d schedulers, want 5", len(schedulers))
	}
	for _, a := range schedulers {
		plan, err := a.Schedule(in)
		if err != nil {
			t.Fatalf("%s: %v", a.Name(), err)
		}
		if err := hare.Validate(in, plan); err != nil {
			t.Fatalf("%s: %v", a.Name(), err)
		}
		byName, err := hare.SchedulerByName(a.Name())
		if err != nil || byName.Name() != a.Name() {
			t.Errorf("SchedulerByName(%q) failed: %v", a.Name(), err)
		}
	}
	if _, err := hare.SchedulerByName("nope"); err == nil {
		t.Error("unknown scheduler accepted")
	}
}

// TestSchedulerRecorderViaFacade: every Hare-family scheme accepts a
// decision recorder and reports each task's placement once, labelled
// with its placement rule; a baseline declines the recorder.
func TestSchedulerRecorderViaFacade(t *testing.T) {
	cl := hare.HeterogeneousCluster(hare.MidHeterogeneity, 6)
	_, in, _, err := hare.BuildWorkload(hare.WorkloadConfig{
		Jobs: 8, Seed: 5, HorizonSeconds: 60, RoundsScale: 0.05,
	}, cl)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ name, note string }{
		{"Hare", "earliest-finish"},
		{"Hare-EA", "earliest-available"},
		{"Hare-strict", "gang"},
		{"Hare-online", "online/earliest-finish"},
	} {
		a, err := hare.SchedulerByName(c.name)
		if err != nil {
			t.Fatal(err)
		}
		sink := obs.NewCollectSink()
		if !hare.SetSchedulerRecorder(a, obs.NewRecorder(sink)) {
			t.Fatalf("%s declined the recorder", c.name)
		}
		plan, err := a.Schedule(in)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		events := sink.Events()
		if len(events) != in.NumTasks() {
			t.Fatalf("%s: %d decision events for %d tasks", c.name, len(events), in.NumTasks())
		}
		seen := make(map[hare.TaskRef]bool)
		for _, e := range events {
			task := hare.TaskRef{Job: hare.JobID(e.Job), Round: e.Round, Index: e.Index}
			p, _ := plan.At(task)
			if e.Type != obs.EvSchedDecision || e.Note != c.note || seen[task] || p.GPU != e.GPU || p.Start != e.Time {
				t.Fatalf("%s: event %+v (want a %v noted %q, once per task, at its placement %+v)", c.name, e, obs.EvSchedDecision, c.note, p)
			}
			seen[task] = true
		}
	}
	if hare.SetSchedulerRecorder(hare.Schedulers()[1], obs.NewRecorder(obs.NewCollectSink())) {
		t.Error("Gavel_FIFO accepted a decision recorder")
	}
}

func TestWorkloadConfigValidation(t *testing.T) {
	if _, _, _, err := hare.BuildWorkload(hare.WorkloadConfig{}, hare.TestbedCluster()); err == nil {
		t.Error("zero job count accepted")
	}
}

func TestModelZooFacade(t *testing.T) {
	if len(hare.ModelZoo()) != 8 {
		t.Errorf("zoo size %d", len(hare.ModelZoo()))
	}
	m, err := hare.ModelByName("GraphSAGE")
	if err != nil {
		t.Fatal(err)
	}
	if m.Speedup(hare.V100.Speed) > 2.4 {
		t.Error("GraphSAGE not input-bound")
	}
	if s := hare.SyncTime(m, 25e9, 2); s <= 0 {
		t.Errorf("sync time %g", s)
	}
}

func TestSwitchCostFacade(t *testing.T) {
	a, _ := hare.ModelByName("VGG19")
	b, _ := hare.ModelByName("ResNet50")
	d := hare.SwitchCost(hare.SwitchDefault, hare.V100, a, b, false).Total()
	h := hare.SwitchCost(hare.SwitchHare, hare.V100, a, b, false).Total()
	if d < 1000*h {
		t.Errorf("default %.4fs vs hare %.6fs: expected ≥3 orders of magnitude", d, h)
	}
}

func TestWorkloadFileViaFacade(t *testing.T) {
	dir := t.TempDir()
	cl := hare.HeterogeneousCluster(hare.HighHeterogeneity, 4)
	specs, _, _, err := hare.BuildWorkload(hare.WorkloadConfig{
		Jobs: 6, Seed: 4, RoundsScale: 0.05, HorizonSeconds: 30,
	}, cl)
	if err != nil {
		t.Fatal(err)
	}
	path := dir + "/wl.json"
	if err := hare.SaveWorkload(path, specs); err != nil {
		t.Fatal(err)
	}
	got, in, models, err := hare.LoadWorkload(path, cl)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 6 || len(models) != 6 {
		t.Fatalf("loaded %d specs / %d models", len(got), len(models))
	}
	plan, err := hare.NewScheduler().Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := hare.Validate(in, plan); err != nil {
		t.Fatal(err)
	}
}

func TestRegisterModelViaFacade(t *testing.T) {
	err := hare.RegisterModel(&hare.Model{
		Name: "FacadeNet", Class: "CV", Dataset: "synthetic", DefaultBatch: 16,
		ParamBytes: 8 << 20, NumLayers: 4,
		K80BatchSeconds: 0.4, ComputeFrac: 0.8,
		SwitchUnitBytes: 2 << 20, TrainFootprintBytes: 64 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := hare.ModelByName("FacadeNet")
	if err != nil {
		t.Fatal(err)
	}
	if m.Speedup(7) <= 1 {
		t.Error("registered model has no speedup on faster GPUs")
	}
}

func TestGoogleArrivalsViaFacade(t *testing.T) {
	// Round-trip through the Google job_events format.
	dir := t.TempDir()
	path := dir + "/job_events.csv"
	if err := writeGoogleFixture(path); err != nil {
		t.Fatal(err)
	}
	arr, err := hare.GoogleArrivals(path, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(arr) != 3 || arr[0] != 0 || arr[2] != 100 {
		t.Fatalf("arrivals %v", arr)
	}
	cl := hare.HeterogeneousCluster(hare.MidHeterogeneity, 4)
	_, in, _, err := hare.BuildWorkload(hare.WorkloadConfig{
		Jobs: 3, Seed: 1, RoundsScale: 0.05, Arrivals: arr,
	}, cl)
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range in.Jobs {
		if j.Arrival != arr[i] {
			t.Errorf("job %d arrival %g, want %g", i, j.Arrival, arr[i])
		}
	}
}

func writeGoogleFixture(path string) error {
	csv := "0,,1,0,u,2,a,la\n5000000,,2,0,u,2,b,lb\n20000000,,3,0,u,2,c,lc\n"
	return os.WriteFile(path, []byte(csv), 0o644)
}

func TestTestbedViaFacade(t *testing.T) {
	cl := hare.NewCluster([]hare.ClusterSpec{{Type: hare.V100, Count: 2}}, 2)
	_, in, models, err := hare.BuildWorkload(hare.WorkloadConfig{
		Jobs: 3, Seed: 9, RoundsScale: 0.03,
	}, cl)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := hare.NewScheduler().Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	res, err := hare.RunTestbed(in, plan, cl, models, hare.TestbedOptions{TimeScale: 5e-4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace.Records) != in.NumTasks() {
		t.Errorf("testbed ran %d tasks, want %d", len(res.Trace.Records), in.NumTasks())
	}
}
