package profile

import (
	"math"
	"path/filepath"
	"testing"

	"hare/internal/cluster"
	"hare/internal/core"
	"hare/internal/model"
)

func TestTrainTimeScalesWithGPU(t *testing.T) {
	p := New(Options{})
	m := model.MustByName("ResNet50")
	k80 := p.TrainTime(m, cluster.K80, 1)
	v100 := p.TrainTime(m, cluster.V100, 1)
	if math.Abs(k80/v100-7) > 0.01 {
		t.Errorf("ResNet50 K80/V100 ratio %.2f, want 7 (Fig. 2)", k80/v100)
	}
	// Task = 20 batches by default.
	if math.Abs(k80-20*m.K80BatchSeconds) > 1e-9 {
		t.Errorf("K80 task time %g, want %g", k80, 20*m.K80BatchSeconds)
	}
}

func TestDatabaseReuse(t *testing.T) {
	p := New(Options{MeasureJitter: 0.05, Seed: 1})
	m := model.MustByName("Bert_base")
	a := p.TrainTime(m, cluster.T4, 1)
	b := p.TrainTime(m, cluster.T4, 1)
	if a != b {
		t.Error("repeated profile returned a different (re-measured) time")
	}
	st := p.Stats()
	if st.Measured != 1 || st.Hits != 1 {
		t.Errorf("stats %+v, want 1 measured + 1 hit", st)
	}
	// A different batch scale is a different key.
	p.TrainTime(m, cluster.T4, 2)
	if st := p.Stats(); st.Measured != 2 {
		t.Errorf("batch scale change not re-measured: %+v", st)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "db.json")
	p := New(Options{MeasureJitter: 0.1, Seed: 7})
	m := model.MustByName("VGG19")
	orig := p.TrainTime(m, cluster.M60, 1)
	if err := p.Save(path); err != nil {
		t.Fatal(err)
	}
	q := New(Options{MeasureJitter: 0.1, Seed: 99}) // different noise stream
	if err := q.Load(path); err != nil {
		t.Fatal(err)
	}
	if got := q.TrainTime(m, cluster.M60, 1); got != orig {
		t.Errorf("loaded DB returned %g, want the saved %g", got, orig)
	}
	if st := q.Stats(); st.Measured != 0 {
		t.Errorf("loaded profiler re-measured: %+v", st)
	}
}

func TestLoadRejectsMismatchedGranularity(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "db.json")
	p := New(Options{BatchesPerTask: 10})
	p.TrainTime(model.MustByName("FastGCN"), cluster.K80, 1)
	if err := p.Save(path); err != nil {
		t.Fatal(err)
	}
	q := New(Options{BatchesPerTask: 20})
	if err := q.Load(path); err == nil {
		t.Error("mismatched batches-per-task accepted")
	}
}

func TestSyncTime(t *testing.T) {
	m := model.MustByName("ResNet50") // 102 MiB
	s1 := SyncTime(m, 25e9, 1)
	want := 2 * float64(m.ParamBytes) / (25e9 / 8)
	if math.Abs(s1-want) > 1e-9 {
		t.Errorf("sync %g, want %g", s1, want)
	}
	// Contention grows sublinearly with the scale.
	s4 := SyncTime(m, 25e9, 4)
	if math.Abs(s4/s1-2) > 1e-9 {
		t.Errorf("scale-4 contention factor %g, want 2 (=sqrt 4)", s4/s1)
	}
	// Slower networks mean longer sync.
	if SyncTime(m, 10e9, 1) <= s1 {
		t.Error("10 Gbps sync not slower than 25 Gbps")
	}
}

func TestSyncBelowTrainOnTestbedNetwork(t *testing.T) {
	// The paper assumes T^c > T^s on the 25 Gbps testbed; the
	// calibration must respect that for every Table 2 model on every
	// GPU type.
	p := New(Options{})
	for _, m := range model.Zoo() {
		syncT := SyncTime(m, 25e9, 2)
		for _, g := range []cluster.GPUType{cluster.V100, cluster.T4, cluster.K80, cluster.M60} {
			if tr := p.TrainTime(m, g, 1); tr <= syncT {
				t.Errorf("%s on %s: T^c=%.2fs <= T^s=%.2fs", m.Name, g.Name, tr, syncT)
			}
		}
	}
}

type fakeSpec struct {
	model string
	batch float64
	scale int
}

func (f fakeSpec) ModelName() string   { return f.model }
func (f fakeSpec) BatchScale() float64 { return f.batch }
func (f fakeSpec) SyncScale() int      { return f.scale }

func TestBuildInstance(t *testing.T) {
	cl := cluster.New([]cluster.Spec{{Type: cluster.V100, Count: 2}, {Type: cluster.K80, Count: 1}}, 4)
	jobs := []*core.Job{
		{ID: 0, Name: "a", Weight: 1, Rounds: 2, Scale: 2},
		{ID: 1, Name: "b", Weight: 1, Rounds: 1, Scale: 1},
	}
	specs := []JobSpec{
		fakeSpec{model: "ResNet50", batch: 1, scale: 2},
		fakeSpec{model: "GraphSAGE", batch: 1, scale: 1},
	}
	p := New(Options{})
	in, err := p.BuildInstance(jobs, specs, cl)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	if in.NumGPUs != 3 {
		t.Errorf("instance has %d GPUs", in.NumGPUs)
	}
	// Same GPU type ⇒ same time; V100 faster than K80.
	if in.Train[0][0] != in.Train[0][1] {
		t.Error("identical GPUs profiled differently")
	}
	if in.Train[0][0] >= in.Train[0][2] {
		t.Error("V100 not faster than K80")
	}
}

// TestDatabaseAmortizesAcrossJobs reproduces the paper's §3 claim:
// repeatedly submitted jobs skip profiling. 100 jobs over 8 models ×
// 2 GPU types need at most 16 measurements.
func TestDatabaseAmortizesAcrossJobs(t *testing.T) {
	cl := cluster.New([]cluster.Spec{{Type: cluster.V100, Count: 4}, {Type: cluster.K80, Count: 4}}, 4)
	p := New(Options{})
	var jobs []*core.Job
	var specs []JobSpec
	var names []string
	for _, m := range model.Zoo() {
		names = append(names, m.Name)
	}
	for i := 0; i < 100; i++ {
		jobs = append(jobs, &core.Job{ID: core.JobID(i), Name: "j", Weight: 1, Rounds: 1, Scale: 1})
		specs = append(specs, fakeSpec{model: names[i%len(names)], batch: 1, scale: 1})
	}
	if _, err := p.BuildInstance(jobs, specs, cl); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Measured > 16 {
		t.Errorf("profiler measured %d entries for 100 jobs; database reuse broken", st.Measured)
	}
	if st.Hits < 100 {
		t.Errorf("only %d database hits for 100 jobs × 8 GPUs", st.Hits)
	}
}

func TestBuildInstanceErrors(t *testing.T) {
	cl := cluster.New([]cluster.Spec{{Type: cluster.V100, Count: 1}}, 1)
	p := New(Options{})
	jobs := []*core.Job{{ID: 0, Name: "a", Weight: 1, Rounds: 1, Scale: 1}}
	if _, err := p.BuildInstance(jobs, nil, cl); err == nil {
		t.Error("mismatched specs accepted")
	}
	if _, err := p.BuildInstance(jobs, []JobSpec{fakeSpec{model: "nope", batch: 1, scale: 1}}, cl); err == nil {
		t.Error("unknown model accepted")
	}
}
