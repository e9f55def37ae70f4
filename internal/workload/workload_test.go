package workload

import (
	"math"
	"testing"

	"hare/internal/model"
)

func TestGenerateDeterministic(t *testing.T) {
	opts := Options{NumJobs: 30, Seed: 5}
	a := Generate(opts)
	b := Generate(opts)
	for i := range a {
		if a[i].Model != b[i].Model || a[i].Job.Rounds != b[i].Job.Rounds ||
			a[i].Job.Weight != b[i].Job.Weight || a[i].Sync != b[i].Sync {
			t.Fatalf("generation not deterministic at job %d", i)
		}
	}
	c := Generate(Options{NumJobs: 30, Seed: 6})
	same := true
	for i := range a {
		if a[i].Model != c[i].Model || a[i].Job.Rounds != c[i].Job.Rounds {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical workloads")
	}
}

func TestGenerateStructure(t *testing.T) {
	arr := make([]float64, 20)
	for i := range arr {
		arr[i] = float64(i) * 3
	}
	specs := Generate(Options{NumJobs: 20, Arrivals: arr, MaxSync: 4, Seed: 9})
	for i, s := range specs {
		j := s.Job
		if int(j.ID) != i {
			t.Errorf("job %d has ID %d", i, j.ID)
		}
		if j.Arrival != arr[i] {
			t.Errorf("job %d arrival %g, want %g", i, j.Arrival, arr[i])
		}
		if j.Rounds < 1 || j.Scale < 1 || j.Scale > 4 {
			t.Errorf("job %d rounds=%d scale=%d", i, j.Rounds, j.Scale)
		}
		if j.Weight < 1 || j.Weight > 4 {
			t.Errorf("job %d weight %g outside [1,4]", i, j.Weight)
		}
		if j.Scale != s.Sync {
			t.Errorf("job %d scale %d != spec sync %d", i, j.Scale, s.Sync)
		}
		if _, err := model.ByName(s.Model); err != nil {
			t.Errorf("job %d: %v", i, err)
		}
	}
}

func classCounts(specs []*Spec) map[model.Class]int {
	out := make(map[model.Class]int)
	for _, s := range specs {
		out[s.ClassOfJob]++
	}
	return out
}

func TestDefaultMixRoughlyUniform(t *testing.T) {
	specs := Generate(Options{NumJobs: 4000, Seed: 3})
	counts := classCounts(specs)
	for _, c := range model.Classes() {
		frac := float64(counts[c]) / 4000
		if math.Abs(frac-0.25) > 0.03 {
			t.Errorf("class %s fraction %.3f, want ~0.25", c, frac)
		}
	}
}

func TestMixBoost(t *testing.T) {
	m := DefaultMix().Boost(model.NLP, 0.7)
	if math.Abs(m[model.NLP]-0.7) > 1e-9 {
		t.Errorf("NLP weight %g", m[model.NLP])
	}
	var total float64
	//lint:ordered sum is checked against a 1e-9 tolerance below
	for _, w := range m {
		total += w
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("boosted mix sums to %g", total)
	}
	// The others keep their relative proportions (all equal here).
	if math.Abs(m[model.CV]-0.1) > 1e-9 {
		t.Errorf("CV weight %g, want 0.1", m[model.CV])
	}
	// Sampling respects the boost.
	specs := Generate(Options{NumJobs: 3000, Mix: m, Seed: 4})
	counts := classCounts(specs)
	frac := float64(counts[model.NLP]) / 3000
	if math.Abs(frac-0.7) > 0.03 {
		t.Errorf("boosted NLP fraction %.3f, want ~0.7", frac)
	}
}

func TestBoostPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for fraction > 1")
		}
	}()
	DefaultMix().Boost(model.CV, 1.5)
}

func TestRoundsScale(t *testing.T) {
	big := Generate(Options{NumJobs: 50, Seed: 2, RoundsScale: 1})
	small := Generate(Options{NumJobs: 50, Seed: 2, RoundsScale: 0.1})
	var bigSum, smallSum int
	for i := range big {
		bigSum += big[i].Job.Rounds
		smallSum += small[i].Job.Rounds
	}
	ratio := float64(smallSum) / float64(bigSum)
	if ratio > 0.2 {
		t.Errorf("rounds scale 0.1 only reduced totals to %.2f", ratio)
	}
	for _, s := range small {
		if s.Job.Rounds < 1 {
			t.Error("rounds scaled below 1")
		}
	}
}

func TestBatchScalePropagates(t *testing.T) {
	specs := Generate(Options{NumJobs: 5, Seed: 1, BatchScale: 2})
	for _, s := range specs {
		if s.BatchScale() != 2 {
			t.Errorf("batch scale %g", s.BatchScale())
		}
	}
}

func TestGeneratePanicsOnBadInput(t *testing.T) {
	for _, bad := range []func(){
		func() { Generate(Options{NumJobs: 0}) },
		func() { Generate(Options{NumJobs: 3, Arrivals: []float64{1}}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			bad()
		}()
	}
}

func TestJobsExtraction(t *testing.T) {
	specs := Generate(Options{NumJobs: 7, Seed: 8})
	jobs := Jobs(specs)
	if len(jobs) != 7 {
		t.Fatalf("%d jobs", len(jobs))
	}
	for i, j := range jobs {
		if j != specs[i].Job {
			t.Error("Jobs() reordered or copied")
		}
	}
}

func TestGenerateTenants(t *testing.T) {
	base := Options{NumJobs: 7, Seed: 11, RoundsScale: 0.2}
	pops := GenerateTenants(base, 3)
	if len(pops) != 3 {
		t.Fatalf("got %d tenants, want 3", len(pops))
	}
	next := 0
	for ti, specs := range pops {
		if len(specs) != base.NumJobs {
			t.Fatalf("tenant %d has %d jobs, want %d", ti, len(specs), base.NumJobs)
		}
		for _, s := range specs {
			if int(s.Job.ID) != next {
				t.Fatalf("tenant %d: job ID %d, want dense %d", ti, s.Job.ID, next)
			}
			next++
		}
	}
	// Tenant t must equal a standalone population at the strided seed
	// (modulo renumbering), and distinct tenants must differ.
	solo := Generate(Options{NumJobs: 7, Seed: 11 + TenantSeedStride, RoundsScale: 0.2})
	for i, s := range pops[1] {
		if s.Model != solo[i].Model || s.Job.Rounds != solo[i].Job.Rounds ||
			s.Job.Weight != solo[i].Job.Weight || s.Sync != solo[i].Sync {
			t.Fatalf("tenant 1 job %d differs from strided-seed population", i)
		}
	}
	same := true
	for i := range pops[0] {
		if pops[0][i].Model != pops[1][i].Model || pops[0][i].Job.Rounds != pops[1][i].Job.Rounds {
			same = false
		}
	}
	if same {
		t.Fatal("tenant populations 0 and 1 are identical; seeds not independent")
	}
}
