package trace

import (
	"math"
	"path/filepath"
	"sort"
	"testing"

	"hare/internal/core"
)

func TestArrivalsSortedAndSpanHorizon(t *testing.T) {
	arr := Arrivals(50, 1000, 3)
	if len(arr) != 50 {
		t.Fatalf("%d arrivals", len(arr))
	}
	if !sort.Float64sAreSorted(arr) {
		t.Error("arrivals not sorted")
	}
	if arr[0] != 0 {
		t.Errorf("first arrival %g, want 0", arr[0])
	}
	if math.Abs(arr[len(arr)-1]-1000) > 1e-6 {
		t.Errorf("last arrival %g, want 1000", arr[len(arr)-1])
	}
}

func TestArrivalsDeterministic(t *testing.T) {
	a := Arrivals(20, 500, 7)
	b := Arrivals(20, 500, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("not deterministic")
		}
	}
}

func TestArrivalsBursty(t *testing.T) {
	arr := Arrivals(200, 10000, 11)
	gaps := make([]float64, len(arr)-1)
	for i := 1; i < len(arr); i++ {
		gaps[i-1] = arr[i] - arr[i-1]
	}
	sort.Float64s(gaps)
	// Heavy-tailed: the largest gap dwarfs the median.
	median := gaps[len(gaps)/2]
	if gaps[len(gaps)-1] < 10*median {
		t.Errorf("max gap %.1f not ≫ median %.1f — arrivals not bursty", gaps[len(gaps)-1], median)
	}
}

func TestArrivalsEdgeCases(t *testing.T) {
	if got := Arrivals(1, 100, 1); len(got) != 1 || got[0] != 0 {
		t.Errorf("single arrival %v", got)
	}
	if got := Arrivals(3, 0, 1); got[2] != 0 {
		t.Errorf("zero horizon arrivals %v", got)
	}
}

func sampleTrace() *Trace {
	tr := &Trace{}
	tr.Add(TaskRecord{Task: core.TaskRef{Job: 0, Round: 1}, GPU: 0, Start: 5, Train: 2, Sync: 1})
	tr.Add(TaskRecord{Task: core.TaskRef{Job: 0, Round: 0}, GPU: 1, Start: 0, Train: 3, Sync: 1})
	tr.Add(TaskRecord{Task: core.TaskRef{Job: 1, Round: 0}, GPU: 0, Start: 1, Train: 4, Sync: 0.5})
	return tr
}

func TestMeanTimes(t *testing.T) {
	mt := sampleTrace().MeanTimes()
	if m := mt[0]; math.Abs(m.Train-2.5) > 1e-9 || math.Abs(m.Sync-1) > 1e-9 {
		t.Errorf("job 0 means %+v", m)
	}
	if m := mt[1]; m.Train != 4 || m.Sync != 0.5 {
		t.Errorf("job 1 means %+v", m)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	tr := sampleTrace()
	if err := tr.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != len(tr.Records) {
		t.Fatalf("loaded %d records, want %d", len(got.Records), len(tr.Records))
	}
	for i := range got.Records {
		if got.Records[i] != tr.Records[i] {
			t.Errorf("record %d mismatch: %+v vs %+v", i, got.Records[i], tr.Records[i])
		}
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}
