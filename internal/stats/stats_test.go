package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed diverged")
		}
	}
	if New(1).Int63() == New(2).Int63() {
		t.Error("different seeds produced identical first draw")
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split()
	c2 := parent.Split()
	if c1.Int63() == c2.Int63() {
		t.Error("sibling streams identical")
	}
	// Splitting is deterministic given the parent seed.
	p2 := New(7)
	d1 := p2.Split()
	if d1.Int63() != New(7).Split().Int63() {
		t.Error("split not reproducible")
	}
}

func TestUniformRange(t *testing.T) {
	rng := New(3)
	f := func(seed int64) bool {
		lo, hi := 2.0, 9.0
		x := rng.Uniform(lo, hi)
		return x >= lo && x < hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLogUniformBounds(t *testing.T) {
	rng := New(11)
	for i := 0; i < 1000; i++ {
		x := rng.LogUniform(1, 1000)
		if x < 1 || x > 1000 {
			t.Fatalf("LogUniform out of range: %g", x)
		}
	}
}

func TestJitterBounds(t *testing.T) {
	rng := New(17)
	for i := 0; i < 1000; i++ {
		x := rng.Jitter(10, 0.05)
		if x < 9.5 || x > 10.5 {
			t.Fatalf("Jitter out of range: %g", x)
		}
	}
}

func TestWeightedChoiceDistribution(t *testing.T) {
	rng := New(19)
	weights := []float64{1, 0, 3}
	counts := make([]int, 3)
	const n = 30000
	for i := 0; i < n; i++ {
		counts[rng.WeightedChoice(weights)]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight index chosen %d times", counts[1])
	}
	frac0 := float64(counts[0]) / n
	if math.Abs(frac0-0.25) > 0.02 {
		t.Errorf("index 0 fraction %.3f, want ~0.25", frac0)
	}
}

func TestWeightedChoicePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for empty weights")
		}
	}()
	New(1).WeightedChoice(nil)
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	if p := Percentile(xs, 0.5); p != 3 {
		t.Errorf("median %g, want 3", p)
	}
	if p := Percentile(xs, 0); p != 1 {
		t.Errorf("p0 %g, want 1", p)
	}
	if p := Percentile(xs, 1); p != 5 {
		t.Errorf("p100 %g, want 5", p)
	}
	// Interpolation between order statistics.
	if p := Percentile([]float64{0, 10}, 0.25); p != 2.5 {
		t.Errorf("p25 of {0,10} = %g, want 2.5", p)
	}
	// Input must not be mutated.
	if !sort.Float64sAreSorted([]float64{1, 2, 3, 4, 5}) {
		t.Fatal("sanity")
	}
	orig := []float64{5, 1, 3}
	Percentile(orig, 0.5)
	if orig[0] != 5 || orig[1] != 1 || orig[2] != 3 {
		t.Error("Percentile mutated its input")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || s.Mean != 5 {
		t.Errorf("N=%d mean=%g", s.N, s.Mean)
	}
	if math.Abs(s.Stddev-2) > 1e-9 {
		t.Errorf("stddev %g, want 2", s.Stddev)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Errorf("min/max %g/%g", s.Min, s.Max)
	}
	if Summarize(nil).N != 0 {
		t.Error("empty summary not zero")
	}
}

func TestCDFMonotonic(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		thresholds := []float64{-1, 0, 0.5, 1, 2}
		cdf := CDF(raw, thresholds)
		for i := 1; i < len(cdf); i++ {
			if cdf[i] < cdf[i-1] {
				return false
			}
		}
		for _, c := range cdf {
			if c < 0 || c > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMeanSum(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Error("Mean wrong")
	}
}

// TestReseedMatchesFresh: after any amount of prior consumption,
// Reseed(s) must put the stream into exactly New(s)'s state — the
// property the pooled simulator relies on to keep jitter and fault
// draws byte-identical across reused run state.
func TestReseedMatchesFresh(t *testing.T) {
	reused := New(1)
	for i := 0; i < 137; i++ { // dirty the stream
		reused.Float64()
	}
	for _, seed := range []int64{0, 42, -7, 1 << 40} {
		fresh := New(seed)
		reused.Reseed(seed)
		for i := 0; i < 200; i++ {
			if a, b := fresh.Float64(), reused.Float64(); a != b {
				t.Fatalf("seed %d draw %d: fresh %g, reseeded %g", seed, i, a, b)
			}
			if a, b := fresh.Int63(), reused.Int63(); a != b {
				t.Fatalf("seed %d draw %d: fresh int %d, reseeded %d", seed, i, a, b)
			}
		}
	}
}
