package experiments

import (
	"math"
	"reflect"
	"testing"

	"hare/internal/obs/critpath"
	"hare/internal/sched"
)

// bucketSum adds an attribution vector's buckets in field order.
func bucketSum(b critpath.Buckets) float64 {
	return b.Arrival + b.Queue + b.BarrierWait + b.Switch + b.Compute + b.Comm
}

func attribSweepConfig() Config {
	return Config{
		Seed: 42, RoundsScale: 0.05, Jobs: 8, GPUs: 6,
		HorizonSeconds: 60,
	}
}

// TestAttribSweepAccountsForWJCT: every scheme's report telescopes —
// per-job buckets sum to completions, the weighted roll-up matches the
// scheme's WJCT — and the sweep is reproducible from its seed.
func TestAttribSweepAccountsForWJCT(t *testing.T) {
	cfg := attribSweepConfig()
	rows, err := AttribSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(sched.All()) {
		t.Fatalf("got %d rows, want one per scheduler (%d)", len(rows), len(sched.All()))
	}
	const eps = 1e-9
	for _, r := range rows {
		if r.WeightedJCT <= 0 {
			t.Errorf("%s: WJCT %g", r.Scheme, r.WeightedJCT)
		}
		if d := math.Abs(r.Report.WeightedJCT - r.WeightedJCT); d > eps {
			t.Errorf("%s: report WJCT off row WJCT by %.3g", r.Scheme, d)
		}
		for _, ja := range r.Report.Jobs {
			if d := math.Abs(bucketSum(ja.Buckets) - ja.Completion); d > eps*ja.Completion {
				t.Errorf("%s job %d: buckets sum off completion by %.3g", r.Scheme, ja.Job, d)
			}
		}
		if len(r.Report.Stragglers) == 0 {
			t.Errorf("%s: no stragglers reported", r.Scheme)
		}
	}

	again, err := AttribSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows, again) {
		t.Error("attrib sweep not reproducible from its seed")
	}
}

// TestAttribSweepParallelMatchesSerial: rows are independent, so the
// pooled sweep must equal the serial one bit-for-bit.
func TestAttribSweepParallelMatchesSerial(t *testing.T) {
	serial := attribSweepConfig()
	serial.Parallel = 1
	par := attribSweepConfig()
	par.Parallel = 4
	a, err := AttribSweep(serial)
	if err != nil {
		t.Fatal(err)
	}
	b, err := AttribSweep(par)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("parallel attrib sweep diverged from serial")
	}
}
