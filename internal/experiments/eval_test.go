package experiments

import (
	"math"
	"reflect"
	"testing"

	"hare/internal/cluster"
	"hare/internal/core"
	"hare/internal/sched"
	"hare/internal/sim"
	"hare/internal/testbed"
	"hare/internal/trace"
)

func TestFig11StabilityLowVariance(t *testing.T) {
	rows, err := Fig11Stability(Config{RoundsScale: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.TrainMean <= 0 || r.SyncMean <= 0 {
			t.Errorf("%s: degenerate means %+v", r.Model, r)
		}
		// The paper's point: per-round times are stable. On the
		// testbed's virtual clock they are exact, so any CoV here is a
		// regression in the replay, not noise.
		if r.TrainCoV > 0.25 {
			t.Errorf("%s: train CoV %.1f%% — not stable across rounds", r.Model, r.TrainCoV*100)
		}
	}
}

func TestFig12TestbedSmall(t *testing.T) {
	cfg := smallCfg()
	cfg.RoundsScale = 0.04
	rows, err := Fig12Testbed(cfg, Fig12Options{TestbedSchemes: []string{"Hare", "Sched_Allox"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	seenTB := 0
	for _, r := range rows {
		if r.SimWeightedJCT <= 0 {
			t.Errorf("%s: sim JCT %g", r.Scheme, r.SimWeightedJCT)
		}
		if !math.IsNaN(r.TestbedWeightedJCT) {
			seenTB++
			if r.GapPercent > 25 {
				t.Errorf("%s: sim/testbed gap %.1f%%", r.Scheme, r.GapPercent)
			}
		}
	}
	if seenTB != 2 {
		t.Errorf("%d testbed rows, want 2", seenTB)
	}
}

// TestFig12VirtualMatchesSim: on the virtual clock (TimeScale 0) the
// in-process testbed replays each of Fig. 12's five seed-42 plans as the
// simulator does — weighted JCT, and every task's start and end, within
// 1e-9 — and a second run is bit-identical, losses and accept order
// included. What separates the wall-clock column from the simulator is
// then the wall clock alone.
func TestFig12VirtualMatchesSim(t *testing.T) {
	cfg := Config{}.Defaults()
	cfg.HorizonSeconds = math.Min(cfg.HorizonSeconds, 600)
	cl := cluster.Testbed()
	in, _, models, err := buildWorkload(cfg, cl, fig12Jobs, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range sched.All() {
		plan, err := a.Schedule(in)
		if err != nil {
			t.Fatal(err)
		}
		so := cfg.simOptions(a.Name())
		want, err := sim.Run(in, plan, cl, models, so)
		if err != nil {
			t.Fatal(err)
		}
		run := func() *testbed.Result {
			res, err := testbed.Run(in, plan, cl, models, testbed.Options{Scheme: so.Scheme, Speculative: so.Speculative})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		got := run()
		if d := math.Abs(got.WeightedJCT - want.WeightedJCT); d > 1e-9*want.WeightedJCT {
			t.Errorf("%s: virtual testbed WJCT %.17g, simulator %.17g", a.Name(), got.WeightedJCT, want.WeightedJCT)
		}
		if len(got.Trace.Records) != len(want.Trace.Records) {
			t.Fatalf("%s: %d testbed records, %d simulated", a.Name(), len(got.Trace.Records), len(want.Trace.Records))
		}
		simRec := make(map[core.TaskRef]trace.TaskRecord, len(want.Trace.Records))
		for _, r := range want.Trace.Records {
			simRec[r.Task] = r
		}
		for _, r := range got.Trace.Records {
			w := simRec[r.Task]
			if tol := 1e-9 * math.Max(1, w.End()); math.Abs(r.Start-w.Start) > tol || math.Abs(r.End()-w.End()) > tol {
				t.Fatalf("%s: task %v ran [%.17g, %.17g] on the virtual testbed, [%.17g, %.17g] simulated",
					a.Name(), r.Task, r.Start, r.End(), w.Start, w.End())
			}
		}
		if again := run(); !reflect.DeepEqual(got, again) {
			t.Errorf("%s: two virtual runs of one plan differ", a.Name())
		}
	}
}

func TestFig13CDFMonotone(t *testing.T) {
	rows, err := Fig13CDF(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		for i := 1; i < len(r.Fractions); i++ {
			if r.Fractions[i] < r.Fractions[i-1] {
				t.Errorf("%s: CDF not monotone at %d", r.Scheme, i)
			}
		}
		if last := r.Fractions[len(r.Fractions)-1]; last < 0 || last > 1 {
			t.Errorf("%s: CDF tail %g", r.Scheme, last)
		}
	}
}

func TestFig15GapsGrowWithLoad(t *testing.T) {
	rows, err := Fig15JobSweep(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	gap := func(row SweepRow) float64 {
		var hare, worst float64
		for _, r := range row.Results {
			if r.Scheme == "Hare" {
				hare = r.WeightedJCT
			} else if r.WeightedJCT > worst {
				worst = r.WeightedJCT
			}
		}
		return worst / hare
	}
	low, high := rows[0], rows[len(rows)-1]
	g0, g1 := gap(low), gap(high)
	t.Logf("worst/Hare gap: %s %.2f, %s %.2f", low.Label, g0, high.Label, g1)
	if g1 < 1 {
		t.Errorf("Hare lost to the worst baseline at high load (gap %.2f)", g1)
	}
}

func TestFig16HareDominatesAtHighHeterogeneity(t *testing.T) {
	rows, err := Fig16Heterogeneity(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	high := rows[len(rows)-1]
	hare, err := findResult(high.Results, "Hare")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range high.Results {
		if r.Scheme != "Hare" && hare.WeightedJCT > r.WeightedJCT*1.02 {
			t.Errorf("high heterogeneity: Hare %.0f worse than %s %.0f",
				hare.WeightedJCT, r.Scheme, r.WeightedJCT)
		}
	}
}

func TestFig17NLPHeavier(t *testing.T) {
	byClass, err := Fig17JobMix(smallCfg()) // 25, 40, 55, 70 %
	if err != nil {
		t.Fatal(err)
	}
	nlp := byClass["NLP"]
	hare25, err := findResult(nlp[0].Results, "Hare")
	if err != nil {
		t.Fatal(err)
	}
	hare70, err := findResult(nlp[3].Results, "Hare")
	if err != nil {
		t.Fatal(err)
	}
	if hare70.WeightedJCT <= hare25.WeightedJCT {
		t.Errorf("boosting NLP did not increase JCT: %.0f vs %.0f",
			hare70.WeightedJCT, hare25.WeightedJCT)
	}
	rec := byClass["Rec"]
	rec25, _ := findResult(rec[0].Results, "Hare")
	rec70, _ := findResult(rec[3].Results, "Hare")
	if rec70.WeightedJCT >= rec25.WeightedJCT {
		t.Errorf("boosting Rec did not decrease JCT: %.0f vs %.0f",
			rec70.WeightedJCT, rec25.WeightedJCT)
	}
}

func TestFig18FasterNetworkHelps(t *testing.T) {
	rows, err := Fig18Bandwidth(smallCfg()) // 10, 15, 20, 25 Gbps
	if err != nil {
		t.Fatal(err)
	}
	slow, _ := findResult(rows[0].Results, "Hare")
	fast, _ := findResult(rows[len(rows)-1].Results, "Hare")
	if fast.WeightedJCT > slow.WeightedJCT*1.001 {
		t.Errorf("25 Gbps (%.0f) not better than 10 Gbps (%.0f)", fast.WeightedJCT, slow.WeightedJCT)
	}
}

func TestFig19RoughlyFlat(t *testing.T) {
	rows, err := Fig19BatchSize(smallCfg()) // 0.5, 1, 2 × B0
	if err != nil {
		t.Fatal(err)
	}
	small, _ := findResult(rows[0].Results, "Hare")
	big, _ := findResult(rows[len(rows)-1].Results, "Hare")
	ratio := big.WeightedJCT / small.WeightedJCT
	t.Logf("Hare JCT ratio 2xB0 / 0.5xB0 = %.2f", ratio)
	// Total samples are held constant, so the effect is modest.
	if ratio > 1.8 || ratio < 0.5 {
		t.Errorf("batch size had outsized effect: ratio %.2f", ratio)
	}
}

func TestAblationOnlineCompetitive(t *testing.T) {
	rows, err := AblationOnline(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	off, err := findResult(rows, "Hare")
	if err != nil {
		t.Fatal(err)
	}
	on, err := findResult(rows, "Hare-online")
	if err != nil {
		t.Fatal(err)
	}
	ratio := on.WeightedJCT / off.WeightedJCT
	t.Logf("online/offline = %.3f", ratio)
	if ratio > 1.6 {
		t.Errorf("online variant %.2fx worse than offline", ratio)
	}
}
