package experiments

import (
	"math"
	"testing"
	"time"

	"hare/internal/switching"
)

// smallCfg shrinks every experiment to test scale.
func smallCfg() Config {
	return Config{
		Seed:           7,
		RoundsScale:    0.08,
		Jobs:           16,
		GPUs:           12,
		HorizonSeconds: 300,
	}
}

func TestFig1ToyOrdering(t *testing.T) {
	rows, in, err := Fig1Toy()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	oblivious, allox, hare := rows[0], rows[1], rows[2]
	t.Logf("oblivious: total %.2f makespan %.2f", oblivious.TotalJCT, oblivious.Makespan)
	t.Logf("allox:     total %.2f makespan %.2f", allox.TotalJCT, allox.Makespan)
	t.Logf("hare:      total %.2f makespan %.2f", hare.TotalJCT, hare.Makespan)
	if !(hare.TotalJCT <= allox.TotalJCT+1e-9) {
		t.Errorf("Hare total JCT %.3f worse than AlloX %.3f", hare.TotalJCT, allox.TotalJCT)
	}
	if !(hare.TotalJCT <= oblivious.TotalJCT+1e-9) {
		t.Errorf("Hare total JCT %.3f worse than oblivious %.3f", hare.TotalJCT, oblivious.TotalJCT)
	}
	if in.NumGPUs != 3 {
		t.Errorf("toy instance has %d GPUs", in.NumGPUs)
	}
}

func TestFig2SpeedupShape(t *testing.T) {
	rows := Fig2Speedups()
	if len(rows) != 8 {
		t.Fatalf("got %d rows, want 8", len(rows))
	}
	for _, r := range rows {
		if math.Abs(r.Speedup["K80"]-1) > 1e-9 {
			t.Errorf("%s: K80 speedup %.3f != 1", r.Model, r.Speedup["K80"])
		}
		if r.Speedup["V100"] < r.Speedup["T4"] {
			t.Errorf("%s: V100 %.2f slower than T4 %.2f", r.Model, r.Speedup["V100"], r.Speedup["T4"])
		}
	}
	// Calibration anchors from the paper's Fig. 2.
	for _, r := range rows {
		switch r.Model {
		case "ResNet50":
			if math.Abs(r.Speedup["V100"]-7) > 0.2 {
				t.Errorf("ResNet50 V100 speedup %.2f, want ≈7", r.Speedup["V100"])
			}
			if math.Abs(r.Speedup["T4"]-2) > 0.2 {
				t.Errorf("ResNet50 T4 speedup %.2f, want ≈2", r.Speedup["T4"])
			}
		case "GraphSAGE":
			if r.Speedup["V100"] > 2.4 {
				t.Errorf("GraphSAGE V100 speedup %.2f, want ≤≈2", r.Speedup["V100"])
			}
		}
	}
}

func TestFig5MixingSlowGPUsDoesNotHelp(t *testing.T) {
	rows := Fig5EpochTime()
	byCombo := make(map[string]float64, len(rows))
	for _, r := range rows {
		byCombo[r.Combo] = r.EpochTime
	}
	// Adding T4s or V100s to a K80 gang brings (almost) no speedup:
	// the K80 still gates the round.
	if byCombo["2xK80+2xV100"] < byCombo["4xK80"]*0.95 {
		t.Errorf("mixing V100s into K80 gang sped the epoch up: %v vs %v",
			byCombo["2xK80+2xV100"], byCombo["4xK80"])
	}
	if byCombo["4xV100"] >= byCombo["4xT4"] {
		t.Errorf("pure V100 gang (%v) not faster than pure T4 (%v)",
			byCombo["4xV100"], byCombo["4xT4"])
	}
}

func TestFig6StragglersIdleFastGPUs(t *testing.T) {
	rows, err := Fig6Util(Config{RoundsScale: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	var k80, v100 float64
	for _, r := range rows {
		switch r.GPU[:3] {
		case "K80":
			k80 = math.Max(k80, r.Util)
		case "V10":
			v100 = math.Max(v100, r.Util)
		}
	}
	if k80 < 0.8 {
		t.Errorf("K80 utilization %.2f, want near 1 (it gates every round)", k80)
	}
	if v100 > 0.5 {
		t.Errorf("V100 utilization %.2f, want < 0.5 (idle at barrier)", v100)
	}
}

func TestFig7DefaultSwitchDominatesTraining(t *testing.T) {
	rows := Fig7SwitchRatio()
	for _, r := range rows {
		def := r.Omega[switching.Default.String()]
		hare := r.Omega[switching.Hare.String()]
		if def < 2 {
			t.Errorf("%s: default Ω=%.2f, want ≫1", r.Setting, def)
		}
		if hare > 0.2 {
			t.Errorf("%s: Hare Ω=%.3f, want ≪1", r.Setting, hare)
		}
		if hare >= r.Omega[switching.PipeSwitch.String()] {
			t.Errorf("%s: Hare Ω=%.3f not below PipeSwitch %.3f",
				r.Setting, hare, r.Omega[switching.PipeSwitch.String()])
		}
	}
}

func TestFig8SwitchingCrushesUtilization(t *testing.T) {
	rows, err := Fig8SwitchingUtil(Config{RoundsScale: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	var single, alt, altH float64
	for _, r := range rows {
		single += r.SingleJob
		alt += r.Alternating
		altH += r.AlternatingH
	}
	n := float64(len(rows))
	single, alt, altH = single/n, alt/n, altH/n
	t.Logf("mean util: single %.2f, alternating(default) %.2f, alternating(hare) %.2f", single, alt, altH)
	if alt > 0.5 {
		t.Errorf("alternating with default switching utilization %.2f, want < 0.5", alt)
	}
	if altH < alt {
		t.Errorf("Hare switching utilization %.2f below default %.2f", altH, alt)
	}
}

func TestTable3SwitchingOrdersOfMagnitude(t *testing.T) {
	rows, err := Table3Switching()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		def := r.Seconds[switching.Default.String()]
		pipe := r.Seconds[switching.PipeSwitch.String()]
		hare := r.Seconds[switching.Hare.String()]
		if def < 1 {
			t.Errorf("%s: default switch %.3fs, want seconds-scale", r.Model, def)
		}
		if pipe > 0.05 || pipe <= 0 {
			t.Errorf("%s: PipeSwitch %.4fs, want milliseconds-scale", r.Model, pipe)
		}
		if hare >= pipe {
			t.Errorf("%s: Hare switch %.4fs not below PipeSwitch %.4fs", r.Model, hare, pipe)
		}
		if p := r.Percent[switching.Hare.String()]; p > 5 {
			t.Errorf("%s: Hare overhead %.1f%%, paper keeps it under 5%%", r.Model, p)
		}
	}
}

func TestFig14HareWinsAcrossFleetSizes(t *testing.T) {
	rows, err := Fig14GPUSweep(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		hare, err := findResult(row.Results, "Hare")
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range row.Results {
			if r.Scheme == "Hare" {
				continue
			}
			if hare.WeightedJCT > r.WeightedJCT*1.05 {
				t.Errorf("%s: Hare %.0f worse than %s %.0f", row.Label, hare.WeightedJCT, r.Scheme, r.WeightedJCT)
			}
		}
	}
}

func TestAblationRelaxBounds(t *testing.T) {
	st, err := AblationRelax(3)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("fluid<=opt on %d/%d, mean fluid/opt %.3f, mean hare/opt %.3f (max %.3f), bound holds %d/%d",
		st.FluidLEOptimal, st.Instances, st.MeanFluidToOpt, st.MeanHareToOpt, st.MaxHareToOpt, st.BoundHolds, st.Instances)
	if st.FluidLEOptimal < st.Instances*8/10 {
		t.Errorf("fluid relaxation exceeded the optimum on %d/%d instances",
			st.Instances-st.FluidLEOptimal, st.Instances)
	}
	if st.BoundHolds != st.Instances {
		t.Errorf("α(2+α) bound violated on %d instances", st.Instances-st.BoundHolds)
	}
}

func TestAblationSyncRelaxedBeatsStrict(t *testing.T) {
	rows, err := AblationSync(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	hare, err := findResult(rows, "Hare")
	if err != nil {
		t.Fatal(err)
	}
	strict, err := findResult(rows, "Hare-strict")
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("relaxed %.0f vs strict %.0f", hare.WeightedJCT, strict.WeightedJCT)
	if hare.WeightedJCT > strict.WeightedJCT*1.02 {
		t.Errorf("relaxed sync (%.0f) worse than strict gang (%.0f)", hare.WeightedJCT, strict.WeightedJCT)
	}
}

func TestFairnessComparison(t *testing.T) {
	rows, err := FairnessComparison(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	var hare, fifo SchemeResult
	for _, r := range rows {
		if r.Fairness == nil {
			t.Fatalf("%s: no fairness report", r.Scheme)
		}
		if r.Fairness.MeanRho < 1-1e-9 {
			t.Errorf("%s: mean rho %.2f below 1 (faster than dedicated?)", r.Scheme, r.Fairness.MeanRho)
		}
		switch r.Scheme {
		case "Hare":
			hare = r
		case "Gavel_FIFO":
			fifo = r
		}
	}
	t.Logf("mean rho: Hare %.2f vs FIFO %.2f; max wait: Hare %s vs FIFO %s",
		hare.Fairness.MeanRho, fifo.Fairness.MeanRho,
		fmtDur(hare.Fairness.MaxWait), fmtDur(fifo.Fairness.MaxWait))
	if hare.Fairness.MeanRho > fifo.Fairness.MeanRho*1.1 {
		t.Errorf("Hare mean rho %.2f worse than FIFO %.2f", hare.Fairness.MeanRho, fifo.Fairness.MeanRho)
	}
}

func fmtDur(s float64) string { return (time.Duration(s * float64(time.Second))).String() }

func TestAblationMemoryPolicyBeladyNoWorse(t *testing.T) {
	rows, err := AblationMemoryPolicy(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	var keep, belady MemoryPolicyRow
	for _, r := range rows {
		switch r.Policy {
		case "keep-latest":
			keep = r
		case "belady":
			belady = r
		}
	}
	t.Logf("keep-latest: %.3fs stall (%d hits); belady: %.3fs stall (%d hits)",
		keep.TotalSwitch, keep.Hits, belady.TotalSwitch, belady.Hits)
	if belady.Hits < keep.Hits {
		t.Errorf("Belady fewer hits (%d) than keep-latest (%d)", belady.Hits, keep.Hits)
	}
}

func TestAblationSpeculativeMemoryReducesSwitching(t *testing.T) {
	cfg := smallCfg()
	rows, err := AblationSpeculativeMemory(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var on, off MemoryAblationRow
	for _, r := range rows {
		if r.Setting == "speculative-on" {
			on = r
		} else {
			off = r
		}
	}
	t.Logf("on: switch %.3fs hits %d; off: switch %.3fs", on.TotalSwitch, on.ResidencyHits, off.TotalSwitch)
	if on.TotalSwitch > off.TotalSwitch {
		t.Errorf("speculative memory increased switching: %.3f vs %.3f", on.TotalSwitch, off.TotalSwitch)
	}
}
