package experiments

import (
	"testing"
)

func TestMultiSeedAggregation(t *testing.T) {
	cfg := smallCfg()
	rows, err := MultiSeed(cfg, Fig16Heterogeneity)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, row := range rows {
		if len(row.Stats) != 5 {
			t.Fatalf("%s: %d schemes", row.Label, len(row.Stats))
		}
		for _, s := range row.Stats {
			if s.N != 3 || s.Mean <= 0 {
				t.Errorf("%s/%s: %+v", row.Label, s.Scheme, s)
			}
			if s.Std < 0 {
				t.Errorf("%s/%s: negative std", row.Label, s.Scheme)
			}
		}
		leads, margin := HareLeadConfidence(row)
		t.Logf("%s: hare leads=%v margin=%.0f", row.Label, leads, margin)
	}
}

func TestMultiSeedDeterministic(t *testing.T) {
	cfg := smallCfg()
	a, err := MultiSeed(cfg, Fig16Heterogeneity)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MultiSeed(cfg, Fig16Heterogeneity)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		for k := range a[i].Stats {
			if a[i].Stats[k] != b[i].Stats[k] {
				t.Fatalf("multi-seed not deterministic: %+v vs %+v", a[i].Stats[k], b[i].Stats[k])
			}
		}
	}
}

func TestMultiSeedVarianceComesFromSeeds(t *testing.T) {
	cfg := smallCfg()
	rows, err := MultiSeed(cfg, Fig16Heterogeneity)
	if err != nil {
		t.Fatal(err)
	}
	anyVariance := false
	for _, s := range rows[0].Stats {
		if s.Std > 0 {
			anyVariance = true
		}
	}
	if !anyVariance {
		t.Error("different seeds produced identical results for every scheme")
	}
}
