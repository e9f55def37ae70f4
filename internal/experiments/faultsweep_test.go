package experiments

import (
	"reflect"
	"testing"
)

func faultSweepConfig() Config {
	return Config{
		Seed: 42, RoundsScale: 0.05, Jobs: 8, GPUs: 6,
		HorizonSeconds: 60,
	}
}

// TestFaultSweepDegradesAndRecovers: rate rows lose attempts and cost
// weighted JCT; failure rows fence GPUs, migrate work, and still
// finish every job. The whole table is reproducible from the seed.
func TestFaultSweepDegradesAndRecovers(t *testing.T) {
	cfg := faultSweepConfig()
	rows, err := FaultSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("got %d rows, want 4 rate rows and 3 failure rows", len(rows))
	}
	for _, row := range rows {
		for _, r := range row.Results {
			if row.Failures == 0 {
				if r.Retries == 0 || r.LostSeconds <= 0 {
					t.Errorf("%s %s: retries=%d lost=%g — injection inert", r.Scheme, row.Label, r.Retries, r.LostSeconds)
				}
				// Lost attempts at the low rates can hide in a gang
				// scheduler's slack.
				if row.Rate >= 0.1 && r.DegradationPct <= 0 {
					t.Errorf("%s %s: degradation %.2f%%, want > 0", r.Scheme, row.Label, r.DegradationPct)
				}
				continue
			}
			if r.GPUFailures != row.Failures {
				t.Errorf("%s %s: %d GPU failures", r.Scheme, row.Label, r.GPUFailures)
			}
			if r.Reschedules != row.Failures {
				t.Errorf("%s %s: %d reschedules", r.Scheme, row.Label, r.Reschedules)
			}
			if r.WeightedJCT <= 0 {
				t.Errorf("%s %s: WJCT %g", r.Scheme, row.Label, r.WeightedJCT)
			}
		}
	}

	again, err := FaultSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows, again) {
		t.Error("fault sweep not reproducible from its seed")
	}
}

func TestFaultSweepRejectsFleetWipe(t *testing.T) {
	cfg := faultSweepConfig()
	cfg.GPUs = 4 // the sweep's last row fails 4 GPUs
	if _, err := FaultSweep(cfg); err == nil {
		t.Error("failure count == fleet size accepted")
	}
}
