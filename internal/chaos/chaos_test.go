package chaos

import (
	"reflect"
	"testing"
)

func TestScenarioDeterminism(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		a, b := GenerateScenario(seed), GenerateScenario(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: scenario not deterministic:\n%+v\n%+v", seed, a, b)
		}
		if a.Jobs < 4 || a.Jobs > 6 {
			t.Errorf("seed %d: %d jobs outside [4, 6]", seed, a.Jobs)
		}
		if len(a.Failures) > 1 {
			t.Errorf("seed %d: %d failures, want at most 1 (survivors needed)", seed, len(a.Failures))
		}
		for _, p := range a.Partitions {
			if p.Dur >= soakLease {
				t.Errorf("seed %d: partition %v not shorter than the %v lease", seed, p.Dur, soakLease)
			}
		}
	}
}

func TestScenarioResolve(t *testing.T) {
	sc := GenerateScenario(7)
	plan := sc.Resolve(1000)
	if err := plan.Validate(fleetSize); err != nil {
		t.Fatalf("resolved plan invalid: %v", err)
	}
	spec := plan.String()
	if spec == "" {
		t.Fatal("resolved plan renders empty")
	}
	// The printed spec must round-trip through the -fault-spec grammar.
	out := RunSpec(7, spec, Options{Jobs: 0, TimeScale: 1e-3})
	_ = out // compile-time shape check only; executed below in TestSoakSeeds
}

// TestSoakSeeds is the in-repo slice of the CI chaos matrix: a few
// deterministic seeds soaked end-to-end, every invariant checked.
func TestSoakSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("soak runs real kill/restart cycles")
	}
	for _, seed := range []int64{1, 2} {
		out := Run(seed, Options{TimeScale: 1e-3, Logf: t.Logf})
		if out.Err != nil {
			t.Fatalf("seed %d: %v", seed, out.Err)
		}
		if out.Violation != nil {
			t.Fatalf("seed %d: %v", seed, out.Violation)
		}
		t.Logf("seed %d clean: %d jobs, %d tasks, %d kills, spec %q", seed, out.Jobs, out.Tasks, out.Kills, out.Spec)
	}
}

func TestMinimizeCleanSpecNotReproduced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the workload twice")
	}
	// A benign spec violates nothing, so the minimizer must report
	// non-reproduction and hand the spec back unchanged.
	spec := "netdrop=0.01,netseed=3"
	min, runs, reproduced, err := Minimize(3, spec, Options{TimeScale: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	if reproduced {
		t.Fatalf("benign spec %q reported as violating", spec)
	}
	if min != spec {
		t.Errorf("non-reproduced spec rewritten to %q", min)
	}
	if runs != 2 {
		t.Errorf("confirmation took %d runs, want 2", runs)
	}
}

func TestRemovalsEnumerate(t *testing.T) {
	sc := GenerateScenario(9)
	// Force every ingredient on so the enumeration covers all clauses.
	sc.Drop, sc.Dup, sc.Reorder = 0.01, 0.01, 0.01
	sc.DelayMax = soakHeartbeat
	if len(sc.Partitions) == 0 {
		sc.Partitions = append(sc.Partitions, PartitionSketch{GPU: 1, Frac: 0.5, Dur: soakLease / 8})
	}
	if len(sc.CoordDowns) == 0 {
		sc.CoordDowns = append(sc.CoordDowns, DownSketch{Frac: 0.5, Dur: soakLease / 4})
	}
	if len(sc.Failures) == 0 {
		sc.Failures = append(sc.Failures, FailureSketch{GPU: 2, Frac: 0.4, Crash: true})
	}
	plan := sc.Resolve(500)
	cands := removals(plan)
	want := 4 + len(plan.Net.Partitions) + len(plan.Net.CoordDowns) + len(plan.Failures)
	if len(cands) != want {
		t.Fatalf("%d removal candidates, want %d", len(cands), want)
	}
	for _, c := range cands {
		if c.plan == plan {
			t.Fatalf("removal %q aliases the original plan", c.what)
		}
		if err := c.plan.Validate(fleetSize); err != nil {
			t.Errorf("removal %q produced invalid plan: %v", c.what, err)
		}
	}
	// Removing a clause must never grow the spec.
	orig := len(plan.String())
	for _, c := range cands {
		if len(c.plan.String()) > orig {
			t.Errorf("removal %q grew the spec: %q", c.what, c.plan.String())
		}
	}
}
