package chaos

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"hare/internal/obs/dtrace"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestMergeDeterminismUnderTimingChaos is the merge-determinism
// contract end to end: the same seed soaked twice under timing-only
// network chaos (reordering plus seeded delays) must produce
// byte-identical canonical control-plane timelines. The physical
// interleavings differ run to run — wall-clock scheduling under
// injected delays is not reproducible — but the logical outcome
// (which GPU ran each task, fences, recoveries, completions) is fully
// determined by the plan and the fault plan. A golden file pins the
// timeline so a behavior change cannot hide behind "both runs changed
// the same way".
func TestMergeDeterminismUnderTimingChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("soaks the distributed control plane twice")
	}
	const (
		seed = 11
		spec = "netreorder=0.10,netdelay=1ms~3ms,netseed=11"
	)
	canonical := func(dir string) string {
		t.Helper()
		out := RunSpec(seed, spec, Options{TimeScale: 1e-3, TraceDir: dir})
		if out.Err != nil {
			t.Fatalf("soak: %v", out.Err)
		}
		if out.Violation != nil {
			t.Fatalf("unexpected violation: %v", out.Violation)
		}
		streams, err := dtrace.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		return dtrace.Canonical(streams)
	}
	a := canonical(filepath.Join(t.TempDir(), "run-a"))
	b := canonical(filepath.Join(t.TempDir(), "run-b"))
	if a != b {
		t.Fatalf("canonical timelines differ across replays of seed %d:\n--- run A ---\n%s--- run B ---\n%s", seed, a, b)
	}

	goldenPath := filepath.Join("testdata", "canonical_seed11.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(a), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to capture)", err)
	}
	if a != string(want) {
		t.Fatalf("canonical timeline drifted from golden (re-run with -update if intended):\n--- got ---\n%s--- want ---\n%s", a, want)
	}
}
