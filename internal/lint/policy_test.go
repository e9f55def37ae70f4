package lint

import "testing"

func TestPolicyLongestPrefixWins(t *testing.T) {
	pol := Policy{
		Default: uniform(LevelWarn),
		PerPath: map[string]Rules{
			"m/internal":       uniform(LevelOff),
			"m/internal/sim":   uniform(LevelError),
			"m/internal/simx":  uniform(LevelWarn),
			"m/internal/sched": uniform(LevelError),
		},
	}
	cases := []struct {
		path string
		want Level
	}{
		{"m/internal/sim", LevelError},          // exact match
		{"m/internal/sim/relax", LevelError},    // subtree inherits
		{"m/internal/simx", LevelWarn},          // sibling prefix is not a segment match
		{"m/internal/other", LevelOff},          // falls to the shorter prefix
		{"m/internal/simulator", LevelOff},      // "sim" must not match "simulator"
		{"m/cmd/haresim", LevelWarn},            // unmatched gets Default
		{"m/internal/sched/online", LevelError}, // nested under sched
	}
	for _, c := range cases {
		if got := pol.For(c.path).MapRange; got != c.want {
			t.Errorf("For(%q).MapRange = %v, want %v", c.path, got, c.want)
		}
	}
}

func TestDefaultPolicyTiers(t *testing.T) {
	pol := DefaultPolicy("hare")
	if r := pol.For("hare/internal/sim"); r.MapRange != LevelError || r.WallTime != LevelError {
		t.Errorf("engine package not fully enforced: %+v", r)
	}
	if r := pol.For("hare/internal/stats"); r.GlobalRand != LevelOff {
		t.Errorf("stats must be exempt from globalrand: %+v", r)
	}
	if r := pol.For("hare/internal/testbed"); r.WallTime != LevelError || r.FloatEq != LevelWarn {
		t.Errorf("testbed must enforce walltime, with the real-time tier's other rules: %+v", r)
	}
	if r := pol.For("hare/internal/rpcnet"); r.WallTime != LevelOff {
		t.Errorf("rpcnet must be exempt from walltime: %+v", r)
	}
	if r := pol.For("hare/internal/obs"); r.ObsRecorder != LevelOff || r.WallTime != LevelOff {
		t.Errorf("obs owns sinks and real time: %+v", r)
	}
	// The derived-observation children override their parent: they
	// consume the event stream and must never emit into it.
	if r := pol.For("hare/internal/obs/span"); r.ObsRecorder != LevelError || r.WallTime != LevelError {
		t.Errorf("obs/span must be fully enforced: %+v", r)
	}
	if r := pol.For("hare/internal/obs/critpath"); r.ObsRecorder != LevelError || r.FloatEq != LevelError {
		t.Errorf("obs/critpath must be fully enforced: %+v", r)
	}
	if r := pol.For("hare/cmd/haresim"); r.ObsRecorder != LevelError || r.GlobalRand != LevelError {
		t.Errorf("cmd tier wrong: %+v", r)
	}
	if r := pol.For("hare/internal/workload"); r.MapRange != LevelWarn || r.GlobalRand != LevelError {
		t.Errorf("library default wrong: %+v", r)
	}
}

// TestAnalyzerByName: //lint:allow annotations and JSON diagnostics
// address an analyzer by name, so names are non-empty and unique.
func TestAnalyzerByName(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range Analyzers {
		if a.Name == "" || seen[a.Name] {
			t.Errorf("analyzer name %q is empty or repeated", a.Name)
		}
		seen[a.Name] = true
	}
}
