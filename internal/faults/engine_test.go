package faults

import (
	"strings"
	"testing"
)

// TestCheckEngine holds the fault-clause × engine table: every clause of
// the -fault-spec grammar against every engine class. A rejection names
// the clause as written and an engine that can replay it.
func TestCheckEngine(t *testing.T) {
	engines := []Engine{InProcess, Simulator, Distributed, Orchestrated}
	for _, tc := range []struct {
		clause string
		need   Engine // the least capable engine class that replays it
	}{
		{"rate=0.3", InProcess},
		{"seed=7", InProcess},
		{"slow=1x2", InProcess},
		{"netseed=9", InProcess},
		{"fail=1@50", Simulator},
		{"crash=2@60", Simulator},
		{"netdrop=0.1", Distributed},
		{"netdup=0.1", Distributed},
		{"netreorder=0.1", Distributed},
		{"netdelay=1ms~2ms", Distributed},
		{"partition=0@5+100ms", Distributed},
		{"codown=1+100ms", Orchestrated},
	} {
		key, _, _ := strings.Cut(tc.clause, "=")
		if _, ok := clauseNeeds[key]; !ok {
			t.Errorf("%s: clause key missing from the table", tc.clause)
		}
		// A replayable clause in front must not hide the offending one.
		for _, spec := range []string{tc.clause, "rate=0.05," + tc.clause} {
			p, err := Parse(spec)
			if err != nil {
				t.Fatalf("Parse(%q): %v", spec, err)
			}
			for _, e := range engines {
				err := p.CheckEngine(e)
				if e >= tc.need {
					if err != nil {
						t.Errorf("%q on the %s: %v, want accepted", spec, e, err)
					}
					continue
				}
				if err == nil {
					t.Errorf("%q on the %s: accepted, want a rejection", spec, e)
					continue
				}
				for _, want := range []string{"the " + e.String() + " cannot replay " + tc.clause, "clauses run on the " + tc.need.String()} {
					if !strings.Contains(err.Error(), want) {
						t.Errorf("%q on the %s: error %q lacks %q", spec, e, err, want)
					}
				}
			}
		}
	}
	if len(clauseNeeds) != 12 {
		t.Errorf("the table holds %d clause keys, this test covers 12", len(clauseNeeds))
	}
	for _, e := range engines {
		if err := (*Plan)(nil).CheckEngine(e); err != nil {
			t.Errorf("nil plan on the %s: %v", e, err)
		}
	}
}
