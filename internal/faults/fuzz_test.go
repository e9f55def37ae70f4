package faults

import (
	"fmt"
	"sort"
	"testing"
)

// FuzzFaultsParse holds the decoder behind every -fault-spec flag to its
// contract: Parse never panics, and a spec it accepts renders (String)
// to a spec it accepts again, whose rendering is identical — a fixpoint
// after one step — and which every fleet size and engine class judges
// the same. harechaos prints minimized specs, haretestbed -distributed
// hands its plan to child processes as fplan.String(): both rely on it.
func FuzzFaultsParse(f *testing.F) {
	keys := make([]string, 0, len(clauseNeeds))
	for key := range clauseNeeds {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	example := map[string]string{"F": "0.05", "N": "7", "GxF": "2x1.5", "G@T": "3@120", "MIN~MAX": "10ms~50ms", "G@T+D": "1@40+2s", "T+D": "80+250ms"}
	for _, key := range keys { // every clause of the grammar once
		f.Add(key + "=" + example[clauseNeeds[key].value])
	}
	for _, spec := range []string{
		"fail=0@10,fail=1@20,slow=0x2;partition=1@5+1s,partition=1@50+1s", // repeated clauses, both separators
		"rate=0.05,seed=7,fail=3@120,crash=1@60,slow=2x1.5",
		"netdrop=0.05,netdup=0.02,netreorder=0.01,netdelay=10ms~50ms,netseed=7,codown=30+250ms",
		"netdelay=25ms", "fail=1@1e3", "partition=0@1e+2+1s", " , ;rate=0.5 ", "",
		// The malformed shapes TestParse*/TestNetChaosValidate reject.
		"rate", "rate=x", "rate=1.5", "rate=-0.1", "rate=NaN", "seed=x", "fail=3", "fail=x@2", "fail=3@x",
		"fail=3@-1", "fail=3@Inf", "slow=2", "slow=x2", "slow=2x0.5", "bogus=1", "fail=3@1,fail=3@2",
		"slow=1x2,slow=1x3", "netdrop=1.5", "netdup=-0.1", "netdelay=50ms~10ms", "netdelay=-1ms",
		"partition=1@2", "partition=x@2+1s", "partition=1@2+0s", "codown=5", "codown=5+x", "=", "a=b=c",
	} {
		f.Add(spec)
	}
	engines := []Engine{InProcess, Simulator, Distributed, Orchestrated}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := Parse(spec)
		if err != nil {
			return
		}
		canon := p.String()
		back, err := Parse(canon)
		if err != nil {
			t.Fatalf("Parse(%q) ok, but its rendering %q is rejected: %v", spec, canon, err)
		}
		if got := back.String(); got != canon {
			t.Fatalf("Parse(%q) renders %q, which re-parses to %q", spec, canon, got)
		}
		for _, n := range []int{0, 1, 4} {
			if a, b := p.Validate(n), back.Validate(n); fmt.Sprint(a) != fmt.Sprint(b) {
				t.Fatalf("%q: Validate(%d) says %v, its rendering %q says %v", spec, n, a, canon, b)
			}
		}
		for _, e := range engines {
			if a, b := p.CheckEngine(e), back.CheckEngine(e); fmt.Sprint(a) != fmt.Sprint(b) {
				t.Fatalf("%q: CheckEngine(%s) says %v, its rendering %q says %v", spec, e, a, canon, b)
			}
		}
	})
}
