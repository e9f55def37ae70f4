package main

import (
	"flag"
	"strings"
	"testing"

	"hare/internal/sched"
)

// TestCompareRejectsSinglePlanFlags: with -compare there is no single
// plan to save, load, draw or trace, so each of those flags is an error
// naming it — haresim used to print the five-row table and quietly write
// no plan and draw no chart, or replay one loaded plan under five names.
// -sched takes every name of sched's scheme table and no other.
func TestCompareRejectsSinglePlanFlags(t *testing.T) {
	type row struct {
		args []string
		want string // "" = accepted
	}
	table := []row{
		{[]string{"-compare"}, ""},
		{[]string{"-save-plan", "x.json", "-gantt", "-trace-out", "t.json"}, ""},
		{[]string{"-compare", "-save-plan", "x.json"}, "-save-plan needs a single scheduler (drop -compare)"},
		{[]string{"-compare", "-gantt"}, "-gantt needs a single scheduler (drop -compare)"},
		{[]string{"-compare", "-load-plan", "p.json"}, "-load-plan needs a single scheduler (drop -compare)"},
		{[]string{"-compare", "-trace-out", "t.json"}, "-trace-out needs a single scheduler (drop -compare)"},
		{[]string{"-compare", "-events-out", "e.jsonl"}, "-events-out needs a single scheduler (drop -compare)"},
		{[]string{"-compare", "-attrib-out", "a.json"}, "-attrib-out needs a single scheduler (drop -compare)"},
		{[]string{"-sched", "nope"}, `sched: unknown algorithm "nope" (have ` + strings.Join(sched.Names(), ", ") + ")"},
	}
	for _, name := range sched.Names() {
		table = append(table, row{[]string{"-sched", name}, ""})
	}
	for _, tc := range table {
		flag.VisitAll(func(f *flag.Flag) {
			if !strings.HasPrefix(f.Name, "test.") { // the testing package's own flags
				_ = f.Value.Set(f.DefValue)
			}
		})
		if err := flag.CommandLine.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		_, err := checkFlags()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("haresim %s: %v, want accepted", strings.Join(tc.args, " "), err)
		case tc.want != "" && (err == nil || err.Error() != tc.want):
			t.Errorf("haresim %s: error %v, want %q", strings.Join(tc.args, " "), err, tc.want)
		}
	}
}
