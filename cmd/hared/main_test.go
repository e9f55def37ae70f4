package main

import (
	"flag"
	"strings"
	"testing"

	"hare/internal/faults"
)

// TestBackendRejectsFlagsItIgnores: -wal-dir and -trace-dir only mean
// something to the dist backend. hared used to boot on `-backend sim
// -wal-dir D`, print "listening" and never open D — an operator who
// asked for a durable WAL got none. Likewise -backend sim has no clock
// for -timescale, the dist backend refuses -timescale 0, which it would
// pace at 1e-3, and no backend takes a scale a wall clock cannot keep:
// -timescale inf used to hang every dist batch and fail every testbed
// one.
func TestBackendRejectsFlagsItIgnores(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		engine faults.Engine
		want   string // "" = accepted
	}{
		{nil, faults.InProcess, ""},
		{[]string{"-backend", "sim"}, faults.Simulator, ""},
		{[]string{"-backend", "DIST", "-wal-dir", "D", "-trace-dir", "T"}, faults.Distributed, ""},
		{[]string{"-backend", "sim", "-wal-dir", "D"}, 0, "-wal-dir requires -backend dist"},
		{[]string{"-wal-dir", "D"}, 0, "-wal-dir requires -backend dist"},
		{[]string{"-backend", "sim", "-trace-dir", "T"}, 0, "-trace-dir requires -backend dist"},
		{[]string{"-backend", "cloud"}, 0, `unknown backend "cloud" (want testbed, sim, or dist)`},
		{[]string{"-timescale", "0"}, faults.InProcess, ""},
		{[]string{"-backend", "dist", "-timescale", "0"}, 0,
			"-timescale 0: the distributed control plane needs a positive scale (0, virtual time, runs only the in-process engine)"},
		{[]string{"-backend", "sim", "-timescale", "0"}, 0, "-timescale requires -backend testbed or dist"},
		{[]string{"-timescale", "inf"}, 0, "-timescale +Inf: the in-process testbed needs a positive, finite scale"},
		{[]string{"-timescale", "-1"}, 0, "-timescale -1: the in-process testbed needs a positive, finite scale"},
		{[]string{"-backend", "dist", "-timescale", "inf"}, 0, "-timescale +Inf: the distributed control plane needs a positive, finite scale"},
		{[]string{"-backend", "dist", "-timescale", "nan"}, 0, "-timescale NaN: the distributed control plane needs a positive, finite scale"},
	} {
		flag.VisitAll(func(f *flag.Flag) {
			if !strings.HasPrefix(f.Name, "test.") { // the testing package's own flags
				_ = f.Value.Set(f.DefValue)
			}
		})
		if err := flag.CommandLine.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		engine, _, err := checkFlags()
		switch {
		case tc.want == "" && (err != nil || engine != tc.engine):
			t.Errorf("hared %s: engine %v, error %v; want the %s accepted", strings.Join(tc.args, " "), engine, err, tc.engine)
		case tc.want != "" && (err == nil || err.Error() != tc.want):
			t.Errorf("hared %s: error %v, want %q", strings.Join(tc.args, " "), err, tc.want)
		}
	}
}
