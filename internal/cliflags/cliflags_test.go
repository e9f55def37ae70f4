package cliflags

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hare/internal/faults"
	"hare/internal/obs"
	"hare/internal/obs/span"
)

func newSet() *flag.FlagSet {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs
}

// TestFaultSpecHelpNamesEveryClause: the one -fault-spec declaration
// lists every key of the grammar (the hand-written lists it replaces had
// dropped crash=, netdup=, netreorder= and codown=).
func TestFaultSpecHelpNamesEveryClause(t *testing.T) {
	fs := newSet()
	Faults(fs, "fault injection")
	usage := fs.Lookup("fault-spec").Usage
	if !strings.HasPrefix(usage, "fault injection: ") {
		t.Errorf("usage does not start with the command's scope: %q", usage)
	}
	for _, key := range []string{"rate", "seed", "slow", "netseed", "fail", "crash",
		"netdrop", "netdup", "netreorder", "netdelay", "partition", "codown"} {
		if !strings.Contains(usage, " "+key+"=") {
			t.Errorf("-fault-spec help does not name %s=", key)
		}
	}
}

func TestFaultsPlan(t *testing.T) {
	for _, tc := range []struct {
		spec    string
		gpus    int
		engine  faults.Engine
		wantErr string // "" = accepted
	}{
		{"", 4, faults.InProcess, ""},
		{"rate=0.1,seed=3,slow=1x2", 4, faults.InProcess, ""},
		{"fail=1@20", 4, faults.Simulator, ""},
		{"netdrop=0.1", 4, faults.Distributed, ""},
		{"rate=x", 4, faults.Orchestrated, "bad rate"},
		{"fail=7@20", 4, faults.Simulator, "outside fleet of 4"},
		{"fail=1@20", 4, faults.InProcess, "cannot replay fail=1@20"},
		{"netdrop=0.1", 4, faults.Simulator, "cannot replay netdrop=0.1"},
		{"codown=1+100ms", 4, faults.Distributed, "cannot replay codown=1+100ms"},
	} {
		fs := newSet()
		plan := Faults(fs, "fault injection")
		if err := fs.Parse([]string{"-fault-spec", tc.spec}); err != nil {
			t.Fatal(err)
		}
		p, err := plan(tc.gpus, tc.engine)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%q on the %s: %v, want accepted", tc.spec, tc.engine, err)
		case tc.wantErr == "" && p.String() != tc.spec:
			t.Errorf("%q parsed to %q", tc.spec, p)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%q on the %s: error %v, want one containing %q", tc.spec, tc.engine, err, tc.wantErr)
		}
	}
	// An executor knows neither the fleet nor the engine: 0 GPUs leaves
	// indices unchecked and the chaos harness replays every clause.
	fs := newSet()
	plan := Faults(fs, "chaos")
	if err := fs.Parse([]string{"-fault-spec", "fail=7@20,codown=1+100ms"}); err != nil {
		t.Fatal(err)
	}
	if _, err := plan(0, faults.Orchestrated); err != nil {
		t.Errorf("unchecked plan: %v", err)
	}
}

// TestIgnored is the silent-ignore rule both haresim (-compare) and hared
// (-backend) apply: a flag the rest of the command line makes moot is an
// error naming it, not a run that quietly drops it.
func TestIgnored(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // "" = nothing ignored
	}{
		{nil, ""},
		{[]string{"-sched", "SRTF"}, ""},
		{[]string{"-gantt=false"}, ""},
		{[]string{"-save-plan", "x.json"}, "-save-plan needs a single scheduler"},
		{[]string{"-gantt"}, "-gantt needs a single scheduler"},
		{[]string{"-gantt", "-save-plan", "x.json"}, "-save-plan needs a single scheduler"},
		{[]string{"-trace-out", "t.json"}, "-trace-out needs a single scheduler"},
	} {
		fs := newSet()
		fs.String("sched", "Hare", "")
		fs.String("save-plan", "", "")
		fs.Bool("gantt", false, "")
		NewExport(fs, "the run", "the report")
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		err := Ignored(fs, "needs a single scheduler", "save-plan", "gantt", "trace-out", "no-such-flag")
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%v: %v, want nil", tc.args, err)
		case tc.want != "" && (err == nil || err.Error() != tc.want):
			t.Errorf("%v: error %v, want %q", tc.args, err, tc.want)
		}
	}
}

func TestFleet(t *testing.T) {
	for _, tc := range []struct {
		args    []string
		size    int
		wantErr bool
	}{
		{nil, 15, false},
		{[]string{"-gpus", "6", "-het", "LOW"}, 6, false},
		{[]string{"-gpus", "6", "-testbed-fleet"}, 15, false},
		{[]string{"-het", "extreme"}, 0, true},
	} {
		fs := newSet()
		fleet := Fleet(fs, "testbed-fleet")
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		cl, err := fleet()
		if (err != nil) != tc.wantErr || (err == nil && cl.Size() != tc.size) {
			t.Errorf("%v: cluster %v, error %v; want size %d, error %v", tc.args, cl, err, tc.size, tc.wantErr)
		}
	}
	fs := newSet()
	Fleet(fs, "testbed")
	if u := fs.Lookup("gpus").Usage; !strings.Contains(u, "-testbed)") {
		t.Errorf("-gpus help does not name the command's testbed switch: %q", u)
	}
}

// TestExportWrite drives the three export flags over a tiny captured
// run, with and without the span tree.
func TestExportWrite(t *testing.T) {
	dir := t.TempDir()
	fs := newSet()
	e := NewExport(fs, "the run", "the report")
	tracePath, eventsPath, attribPath := filepath.Join(dir, "t.json"), filepath.Join(dir, "e.jsonl"), filepath.Join(dir, "a.json")
	if err := fs.Parse([]string{"-trace-out", tracePath, "-events-out", eventsPath, "-attrib-out", attribPath}); err != nil {
		t.Fatal(err)
	}
	rec := e.Recorder()
	rec.Emit(obs.Event{Type: obs.EvTaskStart, Time: 0, GPU: 0, Job: 0})
	rec.Emit(obs.Event{Type: obs.EvTaskFinish, Time: 2, GPU: 0, Job: 0, Dur: 2, Train: 1.5, Sync: 0.5})

	for _, spans := range []bool{true, false} {
		var out bytes.Buffer
		var gotTree *span.Tree
		err := e.Write(&out, spans, func(tree *span.Tree) (any, error) {
			gotTree = tree
			return map[string]int{"jobs": 1}, nil
		})
		if err != nil {
			t.Fatalf("spans=%v: %v", spans, err)
		}
		if (gotTree != nil) != spans {
			t.Errorf("spans=%v: attrib received tree %v", spans, gotTree)
		}
		for _, want := range []string{"chrome trace (2 events) saved to " + tracePath, "events saved to " + eventsPath, "critical-path attribution saved to " + attribPath} {
			if !strings.Contains(out.String(), want) {
				t.Errorf("spans=%v: output lacks %q:\n%s", spans, want, out.String())
			}
		}
		trace, err := os.ReadFile(tracePath)
		if err != nil {
			t.Fatal(err)
		}
		if got := bytes.Contains(trace, []byte(`"spans"`)); got != spans {
			t.Errorf("spans=%v: trace has a spans process: %v", spans, got)
		}
		f, err := os.Open(eventsPath)
		if err != nil {
			t.Fatal(err)
		}
		events, err := obs.ReadJSONL(f)
		f.Close()
		if err != nil || len(events) != 2 {
			t.Errorf("spans=%v: events file holds %d events (%v), want 2", spans, len(events), err)
		}
		if attrib, err := os.ReadFile(attribPath); err != nil || !bytes.Contains(attrib, []byte(`"jobs": 1`)) {
			t.Errorf("spans=%v: attribution file %q (%v)", spans, attrib, err)
		}
	}

	// No flag set: nothing is written and attrib is never called.
	idle := NewExport(newSet(), "the run", "the report")
	if err := idle.Write(io.Discard, true, func(*span.Tree) (any, error) {
		t.Error("attrib called without -attrib-out")
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestProfilesAndTimescale(t *testing.T) {
	fs := newSet()
	start := Profiles(fs)
	ts := Timescale(fs)
	cpu := filepath.Join(t.TempDir(), "cpu.prof")
	if err := fs.Parse([]string{"-cpuprofile", cpu, "-timescale", "0.05"}); err != nil {
		t.Fatal(err)
	}
	for _, engine := range []faults.Engine{faults.InProcess, faults.Distributed} {
		if scale, err := ts(engine); scale != 0.05 || err != nil {
			t.Errorf("-timescale 0.05 on the %s: %g, %v", engine, scale, err)
		}
	}
	stop, err := start()
	if err != nil {
		t.Fatal(err)
	}
	stop()
	if fi, err := os.Stat(cpu); err != nil || fi.Size() == 0 {
		t.Errorf("cpu profile not written: %v", err)
	}
	if d := fs.Lookup("timescale").DefValue; d != "0.001" {
		t.Errorf("-timescale default %q, want 0.001", d)
	}
	// 0 is virtual time, which only the in-process engine has; no engine
	// takes a scale a wall clock cannot keep.
	for _, tc := range []struct {
		arg    string
		engine faults.Engine
		want   string // "" = accepted
	}{
		{"0", faults.InProcess, ""},
		{"0", faults.Distributed, "needs a positive scale"},
		{"0", faults.Orchestrated, "needs a positive scale"},
		{"-1", faults.InProcess, "needs a positive, finite scale"},
		{"-1", faults.Distributed, "needs a positive, finite scale"},
		{"inf", faults.InProcess, "needs a positive, finite scale"},
		{"inf", faults.Distributed, "needs a positive, finite scale"},
		{"nan", faults.InProcess, "needs a positive, finite scale"},
		{"nan", faults.Distributed, "needs a positive, finite scale"},
	} {
		fs := newSet()
		ts := Timescale(fs)
		if err := fs.Parse([]string{"-timescale", tc.arg}); err != nil {
			t.Fatal(err)
		}
		_, err := ts(tc.engine)
		if tc.want == "" && err != nil || tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("-timescale %s on the %s: %v, want %q", tc.arg, tc.engine, err, tc.want)
		}
	}
}
