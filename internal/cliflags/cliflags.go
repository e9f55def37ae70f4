// Package cliflags declares the flags several hare commands share, once:
// name, default, help text and the code that acts on the value. Every
// function registers on a *flag.FlagSet and reports problems as errors,
// so it is testable without building a binary.
package cliflags

import (
	"flag"
	"fmt"
	"io"

	"hare/internal/cluster"
	"hare/internal/faults"
	"hare/internal/obs"
	"hare/internal/obs/span"
	"hare/internal/testbed"
)

// Faults declares -fault-spec on fs; scope says what the command applies
// the plan to, the clause list is faults.SpecHelp in every command. The
// returned function parses the spec, range-checks its GPU indices
// against a fleet of numGPUs (0 = unknown, unchecked) and rejects a
// clause the engine class would silently ignore.
func Faults(fs *flag.FlagSet, scope string) func(numGPUs int, engine faults.Engine) (*faults.Plan, error) {
	spec := fs.String("fault-spec", "", scope+": "+faults.SpecHelp())
	return func(numGPUs int, engine faults.Engine) (*faults.Plan, error) {
		p, err := faults.Parse(*spec)
		if err == nil {
			err = p.Validate(numGPUs)
		}
		if err == nil {
			err = p.CheckEngine(engine)
		}
		return p, err
	}
}

// Export is -trace-out, -events-out and -attrib-out: the three files a
// run's captured events render into.
type Export struct {
	TraceOut, EventsOut, AttribOut string
	collect                        *obs.CollectSink
}

// ExportFlags names the flags NewExport declares (for Ignored).
var ExportFlags = []string{"trace-out", "events-out", "attrib-out"}

// NewExport declares the three export flags on fs. subject names what is
// observed ("the run", "all simulator replays"), attrib what -attrib-out
// holds.
func NewExport(fs *flag.FlagSet, subject, attrib string) *Export {
	e := &Export{}
	fs.StringVar(&e.TraceOut, "trace-out", "", "write a chrome://tracing trace of "+subject+" to this JSON file")
	fs.StringVar(&e.EventsOut, "events-out", "", "write the structured events of "+subject+" to this JSONL file")
	fs.StringVar(&e.AttribOut, "attrib-out", "", "write "+attrib+" to this JSON file")
	return e
}

// Recorder returns a recorder that keeps every event for Write.
func (e *Export) Recorder() *obs.Recorder {
	e.collect = obs.NewCollectSink()
	return obs.NewRecorder(e.collect)
}

// Write renders what the flags ask for and says so on out. With spans,
// the captured events fold into the causal span tree, which the trace
// draws as nested slices and attrib receives; attrib produces the
// -attrib-out report and is called only when that flag is set.
func (e *Export) Write(out io.Writer, spans bool, attrib func(*span.Tree) (any, error)) error {
	var events []obs.Event
	if e.collect != nil {
		events = e.collect.Events()
	}
	var tree *span.Tree
	var slices []obs.ChromeSpan
	if spans && (e.TraceOut != "" || e.AttribOut != "") {
		var err error
		if tree, err = span.Build(events); err != nil {
			return fmt.Errorf("build span tree: %w", err)
		}
		slices = span.ChromeSpans(tree)
	}
	if e.TraceOut != "" {
		if err := obs.SaveChromeTraceSpans(e.TraceOut, events, slices); err != nil {
			return err
		}
		fmt.Fprintf(out, "chrome trace (%d events) saved to %s — open in chrome://tracing\n", len(events), e.TraceOut)
	}
	if e.EventsOut != "" {
		if err := obs.WriteEventsJSONL(e.EventsOut, events); err != nil {
			return err
		}
		fmt.Fprintf(out, "events saved to %s\n", e.EventsOut)
	}
	if e.AttribOut != "" {
		rep, err := attrib(tree)
		if err == nil {
			err = obs.SaveJSON(e.AttribOut, rep)
		}
		if err != nil {
			return fmt.Errorf("-attrib-out: %w", err)
		}
		fmt.Fprintf(out, "critical-path attribution saved to %s\n", e.AttribOut)
	}
	return nil
}

// Profiles declares -cpuprofile and -memprofile on fs; the returned
// function starts the requested profiles (see obs.StartProfiles).
func Profiles(fs *flag.FlagSet) func() (stop func(), err error) {
	cpu := fs.String("cpuprofile", "", "write a CPU profile to this file (inspect with 'go tool pprof')")
	mem := fs.String("memprofile", "", "write a heap profile to this file on exit")
	return func() (func(), error) { return obs.StartProfiles(*cpu, *mem) }
}

// Fleet declares -gpus, -het and testbedFlag, the command's name for the
// switch that selects the paper's 15-GPU fleet, on fs; the returned
// function builds the fleet they describe.
func Fleet(fs *flag.FlagSet, testbedFlag string) func() (*cluster.Cluster, error) {
	gpus := fs.Int("gpus", 15, "fleet size (ignored with -"+testbedFlag+")")
	het := fs.String("het", "high", "heterogeneity level: low, mid, high")
	testbed := fs.Bool(testbedFlag, false, "use the paper's 15-GPU testbed fleet")
	return func() (*cluster.Cluster, error) { return cluster.Preset(*testbed, *het, *gpus) }
}

// Timescale declares -timescale on fs. The returned function checks the
// scale against the engine class that runs it: the in-process engine
// runs 0 on its virtual clock, and every other scale, on every engine,
// paces a wall clock, which keeps only a scale testbed.CheckScale
// accepts.
func Timescale(fs *flag.FlagSet) func(engine faults.Engine) (float64, error) {
	ts := fs.Float64("timescale", 1e-3, "testbed clock scale (wall seconds per simulated second; 0 runs the in-process engine in virtual time)")
	return func(engine faults.Engine) (float64, error) {
		if *ts == 0 && engine == faults.InProcess {
			return 0, nil
		}
		if err := testbed.CheckScale(*ts); err != nil {
			return 0, fmt.Errorf("-timescale %g: the %s %w", *ts, engine, err)
		}
		return *ts, nil
	}
}

// Ignored returns an error naming the first of names that was given a
// non-default value on fs although the rest of the command line makes
// the command ignore it; why completes the sentence "-name ...".
func Ignored(fs *flag.FlagSet, why string, names ...string) error {
	for _, name := range names {
		if f := fs.Lookup(name); f != nil && f.Value.String() != f.DefValue {
			return fmt.Errorf("-%s %s", name, why)
		}
	}
	return nil
}
