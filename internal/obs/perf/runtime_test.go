package perf

import (
	"strings"
	"testing"
	"time"

	"hare/internal/obs"
)

// TestPhaseRecorderNilSafe: a nil recorder must be a usable no-op —
// the contract that lets engine packages call it unconditionally.
func TestPhaseRecorderNilSafe(t *testing.T) {
	var p *PhaseRecorder
	stop := p.Start("anything")
	stop() // must not panic
	p.Observe("anything", 1.0)
	if NewPhaseRecorder(nil) != nil {
		t.Fatal("recorder over nil registry is not the nil no-op")
	}
}

// TestPhaseRecorderRecords: phases land in the registry as a
// histogram and a last-value gauge, labeled by phase.
func TestPhaseRecorderRecords(t *testing.T) {
	reg := obs.NewRegistry()
	p := NewPhaseRecorder(reg)
	stop := p.Start("plan_solve")
	time.Sleep(2 * time.Millisecond)
	stop()
	p.Observe("sim_event_loop", 0.5)
	p.Observe("sim_event_loop", 0.25)

	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		`hare_perf_phase_seconds_count{phase="plan_solve"} 1`,
		`hare_perf_phase_seconds_count{phase="sim_event_loop"} 2`,
		`hare_perf_phase_last_seconds{phase="sim_event_loop"} 0.25`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
	if reg.Gauge(`hare_perf_phase_last_seconds{phase="plan_solve"}`).Value() <= 0 {
		t.Error("plan_solve last-seconds gauge not set")
	}
}

// TestSampleRuntime: the runtime/metrics mirror populates the gauges
// and is nil-safe.
func TestSampleRuntime(t *testing.T) {
	SampleRuntime(nil) // no-op
	reg := obs.NewRegistry()
	SampleRuntime(reg)
	if v := reg.Gauge("hare_runtime_goroutines").Value(); v < 1 {
		t.Errorf("goroutines gauge %v", v)
	}
	if v := reg.Gauge("hare_runtime_heap_objects_bytes").Value(); v <= 0 {
		t.Errorf("heap gauge %v", v)
	}
	if v := reg.Gauge("hare_runtime_gomaxprocs").Value(); v < 1 {
		t.Errorf("gomaxprocs gauge %v", v)
	}
	if v := reg.Gauge("hare_runtime_num_cpu").Value(); v < 1 {
		t.Errorf("num_cpu gauge %v", v)
	}
}

// TestRuntimeSampler: start/stop without leaks, immediate first
// sample, nil-registry no-op.
func TestRuntimeSampler(t *testing.T) {
	if s := StartRuntimeSampler(nil, time.Second); s != nil {
		t.Fatal("sampler over nil registry")
	}
	var nilSampler *RuntimeSampler
	nilSampler.Stop() // must not panic

	reg := obs.NewRegistry()
	s := StartRuntimeSampler(reg, time.Hour) // immediate sample only
	if v := reg.Gauge("hare_runtime_goroutines").Value(); v < 1 {
		t.Errorf("no immediate sample: %v", v)
	}
	s.Stop()
	s.Stop() // idempotent
}

// TestStopwatch measures forward time.
func TestStopwatch(t *testing.T) {
	sw := StartStopwatch()
	time.Sleep(time.Millisecond)
	if s := sw.Seconds(); s <= 0 || s > 10 {
		t.Errorf("stopwatch read %v", s)
	}
}

// TestFingerprint captures the current environment.
func TestFingerprint(t *testing.T) {
	env := Fingerprint("", time.Date(2026, 8, 9, 1, 2, 3, 0, time.UTC))
	if env.Commit != "unknown" {
		t.Errorf("empty commit recorded as %q", env.Commit)
	}
	if env.GoVersion == "" || env.NumCPU < 1 || env.GOMAXPROCS < 1 {
		t.Errorf("fingerprint %+v", env)
	}
	if env.Date != "2026-08-09T01:02:03Z" {
		t.Errorf("date %q", env.Date)
	}
}
