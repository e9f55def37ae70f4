package obs

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports Enabled")
	}
	r.Emit(Event{Type: EvTaskStart}) // must not panic
	if NewRecorder().Enabled() {
		t.Error("sink-less recorder reports Enabled")
	}
	if !NewRecorder(NewRingSink(4)).Enabled() {
		t.Error("recorder with a sink reports disabled")
	}
	// nil sinks are dropped.
	if NewRecorder(nil, nil).Enabled() {
		t.Error("recorder over nil sinks reports Enabled")
	}
}

func TestRingSinkOrderAndOverwrite(t *testing.T) {
	s := NewRingSink(3)
	for i := 0; i < 5; i++ {
		s.Record(Event{Type: EvTaskStart, Round: i})
	}
	got := s.Snapshot()
	if len(got) != 3 {
		t.Fatalf("retained %d events, want 3", len(got))
	}
	for i, e := range got {
		if want := i + 2; e.Round != want {
			t.Errorf("event %d has round %d, want %d (oldest-first)", i, e.Round, want)
		}
	}
	if s.total != 5 {
		t.Errorf("total = %d, want 5", s.total)
	}
	if s.dropped != 2 {
		t.Errorf("dropped = %d, want 2", s.dropped)
	}
	// Snapshot does not clear: the next event overwrites the oldest.
	s.Record(Event{Type: EvTaskFinish, Round: 9})
	if got := s.Snapshot(); len(got) != 3 || got[0].Round != 3 || got[2].Round != 9 {
		t.Errorf("snapshot after one more event = %+v", got)
	}
}

func TestTypeByNameRoundTrip(t *testing.T) {
	for i := range typeNames {
		typ := Type(i)
		if !typ.known() {
			// A retired number renders as Type(n), which names nothing.
			if back, err := TypeByName(typ.String()); err == nil {
				t.Errorf("retired %v resolves to %v", typ, back)
			}
			continue
		}
		back, err := TypeByName(typ.String())
		if err != nil {
			t.Fatalf("TypeByName(%q): %v", typ.String(), err)
		}
		if back != typ {
			t.Errorf("TypeByName(%q) = %v, want %v", typ.String(), back, typ)
		}
	}
	if _, err := TypeByName("nope"); err == nil {
		t.Error("unknown name did not error")
	}
}

func TestEventFormat(t *testing.T) {
	e := Event{
		Type: EvJobSwitch, Time: 12.5, GPU: 3, Job: 7, From: 2,
		Dur: 0.42, Hit: true,
	}
	line := e.Format()
	for _, want := range []string{"job-switch", "gpu3", "from=j2", "0.4200s", "residency hit"} {
		if !strings.Contains(line, want) {
			t.Errorf("Format() = %q, missing %q", line, want)
		}
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	events := []Event{
		{Type: EvTaskStart, Time: 1, GPU: 0, Job: 1},
		{Type: EvTaskFinish, Time: 5, GPU: 0, Job: 1, Dur: 4, Train: 3.5, Sync: 0.5, Note: "ResNet50"},
		{Type: EvMemAdmit, Time: 5, GPU: 0, Job: 1, Bytes: 1 << 20},
	}
	path := filepath.Join(t.TempDir(), "events.jsonl")
	sink, err := CreateJSONL(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		sink.Record(e)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSONL(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(events) {
		t.Fatalf("read %d events, want %d", len(back), len(events))
	}
	for i := range events {
		if back[i] != events[i] {
			t.Errorf("event %d round-tripped to %+v, want %+v", i, back[i], events[i])
		}
	}
}

func TestRegistryExposition(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("hare_tasks_total").Add(3)
	reg.Counter("hare_tasks_total").Inc()
	reg.Gauge("hare_pending").Set(2)
	reg.Gauge("hare_pending").Set(1)
	reg.Counter(`hare_switches_total{scheme="hare"}`).Inc()
	reg.Counter(`hare_switches_total{scheme="default"}`).Add(2)
	h := reg.Histogram("hare_wait_seconds", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(10)

	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE hare_tasks_total counter",
		"hare_tasks_total 4",
		"# TYPE hare_pending gauge",
		"hare_pending 1",
		// One TYPE header per family, both labeled series present.
		"# TYPE hare_switches_total counter",
		`hare_switches_total{scheme="hare"} 1`,
		`hare_switches_total{scheme="default"} 2`,
		"# TYPE hare_wait_seconds histogram",
		`hare_wait_seconds_bucket{le="0.1"} 1`,
		`hare_wait_seconds_bucket{le="1"} 2`,
		`hare_wait_seconds_bucket{le="+Inf"} 3`,
		"hare_wait_seconds_sum 10.55",
		"hare_wait_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "# TYPE hare_switches_total"); n != 1 {
		t.Errorf("family header appears %d times, want 1:\n%s", n, out)
	}

	// Counters refuse to go down; nil registry hands out no-ops.
	reg.Counter("hare_tasks_total").Add(-5)
	if v := reg.Counter("hare_tasks_total").Value(); v != 4 {
		t.Errorf("counter after negative Add = %g, want 4", v)
	}
	var nilReg *Registry
	nilReg.Counter("x").Inc()
	nilReg.Gauge("y").Set(1)
	nilReg.Histogram("z", nil).Observe(1)
	if err := nilReg.WriteText(&buf); err != nil {
		t.Errorf("nil registry WriteText: %v", err)
	}
}
