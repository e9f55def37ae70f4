package obs_test

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hare/internal/obs"
)

// TestSeqRecorderStampsMonotone checks the per-process sequence
// recorder: every emitted event carries the next seq, across sinks.
func TestSeqRecorderStampsMonotone(t *testing.T) {
	collect := obs.NewCollectSink()
	rec := obs.NewSeqRecorder(collect)
	for i := 0; i < 5; i++ {
		rec.Emit(obs.Event{Type: obs.EvLeaseRenew, GPU: 0, Job: -1})
	}
	events := collect.Events()
	if len(events) != 5 {
		t.Fatalf("got %d events, want 5", len(events))
	}
	for i, e := range events {
		if e.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d, want %d", i, e.Seq, i+1)
		}
	}
	// A plain recorder must leave Seq untouched (zero) so merged
	// streams can tell seq-stamped processes apart.
	collect2 := obs.NewCollectSink()
	obs.NewRecorder(collect2).Emit(obs.Event{Type: obs.EvLeaseRenew, GPU: 0, Job: -1})
	if got := collect2.Events()[0].Seq; got != 0 {
		t.Fatalf("plain recorder stamped seq %d", got)
	}
}

// TestRingSinkDump checks the ring as a flight recorder: last-N
// retention, oldest-first dump, nil safety.
func TestRingSinkDump(t *testing.T) {
	f := obs.NewRingSink(3)
	for i := 0; i < 5; i++ {
		f.Record(obs.Event{Type: obs.EvLeaseRenew, GPU: i, Job: -1})
	}
	snap := f.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("ring retained %d events, want 3", len(snap))
	}
	if snap[0].GPU != 2 || snap[2].GPU != 4 {
		t.Fatalf("ring not oldest-first last-N: gpus %d..%d", snap[0].GPU, snap[2].GPU)
	}
	path := filepath.Join(t.TempDir(), "proc.flight.jsonl")
	if err := f.Dump(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	events, err := obs.ReadJSONL(raw)
	raw.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 || events[0].GPU != 2 {
		t.Fatalf("dump round-trip: %+v", events)
	}

	var nilF *obs.RingSink
	never := filepath.Join(t.TempDir(), "never")
	if err := nilF.Dump(never); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(never); err == nil {
		t.Fatal("nil ring wrote a dump")
	}
}

// TestParseTextRoundTrip scrapes a registry's exposition back into
// samples, including labeled series and histograms.
func TestParseTextRoundTrip(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("hare_test_total").Add(3)
	reg.Counter(`hare_test_labeled_total{gpu="2"}`).Inc()
	reg.Gauge(`hare_dist_queue_depth{gpu="2"}`).Set(7)
	reg.Histogram("hare_test_seconds", obs.DefSecondsBuckets).Observe(0.02)

	var buf strings.Builder
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := obs.ParseText(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	find := func(name, gpu string) (obs.Sample, bool) {
		for _, s := range samples {
			if s.Name == name && s.Label("gpu") == gpu {
				return s, true
			}
		}
		return obs.Sample{}, false
	}
	if s, ok := find("hare_test_total", ""); !ok || s.Value != 3 {
		t.Fatalf("hare_test_total: %+v ok=%v", s, ok)
	}
	if s, ok := find("hare_test_labeled_total", "2"); !ok || s.Value != 1 {
		t.Fatalf("labeled counter: %+v ok=%v", s, ok)
	}
	if s, ok := find("hare_dist_queue_depth", "2"); !ok || s.Value != 7 {
		t.Fatalf("labeled gauge: %+v ok=%v", s, ok)
	}
	if s, ok := find("hare_test_seconds_count", ""); !ok || s.Value != 1 {
		t.Fatalf("histogram count: %+v ok=%v", s, ok)
	}

	if _, err := obs.ParseText(strings.NewReader("hare_bad{unterminated value\n")); err == nil {
		t.Fatal("malformed exposition parsed without error")
	}
}

// TestRPCObserverNilPath pins the off switch: a nil observer hands out
// nil handles whose whole call path is inert, and NewRPCObserver
// returns nil exactly when both outputs are off.
func TestRPCObserverNilPath(t *testing.T) {
	if o := obs.NewRPCObserver(nil, nil, "client"); o != nil {
		t.Fatal("observer with no outputs must be nil")
	}
	var m *obs.RPCMethod
	if m.Active() {
		t.Fatal("nil method reports active")
	}
	tm := m.Start(1)
	m.Observe(tm, 2, obs.Event{GPU: 0}, errors.New("boom")) // must not panic

	// With only a registry, the observer still counts.
	reg := obs.NewRegistry()
	om := obs.NewRPCObserver(nil, reg, "server").Method("Push")
	if !om.Active() {
		t.Fatal("registry-only observer inactive")
	}
	tm = om.Start(1)
	om.Observe(tm, 1.5, obs.Event{GPU: 0}, errors.New("boom"))
	var buf strings.Builder
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if !strings.Contains(text, `hare_rpc_server_calls_total{method="Push"} 1`) {
		t.Fatalf("calls counter missing:\n%s", text)
	}
	if !strings.Contains(text, `hare_rpc_server_errors_total{method="Push"} 1`) {
		t.Fatalf("errors counter missing:\n%s", text)
	}
}

// TestRPCObserverEmitsEvent checks the on path: one rpc.<side> event
// per call with the caller's trace context and the method in Note,
// "!"-suffixed on error.
func TestRPCObserverEmitsEvent(t *testing.T) {
	collect := obs.NewCollectSink()
	m := obs.NewRPCObserver(obs.NewRecorder(collect), nil, "client").Method("Push")
	tm := m.Start(10)
	m.Observe(tm, 10.5, obs.Event{GPU: 3, Call: 42, Epoch: 2}, nil)
	tm = m.Start(11)
	m.Observe(tm, 11.25, obs.Event{GPU: 3, Call: 43, Epoch: 2}, errors.New("conn reset"))

	events := collect.Events()
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2", len(events))
	}
	e := events[0]
	if e.Type != obs.EvRPCClient || e.Time != 10 || e.Dur != 0.5 ||
		e.GPU != 3 || e.Call != 42 || e.Epoch != 2 || e.Note != "Push" {
		t.Fatalf("clean call event: %+v", e)
	}
	if events[1].Note != "Push!" {
		t.Fatalf("error call note = %q, want Push!", events[1].Note)
	}
}
