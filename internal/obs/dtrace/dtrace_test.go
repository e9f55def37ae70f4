package dtrace

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"hare/internal/obs"
)

// rpcPair builds the two ends of one call: the client-side event in
// the executor's clock (skewed by -offset relative to the
// coordinator) and the matching server-side event.
func rpcPair(gpu int, call uint64, method string, start, rtt, serverDur, offset float64) (client, server obs.Event) {
	client = obs.Event{
		Type: obs.EvRPCClient, Time: start - offset, Dur: rtt,
		GPU: gpu, Job: -1, Call: call, Epoch: 1, Note: method,
	}
	// Symmetric wire: the server interval is centered in the client's.
	server = obs.Event{
		Type: obs.EvRPCServer, Time: start + (rtt-serverDur)/2, Dur: serverDur,
		GPU: gpu, Job: -1, Call: call, Epoch: 1, Note: method,
	}
	return client, server
}

// TestOffsetEstimation checks that Merge recovers a constant clock
// skew from RPC pairs, and that the lowest-RTT-quartile filter rejects
// pairs whose midpoints chaos-delay asymmetry has poisoned.
func TestOffsetEstimation(t *testing.T) {
	const skew = 0.5 // executor clock runs 0.5s behind the coordinator
	coord := Stream{Proc: "coord"}
	exec := Stream{Proc: "gpu0"}
	call := uint64(0)
	for i := 0; i < 8; i++ {
		call++
		c, s := rpcPair(0, call, "Push", 10+float64(i), 0.010, 0.002, skew)
		exec.Events = append(exec.Events, c)
		coord.Events = append(coord.Events, s)
	}
	// Four high-RTT pairs with a one-sided injected delay: the server
	// interval sits early in the client's window, so the midpoint
	// difference is off by ~0.095s. Quartile filtering must drop them.
	for i := 0; i < 4; i++ {
		call++
		c, s := rpcPair(0, call, "Push", 30+float64(i), 0.200, 0.002, skew)
		s.Time -= 0.095 // the delay was on the response leg
		exec.Events = append(exec.Events, c)
		coord.Events = append(coord.Events, s)
	}
	// Blocking methods must never contribute: give Next a huge skew
	// that would wreck the median if it leaked in.
	call++
	cn, sn := rpcPair(0, call, "Next", 50, 0.001, 0.0002, skew+99)
	exec.Events = append(exec.Events, cn)
	coord.Events = append(coord.Events, sn)

	_, offsets, err := Merge([]Stream{coord, exec})
	if err != nil {
		t.Fatal(err)
	}
	if offsets[0].Proc != "coord" || offsets[0].Seconds != 0 {
		t.Fatalf("coordinator offset = %+v, want 0", offsets[0])
	}
	got := offsets[1]
	if got.Pairs != 12 {
		t.Fatalf("pairs = %d, want 12 (Next excluded)", got.Pairs)
	}
	if math.Abs(got.Seconds-skew) > 1e-9 {
		t.Fatalf("estimated offset = %.9f, want %.9f", got.Seconds, skew)
	}
}

// TestMergeDeterministic pins the merge's tie-break contract: events
// landing on the same adjusted instant order by (LSN, stream, seq),
// and re-merging the same streams is byte-identical.
func TestMergeDeterministic(t *testing.T) {
	coord := Stream{Proc: "coord", Events: []obs.Event{
		{Type: obs.EvWALAppend, Time: 1, GPU: 0, Job: -1, LSN: 2, Seq: 1},
		{Type: obs.EvWALAppend, Time: 1, GPU: 1, Job: -1, LSN: 1, Seq: 2},
	}}
	exec := Stream{Proc: "gpu0", Events: []obs.Event{
		{Type: obs.EvLeaseRenew, Time: 1, GPU: 0, Job: -1, Seq: 7},
		{Type: obs.EvLeaseRenew, Time: 1, GPU: 0, Job: -1, Seq: 3},
	}}
	merged, _, err := Merge([]Stream{coord, exec})
	if err != nil {
		t.Fatal(err)
	}
	// Same instant: zero-LSN lease events sort before WAL appends
	// (LSN ascending), WAL appends by LSN, lease events by seq.
	if merged[0].Seq != 3 || merged[1].Seq != 7 {
		t.Fatalf("zero-LSN events not seq-ordered: got seqs %d,%d", merged[0].Seq, merged[1].Seq)
	}
	if merged[2].LSN != 1 || merged[3].LSN != 2 {
		t.Fatalf("WAL appends not LSN-ordered: got LSNs %d,%d", merged[2].LSN, merged[3].LSN)
	}

	first, err := json.Marshal(merged)
	if err != nil {
		t.Fatal(err)
	}
	again, _, err := Merge([]Stream{coord, exec})
	if err != nil {
		t.Fatal(err)
	}
	second, err := json.Marshal(again)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("re-merging the same streams changed the timeline")
	}
}

// TestMergeIndependentOfStreamOrder merges every ordering of a
// three-stream fixture whose executors log events at the same instant
// and LSN: the tie is broken by process name, not by where the caller
// put the stream, so every ordering yields the same timeline.
func TestMergeIndependentOfStreamOrder(t *testing.T) {
	c, s := rpcPair(0, 1, "Push", 0, 0.01, 0.002, 0)
	coord := Stream{Proc: "coord", Events: []obs.Event{s,
		{Type: obs.EvTaskFinish, Time: 2, GPU: 1, Job: 0, Seq: 4},
	}}
	a := Stream{Proc: "exec-a", Events: []obs.Event{c,
		{Type: obs.EvTaskFinish, Time: 2, GPU: 0, Job: 0, Seq: 5},
	}}
	b := Stream{Proc: "exec-b", Events: []obs.Event{
		{Type: obs.EvTaskFinish, Time: 2, GPU: 1, Job: 1, Seq: 5},
	}}
	var want []byte
	for _, order := range [][]Stream{
		{coord, a, b}, {coord, b, a}, {a, coord, b},
		{a, b, coord}, {b, coord, a}, {b, a, coord},
	} {
		merged, _, err := Merge(order)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(merged)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Fatalf("merge of %s, %s, %s differs from the first ordering:\n got %s\nwant %s",
				order[0].Proc, order[1].Proc, order[2].Proc, got, want)
		}
	}
}

// TestCoordStream picks the stream carrying server-side events
// regardless of position.
func TestCoordStream(t *testing.T) {
	streams := []Stream{
		{Proc: "gpu0", Events: []obs.Event{{Type: obs.EvRPCClient, Call: 1}}},
		{Proc: "gpu1", Events: []obs.Event{{Type: obs.EvRPCClient, Call: 2}}},
		{Proc: "coord", Events: []obs.Event{{Type: obs.EvRPCServer, Call: 1}}},
	}
	if got := CoordStream(streams); got != 2 {
		t.Fatalf("CoordStream = %d, want 2", got)
	}
}

// TestWireStats checks the wire-time aggregation: wire = client RTT
// minus server handling, floored at zero, grouped by method.
func TestWireStats(t *testing.T) {
	c1, s1 := rpcPair(0, 1, "Push", 10, 0.010, 0.002, 0)
	c2, s2 := rpcPair(1, 2, "Push", 11, 0.020, 0.004, 0)
	c3, s3 := rpcPair(0, 3, "Report", 12, 0.005, 0.001, 0)
	stats := Wire([]obs.Event{c1, s1, c2, s2, c3, s3})
	if len(stats) != 2 {
		t.Fatalf("got %d methods, want 2", len(stats))
	}
	push := stats[0]
	if push.Method != "Push" || push.Calls != 2 {
		t.Fatalf("push stats = %+v", push)
	}
	if math.Abs(push.Total-(0.008+0.016)) > 1e-12 || math.Abs(push.Max-0.016) > 1e-12 {
		t.Fatalf("push wire total=%.6f max=%.6f", push.Total, push.Max)
	}
	if stats[1].Method != "Report" || stats[1].Calls != 1 {
		t.Fatalf("report stats = %+v", stats[1])
	}
}

// TestCanonicalIgnoresTiming renders two physically different replays
// of the same logical run — shuffled interleavings, shifted
// timestamps, different stream attribution — and requires identical
// canonical timelines.
func TestCanonicalIgnoresTiming(t *testing.T) {
	logical := []obs.Event{
		{Type: obs.EvTaskFinish, Job: 1, Round: 0, Index: 0, GPU: 3},
		{Type: obs.EvTaskFinish, Job: 0, Round: 1, Index: 0, GPU: 2},
		{Type: obs.EvTaskFinish, Job: 0, Round: 0, Index: 1, GPU: 1},
		{Type: obs.EvGPUFailed, GPU: 2, Note: "lease expired after 412ms"},
		{Type: obs.EvCoordRecovered, GPU: -1, Job: -1},
		{Type: obs.EvJobComplete, Job: 0},
		{Type: obs.EvJobComplete, Job: 1},
	}
	runA := []Stream{{Proc: "coord", Events: make([]obs.Event, len(logical))}}
	for i, e := range logical {
		e.Time = float64(i) * 1.7
		e.Seq = uint64(i + 1)
		runA[0].Events[i] = e
	}
	// Run B: reversed order, different clock, fence reason wording
	// varies in its timing suffix but not its class.
	runB := []Stream{{Proc: "coord"}, {Proc: "gpu0"}}
	for i := len(logical) - 1; i >= 0; i-- {
		e := logical[i]
		e.Time = 1000 - float64(i)*3.1
		if e.Type == obs.EvGPUFailed {
			e.Note = "lease expired after 987ms"
		}
		runB[i%2].Events = append(runB[i%2].Events, e)
	}
	a, b := Canonical(runA), Canonical(runB)
	if a != b {
		t.Fatalf("canonical timelines differ:\n--- run A ---\n%s--- run B ---\n%s", a, b)
	}
	if a == "" || len(a) < 20 {
		t.Fatalf("suspiciously empty canonical timeline: %q", a)
	}
}

// TestFleetRoundTrip drives the full write/read cycle: a Fleet's
// per-process recorders stamp seq, flight rings dump, Close merges,
// and ReadDir recovers the streams; the flight dumps sit beside them.
func TestFleetRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "trace")
	fleet, err := NewFleet(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	crec := fleet.CoordRecorder(nil)
	fleet.ExecRecorder(0, nil).Emit(obs.Event{Type: obs.EvRPCClient, Time: 1, GPU: 0, Job: -1, Call: 1, Note: "Push"})
	crec.Emit(obs.Event{Type: obs.EvRPCServer, Time: 1.001, GPU: 0, Job: -1, Call: 1, LSN: 1, Note: "Push"})
	crec.Emit(obs.Event{Type: obs.EvWALAppend, Time: 1.002, GPU: 0, Job: -1, LSN: 1})
	fleet.ExecRecorder(1, nil).Emit(obs.Event{Type: obs.EvRPCClient, Time: 2, GPU: 1, Job: -1, Call: 2, Note: "Report"})
	fleet.DumpFlights()
	if err := fleet.Close(); err != nil {
		t.Fatal(err)
	}

	streams, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(streams) != 3 {
		t.Fatalf("got %d streams, want 3 (coord, gpu0, gpu1)", len(streams))
	}
	if streams[0].Proc != "coord" || streams[1].Proc != "gpu0" || streams[2].Proc != "gpu1" {
		t.Fatalf("stream procs = %v %v %v", streams[0].Proc, streams[1].Proc, streams[2].Proc)
	}
	if got := len(streams[0].Events); got != 2 {
		t.Fatalf("coord stream has %d events, want 2", got)
	}
	// The seq recorder stamps each process's events 1,2,3,...
	if streams[0].Events[0].Seq != 1 || streams[0].Events[1].Seq != 2 {
		t.Fatalf("coord seqs = %d,%d, want 1,2", streams[0].Events[0].Seq, streams[0].Events[1].Seq)
	}

	flights, err := filepath.Glob(filepath.Join(dir, "*"+FlightSuffix))
	if err != nil || len(flights) != 3 {
		t.Fatalf("got flight dumps %v (%v), want 3", flights, err)
	}
	dump, err := os.Open(filepath.Join(dir, "coord"+FlightSuffix))
	if err != nil {
		t.Fatal(err)
	}
	coordFlight, err := obs.ReadJSONL(dump)
	dump.Close()
	if err != nil || len(coordFlight) != 2 {
		t.Fatalf("coord flight has %d events (%v), want 2", len(coordFlight), err)
	}

	raw, err := os.ReadFile(filepath.Join(dir, "merged_trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("merged_trace.json is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("merged trace has no events")
	}

	// Nil-fleet accessors hand back the caller's recorder untouched.
	var nilFleet *Fleet
	if nilFleet.CoordRecorder(crec) != crec || nilFleet.ExecRecorder(0, crec) != crec {
		t.Fatal("nil fleet must return the fallback recorder")
	}
	if err := nilFleet.Close(); err != nil {
		t.Fatal(err)
	}
	nilFleet.DumpFlights()
	nilFleet.Sync()
}

// TestWriteChromeOffsets checks WriteChrome reports the per-stream
// offsets it aligned with.
func TestWriteChromeOffsets(t *testing.T) {
	c, s := rpcPair(0, 1, "Push", 10, 0.010, 0.002, 0.25)
	streams := []Stream{
		{Proc: "coord", Events: []obs.Event{s}},
		{Proc: "gpu0", Events: []obs.Event{c}},
	}
	var buf bytes.Buffer
	offsets, err := WriteChrome(&buf, streams)
	if err != nil {
		t.Fatal(err)
	}
	if len(offsets) != 2 || math.Abs(offsets[1].Seconds-0.25) > 1e-9 {
		t.Fatalf("offsets = %+v, want gpu0 ≈ 0.25", offsets)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("WriteChrome emitted invalid JSON")
	}
}
