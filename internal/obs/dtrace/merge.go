package dtrace

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"hare/internal/obs"
	"hare/internal/obs/span"
)

// Offset is one stream's estimated clock offset relative to the
// coordinator's clock: add Seconds to the stream's timestamps to land
// them on the coordinator timeline. Pairs counts the RPC
// request/response pairs the estimate was drawn from (0 means no
// usable pairs; the offset defaults to 0, which is also the design
// point — the control plane re-anchors every process to a shared
// simulated epoch at handshake, so measured offsets are a cross-check,
// not a correction of first resort).
type Offset struct {
	Proc    string
	Seconds float64
	Pairs   int
}

// pairKey links the two ends of one RPC across process streams.
type pairKey struct {
	gpu   int
	call  uint64
	epoch uint64
}

// blockingMethod reports whether an RPC method is unusable for clock
// offset estimation: Next because its server handling blocks (the
// duration is dominated by waiting, not the wire), and Config because
// the client hasn't handshaken the shared clock yet — its client-side
// timestamps sit at sim time 0 and would poison the median.
func blockingMethod(note string) bool {
	m := strings.TrimSuffix(note, "!")
	return m == "Next" || m == "Config"
}

// Merge aligns and merges per-process streams into one timeline on the
// coordinator's clock. Per stream, the offset is the median over its
// matched non-blocking RPC pairs of
//
//	(server midpoint) − (client midpoint)
//
// which cancels symmetric wire time. The merged order is sorted by
// (adjusted time, LSN, process name, seq) — fully deterministic for a
// given set of streams, whatever order the caller lists them in, so
// re-merging the same streams is byte-identical downstream.
func Merge(streams []Stream) ([]obs.Event, []Offset, error) {
	if len(streams) == 0 {
		return nil, nil, fmt.Errorf("dtrace: no streams")
	}
	coord := CoordStream(streams)

	// Index the coordinator's server-side handling of each call.
	server := make(map[pairKey]obs.Event)
	for _, e := range streams[coord].Events {
		if e.Type == obs.EvRPCServer && e.Call != 0 && !blockingMethod(e.Note) {
			server[pairKey{e.GPU, e.Call, e.Epoch}] = e
		}
	}

	offsets := make([]Offset, len(streams))
	for i, s := range streams {
		offsets[i] = Offset{Proc: s.Proc}
		if i == coord {
			continue
		}
		type sample struct{ rtt, delta float64 }
		var samples []sample
		for _, e := range s.Events {
			if e.Type != obs.EvRPCClient || e.Call == 0 || blockingMethod(e.Note) {
				continue
			}
			sv, ok := server[pairKey{e.GPU, e.Call, e.Epoch}]
			if !ok {
				continue
			}
			samples = append(samples, sample{
				rtt:   e.Dur,
				delta: (sv.Time + sv.Dur/2) - (e.Time + e.Dur/2),
			})
		}
		// Estimate from the lowest-RTT quartile only (the NTP trick):
		// chaos-injected delays inflate the client interval on one side
		// of the round trip and would bias the midpoint difference, but
		// they also inflate RTT, so the fastest pairs are the clean ones.
		sort.Slice(samples, func(a, b int) bool {
			if samples[a].rtt != samples[b].rtt { //lint:allow floateq deterministic sort tie-break
				return samples[a].rtt < samples[b].rtt
			}
			return samples[a].delta < samples[b].delta
		})
		keep := len(samples)
		if keep > 4 {
			keep = max(3, (len(samples)+3)/4)
		}
		deltas := make([]float64, 0, keep)
		for _, sm := range samples[:keep] {
			deltas = append(deltas, sm.delta)
		}
		offsets[i].Pairs = len(samples)
		offsets[i].Seconds = median(deltas)
	}

	type tagged struct {
		e    obs.Event
		proc string
	}
	var all []tagged
	for i, s := range streams {
		off := offsets[i].Seconds
		for _, e := range s.Events {
			e.Time += off
			all = append(all, tagged{e, s.Proc})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.e.Time != b.e.Time { //lint:allow floateq deterministic-merge tie-break
			return a.e.Time < b.e.Time
		}
		if a.e.LSN != b.e.LSN {
			return a.e.LSN < b.e.LSN
		}
		if a.proc != b.proc {
			return a.proc < b.proc
		}
		return a.e.Seq < b.e.Seq
	})
	out := make([]obs.Event, len(all))
	for i, t := range all {
		out[i] = t.e
	}
	return out, offsets, nil
}

// median returns the middle value (mean of the two middles for even
// counts), 0 for an empty slice.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// WriteChrome merges the streams and renders them as one chrome trace:
// the standard execution/scheduler/jobs lanes from the coordinator's
// events, the control-plane process with every stream's RPC/lease/WAL
// lanes, and the PR-5 causal span tree folded in from the
// coordinator's task events (so `harectl critpath` readers can line
// wire time up against the span structure). It returns the per-stream
// offsets used.
func WriteChrome(w io.Writer, streams []Stream) ([]Offset, error) {
	merged, offsets, err := Merge(streams)
	if err != nil {
		return nil, err
	}
	var spans []obs.ChromeSpan
	if tree, err := span.Build(streams[CoordStream(streams)].Events); err == nil {
		spans = span.ChromeSpans(tree)
	}
	if err := obs.WriteChromeTraceSpans(w, merged, spans); err != nil {
		return nil, fmt.Errorf("dtrace: %w", err)
	}
	return offsets, nil
}

// WireStats summarizes wire time per RPC method from a merged
// timeline: for each matched (GPU, Call) pair, wire ≈ client duration
// − server duration (both halves of the round trip plus any
// chaos-injected delay).
type WireStats struct {
	Method string
	Calls  int
	Total  float64 // summed wire seconds
	Max    float64
}

// Wire computes per-method wire-time stats from merged (or per-stream
// concatenated) events, sorted by method name.
func Wire(events []obs.Event) []WireStats {
	type half struct {
		dur float64
		ok  bool
	}
	servers := make(map[pairKey]half)
	for _, e := range events {
		if e.Type == obs.EvRPCServer && e.Call != 0 {
			servers[pairKey{e.GPU, e.Call, e.Epoch}] = half{dur: e.Dur, ok: true}
		}
	}
	agg := make(map[string]*WireStats)
	var order []string
	for _, e := range events {
		if e.Type != obs.EvRPCClient || e.Call == 0 {
			continue
		}
		sv, ok := servers[pairKey{e.GPU, e.Call, e.Epoch}]
		if !ok {
			continue
		}
		method := strings.TrimSuffix(e.Note, "!")
		st := agg[method]
		if st == nil {
			st = &WireStats{Method: method}
			agg[method] = st
			order = append(order, method)
		}
		wire := e.Dur - sv.dur
		if wire < 0 {
			wire = 0
		}
		st.Calls++
		st.Total += wire
		if wire > st.Max {
			st.Max = wire
		}
	}
	sort.Strings(order)
	out := make([]WireStats, 0, len(order))
	for _, m := range order {
		out = append(out, *agg[m])
	}
	return out
}
