package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"sync"

	"hare/internal/obs/perf"
)

// benchClock is the one clock the benchmark reads: every timestamp is
// seconds since process start (monotonic), read inside obs/perf so the
// package stays clean under harelint's walltime analyzer.
var benchClock = perf.StartStopwatch()

func now() float64 { return benchClock.Seconds() }

// spanRec is one traced interval. Structural spans nest strictly (the
// closed loop runs one op at a time, and every structural call inside
// an op is sequential even when it hops goroutines through an RPC);
// leaf spans come from decorators that may run on other goroutines
// (WAL appends and checkpoint saves inside RPC handlers) and never
// have children.
type spanRec struct {
	Name   string
	Start  float64
	End    float64
	Parent int // index into tracer.spans, -1 for an op root
	Op     int
	Leaf   bool
}

// tracer is the benchmark's own in-memory span recorder. A nil tracer
// is the untraced pass: every method is a no-op, so op code calls it
// unconditionally and the end-to-end pass pays one nil check per call
// site.
type tracer struct {
	mu     sync.Mutex
	spans  []spanRec
	cur    int // innermost open structural span, -1 when none
	op     int
	counts map[string]float64
}

func newTracer() *tracer {
	return &tracer{cur: -1, counts: make(map[string]float64)}
}

// begin opens a structural span under the innermost open one and
// returns its id for end.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, spanRec{Name: name, Start: now(), Parent: t.cur, Op: t.op})
	t.cur = id
	return id
}

// end closes a structural span opened by begin.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now()
	t.cur = t.spans[id].Parent
}

// beginOp opens the root span of measured op i.
func (t *tracer) beginOp(i int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	t.op = i
	t.cur = -1
	t.mu.Unlock()
	return t.begin("op")
}

// leaf records a finished interval under the innermost open structural
// span. Safe from any goroutine.
func (t *tracer) leaf(name string, start, end float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, spanRec{Name: name, Start: start, End: end, Parent: t.cur, Op: t.op, Leaf: true})
}

// add accumulates a named count (bytes, records, allocations) at the
// boundary where the work happens.
func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

func (t *tracer) count(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[name]
}

// heapSample reads the cumulative heap allocation counters without
// stopping the world.
type heapSample struct{ bytes, objects float64 }

var heapMetricNames = []string{"/gc/heap/allocs:bytes", "/gc/heap/allocs:objects"}

func readHeap() heapSample {
	s := make([]metrics.Sample, len(heapMetricNames))
	for i, n := range heapMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return heapSample{bytes: float64(s[0].Value.Uint64()), objects: float64(s[1].Value.Uint64())}
}

// heap is readHeap on a live tracer and zero on the untraced pass, so
// allocation metering costs nothing where end-to-end numbers are taken.
func (t *tracer) heap() heapSample {
	if t == nil {
		return heapSample{}
	}
	return readHeap()
}

// spanStats aggregates every span of one name.
type spanStats struct {
	N     int
	Total float64
	// PerOp is the summed duration per op, in op order (ops without the
	// span are absent).
	PerOp []float64
}

func (s spanStats) mean() float64 {
	if s.N == 0 {
		return 0
	}
	return s.Total / float64(s.N)
}

func (t *tracer) stats(name string) spanStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	var st spanStats
	lastOp := 0
	for _, s := range t.spans {
		if s.Name != name {
			continue
		}
		d := s.End - s.Start
		// Spans are recorded op after op, so one op's spans are adjacent.
		if st.N > 0 && s.Op == lastOp {
			st.PerOp[len(st.PerOp)-1] += d
		} else {
			st.PerOp = append(st.PerOp, d)
			lastOp = s.Op
		}
		st.N++
		st.Total += d
	}
	return st
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval its children cover (children clipped to the parent,
// overlapping children counted once).
func selfTimes(spans []spanRec) []float64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]float64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := 0.0, s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// selfTimeResidual returns the worst per-op relative gap between the
// sum of self times and the op's wall time. Zero means the spans tile
// their op exactly; concurrency among leaves or a child sticking out
// of its parent shows up as a positive gap.
func selfTimeResidual(spans []spanRec) float64 {
	self := selfTimes(spans)
	sum := map[int]float64{}
	wall := map[int]float64{}
	var ops []int
	for i, s := range spans {
		if s.Parent < 0 {
			wall[s.Op] = s.End - s.Start
			ops = append(ops, s.Op)
		}
		sum[s.Op] += self[i]
	}
	worst := 0.0
	for _, op := range ops {
		if w := wall[op]; w > 0 {
			if gap := math.Abs(sum[op]-w) / w; gap > worst {
				worst = gap
			}
		}
	}
	return worst
}

// chromeEvent is one trace-event-format "complete" event.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome dumps the spans as a chrome trace (chrome://tracing,
// Perfetto): structural spans on lane 0, decorator leaves on lane 1.
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	spans := append([]spanRec(nil), t.spans...)
	t.mu.Unlock()
	self := selfTimes(spans)
	events := make([]chromeEvent, len(spans))
	for i, s := range spans {
		tid := 0
		if s.Leaf {
			tid = 1
		}
		events[i] = chromeEvent{
			Name: s.Name, Ph: "X", Ts: s.Start * 1e6, Dur: (s.End - s.Start) * 1e6, Pid: 1, Tid: tid,
			Args: map[string]any{"op": s.Op, "id": i, "parent": s.Parent, "self_us": self[i] * 1e6},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return fmt.Errorf("trace: marshal: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}
