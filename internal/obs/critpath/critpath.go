// Package critpath extracts each job's critical path from a causal
// span tree (internal/obs/span) and attributes its weighted JCT to
// compute, queueing, barrier-wait, switch, and comm time.
//
// # Attribution model
//
// Under relaxed scale-fixed synchronization a job's round r cannot end
// before its straggler — the last-finishing task of the round — so the
// job's completion C_n telescopes over round barriers:
//
//	a_n = B_{-1} ≤ B_0 ≤ … ≤ B_{R-1} = C_n
//
// where B_r is the maximum task end of round r. Each window
// [B_{r-1}, B_r] is charged to the straggler's chain of monotone time
// points: barrier → (queue | barrier-wait) → switch-in → compute →
// comm. Every bucket is a difference of consecutive chain points, so
// the per-job buckets sum to C_n exactly up to float rounding (the
// golden tests assert 1e-9), and the derivation is a pure function of
// the recorded events — identical for streams produced by sim.Run,
// sim.RunReference, the testbed, and the distributed coordinator when
// the realized task timings are identical.
//
// Bucket semantics within a window, for straggler T on GPU g:
//
//   - comm: T's gradient synchronization tail [trainEnd, B_r].
//   - compute: T's training occupancy [start, trainEnd], including
//     attempts lost to transient faults (wasted GPU time is a compute
//     cost of the fault, not a scheduling cost).
//   - switch: the fast-task-switching stall paid immediately before
//     T's start.
//   - barrier-wait: the part of the pre-start gap during which lane g
//     sat idle blocked on some round barrier (the relaxed-sync
//     straggler effect propagating across jobs).
//   - queue: the remainder of the pre-start gap — time T spent waiting
//     for its GPU while Algorithm 1's list schedule ran other work.
//
// The Arrival bucket is the job's arrival time a_n, so bucket sums
// equal the completion time C_n that WeightedJCT is built from.
package critpath

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"hare/internal/cluster"
	"hare/internal/core"
	"hare/internal/obs/span"
)

// Buckets is one attribution vector, in seconds. The fields sum to the
// attributed completion time (for per-job rows) or its weighted
// aggregate.
type Buckets struct {
	Arrival     float64 `json:"arrival"`
	Queue       float64 `json:"queue"`
	BarrierWait float64 `json:"barrier_wait"`
	Switch      float64 `json:"switch"`
	Compute     float64 `json:"compute"`
	Comm        float64 `json:"comm"`
}

// scaled returns the buckets multiplied by w.
func (b Buckets) scaled(w float64) Buckets {
	return Buckets{
		Arrival: w * b.Arrival, Queue: w * b.Queue, BarrierWait: w * b.BarrierWait,
		Switch: w * b.Switch, Compute: w * b.Compute, Comm: w * b.Comm,
	}
}

// JobAttribution is the critical-path decomposition of one job's
// completion time.
type JobAttribution struct {
	Job        int     `json:"job"`
	Weight     float64 `json:"weight"`
	Completion float64 `json:"completion"`
	Buckets    Buckets `json:"buckets"`
}

// Fractions returns each bucket divided by the completion time (zero
// completion yields zeros).
func (a JobAttribution) Fractions() Buckets {
	if a.Completion <= 0 {
		return Buckets{}
	}
	return a.Buckets.scaled(1 / a.Completion)
}

// Straggler is the task that defined one round's barrier: the task on
// the round critical path whose slack (B_r minus its end) is zero.
type Straggler struct {
	Job    int     `json:"job"`
	Round  int     `json:"round"`
	Index  int     `json:"index"`
	GPU    int     `json:"gpu"`
	End    float64 `json:"end"`    // the barrier B_r it defined
	Ties   int     `json:"ties"`   // zero-slack tasks in the round (≥ 1)
	Spread float64 `json:"spread"` // B_r minus the earliest task end of the round
}

// TypeRow aggregates unweighted window buckets over the stragglers
// that ran on one GPU type (Arrival is a job property, not a lane one,
// and is excluded).
type TypeRow struct {
	Type    string  `json:"type"`
	Windows int     `json:"windows"`
	Buckets Buckets `json:"buckets"`
}

// WeightRow aggregates weighted buckets over all jobs sharing a
// weight; summing Buckets.Sum() across rows reproduces WeightedJCT.
type WeightRow struct {
	Weight  float64 `json:"weight"`
	Jobs    int     `json:"jobs"`
	Buckets Buckets `json:"buckets"`
}

// Report is the full WJCT attribution of one run.
type Report struct {
	Jobs        []JobAttribution `json:"jobs"`
	Stragglers  []Straggler      `json:"stragglers"`
	ByType      []TypeRow        `json:"by_type,omitempty"`
	ByWeight    []WeightRow      `json:"by_weight"`
	Weighted    Buckets          `json:"weighted"` // Σ w_n · job buckets
	WeightedJCT float64          `json:"weighted_jct"`
}

// JobReport returns the attribution row for one job, or nil.
func (r *Report) JobReport(job int) *JobAttribution {
	for i := range r.Jobs {
		if r.Jobs[i].Job == job {
			return &r.Jobs[i]
		}
	}
	return nil
}

// neu is a Neumaier compensated accumulator: the error of summing
// terms that mathematically telescope stays at a couple of ulps
// instead of growing with the round count.
type neu struct{ sum, c float64 }

func (n *neu) add(x float64) {
	t := n.sum + x
	if math.Abs(n.sum) >= math.Abs(x) {
		n.c += (n.sum - t) + x
	} else {
		n.c += (x - t) + n.sum
	}
	n.sum = t
}

func (n *neu) value() float64 { return n.sum + n.c }

// bucketAcc accumulates one Buckets vector with compensation.
type bucketAcc struct {
	arrival, queue, barrier, sw, compute, comm neu
}

func (b *bucketAcc) value() Buckets {
	return Buckets{
		Arrival: b.arrival.value(), Queue: b.queue.value(), BarrierWait: b.barrier.value(),
		Switch: b.sw.value(), Compute: b.compute.value(), Comm: b.comm.value(),
	}
}

func (b *bucketAcc) add(o Buckets) {
	b.arrival.add(o.Arrival)
	b.queue.add(o.Queue)
	b.barrier.add(o.BarrierWait)
	b.sw.add(o.Switch)
	b.compute.add(o.Compute)
	b.comm.add(o.Comm)
}

// interval is a half-open wait interval on one GPU lane.
type interval struct{ start, end float64 }

// Analyze walks the span tree and produces the WJCT attribution
// report. in supplies weights and arrivals; cl (optional) supplies GPU
// type names for the ByType aggregation — pass nil to skip it.
func Analyze(t *span.Tree, in *core.Instance, cl *cluster.Cluster) (*Report, error) {
	if t == nil {
		return nil, fmt.Errorf("critpath: nil span tree")
	}
	if in == nil {
		return nil, fmt.Errorf("critpath: nil instance")
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}

	// Children index (tree order preserved) and per-lane barrier-wait
	// intervals for the queue/barrier split.
	children := make([][]int, len(t.Spans))
	laneWaits := make(map[int][]interval)
	maxLane := -1
	for i, s := range t.Spans {
		if s.Parent != span.NoID {
			children[s.Parent] = append(children[s.Parent], i)
		}
		if s.Kind == span.KindBarrierWait {
			laneWaits[s.GPU] = append(laneWaits[s.GPU], interval{s.Start, s.End})
			if s.GPU > maxLane {
				maxLane = s.GPU
			}
		}
	}
	for g := 0; g <= maxLane; g++ {
		w := laneWaits[g]
		sort.Slice(w, func(i, j int) bool { return w[i].start < w[j].start })
	}

	rep := &Report{}
	byType := make(map[string]*TypeRow)
	byWeight := make(map[float64]*WeightRow)
	var weighted bucketAcc
	var wjct neu

	for _, root := range t.Roots() {
		job := t.Spans[root].Job
		if job < 0 || job >= len(in.Jobs) {
			return nil, fmt.Errorf("critpath: span tree references job %d outside instance (%d jobs)", job, len(in.Jobs))
		}
		spec := in.Jobs[job]
		var acc bucketAcc
		acc.arrival.add(spec.Arrival)
		prevB := spec.Arrival

		for _, rid := range children[root] {
			round := t.Spans[rid]
			w, straggler, err := analyzeWindow(t, children, laneWaits, cl, rid, prevB)
			if err != nil {
				return nil, fmt.Errorf("critpath: job %d round %d: %w", job, round.Round, err)
			}
			acc.add(w.buckets)
			rep.Stragglers = append(rep.Stragglers, straggler)
			if cl != nil && w.lane >= 0 && w.lane < len(cl.GPUs) {
				name := cl.GPUs[w.lane].Type.Name
				row := byType[name]
				if row == nil {
					row = &TypeRow{Type: name}
					byType[name] = row
				}
				row.Windows++
				b := w.buckets
				b.Arrival = 0
				row.Buckets = addBuckets(row.Buckets, b)
			}
			prevB = w.barrier
		}

		ja := JobAttribution{
			Job: job, Weight: spec.Weight,
			Completion: prevB,
			Buckets:    acc.value(),
		}
		rep.Jobs = append(rep.Jobs, ja)
		weighted.add(ja.Buckets.scaled(spec.Weight))
		wjct.add(spec.Weight * ja.Completion)
		row := byWeight[spec.Weight]
		if row == nil {
			row = &WeightRow{Weight: spec.Weight}
			byWeight[spec.Weight] = row
		}
		row.Jobs++
		row.Buckets = addBuckets(row.Buckets, ja.Buckets.scaled(spec.Weight))
	}

	rep.Weighted = weighted.value()
	rep.WeightedJCT = wjct.value()
	typeNames := make([]string, 0, len(byType))
	for name := range byType { //lint:ordered collected into a slice and sorted below
		typeNames = append(typeNames, name)
	}
	sort.Strings(typeNames)
	for _, name := range typeNames {
		rep.ByType = append(rep.ByType, *byType[name])
	}
	weights := make([]float64, 0, len(byWeight))
	for w := range byWeight { //lint:ordered collected into a slice and sorted below
		weights = append(weights, w)
	}
	sort.Float64s(weights)
	for _, w := range weights {
		rep.ByWeight = append(rep.ByWeight, *byWeight[w])
	}
	return rep, nil
}

func addBuckets(a, b Buckets) Buckets {
	return Buckets{
		Arrival: a.Arrival + b.Arrival, Queue: a.Queue + b.Queue,
		BarrierWait: a.BarrierWait + b.BarrierWait, Switch: a.Switch + b.Switch,
		Compute: a.Compute + b.Compute, Comm: a.Comm + b.Comm,
	}
}

// window is one round's contribution to a job's completion.
type window struct {
	buckets Buckets
	barrier float64 // B_r, the next chain anchor
	lane    int     // straggler's GPU
}

// analyzeWindow decomposes the interval [prevB, B_r] along the round
// straggler's chain.
func analyzeWindow(t *span.Tree, children [][]int, laneWaits map[int][]interval, cl *cluster.Cluster, roundID int, prevB float64) (window, Straggler, error) {
	round := t.Spans[roundID]

	// The round's final attempts, plus each task's attempt 0 (which
	// owns the pre-start phases) keyed by index.
	type taskParts struct {
		att0, final int
	}
	parts := make(map[int]*taskParts)
	var indices []int
	for _, cid := range children[roundID] {
		s := t.Spans[cid]
		if s.Kind != span.KindTask || s.Attempt < 0 {
			continue // stranded markers carry no executed time
		}
		p := parts[s.Index]
		if p == nil {
			p = &taskParts{att0: -1, final: -1}
			parts[s.Index] = p
			indices = append(indices, s.Index)
		}
		if s.Attempt == 0 {
			p.att0 = cid
		}
		if !s.Lost {
			p.final = cid
		}
	}
	if len(indices) == 0 {
		return window{}, Straggler{}, fmt.Errorf("no executed attempts in round span")
	}
	sort.Ints(indices)

	// Straggler: max final-attempt end; canonical index order makes
	// the first maximum the smallest-index winner.
	bestIdx, bestEnd, minEnd, ties := -1, 0.0, 0.0, 0
	for _, idx := range indices {
		p := parts[idx]
		if p.final < 0 || p.att0 < 0 {
			return window{}, Straggler{}, fmt.Errorf("task %d missing attempts", idx)
		}
		end := t.Spans[p.final].End
		if bestIdx < 0 {
			bestIdx, bestEnd, minEnd, ties = idx, end, end, 1
			continue
		}
		if end > bestEnd {
			bestIdx, bestEnd, ties = idx, end, 1
		} else if end == bestEnd { //lint:allow floateq zero-slack tie counting
			ties++
		}
		if end < minEnd {
			minEnd = end
		}
	}

	p := parts[bestIdx]
	att0 := t.Spans[p.att0]
	final := t.Spans[p.final]
	barrierB := bestEnd
	if barrierB < prevB {
		barrierB = prevB // defensive: measured clocks cannot regress the chain
	}

	// Chain points from the straggler's phase children.
	s0, swDur, tE := att0.Start, 0.0, final.End
	for _, cid := range children[p.att0] {
		c := t.Spans[cid]
		switch c.Kind {
		case span.KindSwitchIn:
			swDur = c.Dur()
		case span.KindCompute:
			s0 = c.Start
		}
	}
	for _, cid := range children[p.final] {
		c := t.Spans[cid]
		if c.Kind == span.KindCompute {
			tE = c.End
		}
	}

	p2 := clamp(s0, prevB, barrierB)
	p1 := clamp(s0-swDur, prevB, p2)
	p3 := clamp(tE, p2, barrierB)
	gap := p1 - prevB

	// Queue vs barrier-wait: the share of [prevB, p1] during which the
	// straggler's lane sat idle blocked on a round barrier.
	ov := 0.0
	for _, w := range laneWaits[att0.GPU] {
		if w.start >= p1 {
			break
		}
		lo, hi := w.start, w.end
		if lo < prevB {
			lo = prevB
		}
		if hi > p1 {
			hi = p1
		}
		if hi > lo {
			ov += hi - lo
		}
	}
	if ov > gap {
		ov = gap
	}

	win := window{
		buckets: Buckets{
			Queue:       gap - ov,
			BarrierWait: ov,
			Switch:      p2 - p1,
			Compute:     p3 - p2,
			Comm:        barrierB - p3,
		},
		barrier: barrierB,
		lane:    att0.GPU,
	}
	st := Straggler{
		Job: round.Job, Round: round.Round, Index: bestIdx, GPU: final.GPU,
		End: bestEnd, Ties: ties, Spread: bestEnd - minEnd,
	}
	return win, st, nil
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// FormatJob renders one job's critical path: its bucket breakdown plus
// the straggler (zero-slack task) of every round.
func (r *Report) FormatJob(job int) (string, error) {
	ja := r.JobReport(job)
	if ja == nil {
		return "", fmt.Errorf("critpath: job %d not in report", job)
	}
	var b strings.Builder
	f := ja.Fractions()
	fmt.Fprintf(&b, "job %d  weight %g  completion %.6f\n", ja.Job, ja.Weight, ja.Completion)
	fmt.Fprintf(&b, "  arrival  %12.6f  (%5.1f%%)\n", ja.Buckets.Arrival, 100*f.Arrival)
	fmt.Fprintf(&b, "  queue    %12.6f  (%5.1f%%)\n", ja.Buckets.Queue, 100*f.Queue)
	fmt.Fprintf(&b, "  barrier  %12.6f  (%5.1f%%)\n", ja.Buckets.BarrierWait, 100*f.BarrierWait)
	fmt.Fprintf(&b, "  switch   %12.6f  (%5.1f%%)\n", ja.Buckets.Switch, 100*f.Switch)
	fmt.Fprintf(&b, "  compute  %12.6f  (%5.1f%%)\n", ja.Buckets.Compute, 100*f.Compute)
	fmt.Fprintf(&b, "  comm     %12.6f  (%5.1f%%)\n", ja.Buckets.Comm, 100*f.Comm)
	fmt.Fprintf(&b, "  critical path (round stragglers, slack = 0):\n")
	for _, s := range r.Stragglers {
		if s.Job != job {
			continue
		}
		fmt.Fprintf(&b, "    round %-3d task %-3d gpu %-3d barrier %12.6f spread %10.6f ties %d\n",
			s.Round, s.Index, s.GPU, s.End, s.Spread, s.Ties)
	}
	return b.String(), nil
}
