package sim

import (
	"fmt"
	"math"

	"hare/internal/cluster"
	"hare/internal/core"
	"hare/internal/eventq"
	"hare/internal/faults"
	"hare/internal/gpumem"
	"hare/internal/model"
	"hare/internal/obs"
	"hare/internal/sched"
	"hare/internal/switching"
)

// maxMemoEntries caps the dense switching-cost table. Real fleets have
// a handful of GPU types and the model zoo a handful of architectures,
// so the table is tiny; a pathological instance (thousands of distinct
// model values) falls back to calling switching.Cost directly, which
// is pure and cheap.
const maxMemoEntries = 1 << 20

// Simulator is a reusable replay engine: all run state — executor
// lanes, barrier tables, the candidate heap, waiter lists, the
// switching-cost memo, and the failure-path scratch — lives in
// capacity-reusing arenas, so replay after replay allocates next to
// nothing. A Simulator is not safe for concurrent use; pool one per
// goroutine (the package-level Run does exactly that).
type Simulator struct {
	r      replay
	seqBuf core.SeqBuffer

	// ready holds every GPU whose head task has a final barrier,
	// keyed by its cached feasible start; ties pop in GPU-id order,
	// matching the reference scan's first-best-index selection.
	ready *eventq.IndexedHeap
	cands []candidate

	// Waiter lists, one FIFO per (job, round) barrier slot, stored as
	// intrusive linked lists over GPU ids: waitHead/waitTail index by
	// the flattened round slot (see replay.roundOff), waitNext chains
	// GPUs. A GPU waits on at most one barrier (its head task's), so
	// one next-pointer per GPU suffices. Wake order is push order —
	// identical to the reference engine's append-order refresh.
	waitHead, waitTail, waitNext []int32

	// alive[m] turns false when a planned GPU failure fires; dead GPUs
	// never re-enter the ready pool.
	alive []bool

	// Dense switching-cost memo: switching.Cost depends only on
	// (scheme, GPU type, prev model, next model, residency), so jobs
	// collapse onto their distinct models and GPUs onto their distinct
	// types. Entries are validated against epoch — bumping it
	// invalidates the whole table in O(1) between runs.
	typeScratch  map[cluster.GPUType]int
	typeIdx      []int
	modelScratch map[*model.Model]int
	modelIdx     []int
	memo         []switching.Breakdown
	memoEpoch    []uint32
	epoch        uint32
	nModels      int
	memoOK       bool

	// GPU-failure re-plan scratch: the stranded-task copy that used to
	// be allocated per failure, the pending/survivor collection, and
	// the residual's lookahead rebuild all reuse these.
	strandedBuf []core.TaskRef
	pendingBuf  []core.TaskRef
	aliveBuf    []int
}

// NewSimulator returns an empty Simulator; its arenas grow to the
// first workload's size on the first Run and are reused afterwards.
func NewSimulator() *Simulator {
	return &Simulator{ready: eventq.NewIndexedHeap(0)}
}

// fillNeg returns s with length n and every element -1, reusing
// capacity when possible.
func fillNeg(s []int32, n int) []int32 {
	if cap(s) < n {
		s = make([]int32, n)
	} else {
		s = s[:n]
	}
	for i := range s {
		s[i] = -1
	}
	return s
}

// Run replays the schedule on the reusable engine. The semantics and
// results are byte-identical to RunReference; Options.Parallel is
// ignored (a Simulator is always serial — the package-level Run does
// the sharding).
//
// The returned Result and its slices are owned by the Simulator and
// valid only until the next Run call; use Result.Clone to keep one.
func (s *Simulator) Run(in *core.Instance, sch *core.Schedule, cl *cluster.Cluster, models []*model.Model, opts Options) (*Result, error) {
	opts.Parallel = 0
	r := &s.r
	if err := r.init(in, sch, cl, models, opts, &s.seqBuf); err != nil {
		return nil, err
	}
	r.waker = s

	s.memoOK = false
	if r.withSwitching {
		// typeIdx collapses the fleet onto its few distinct GPU types
		// so switching costs memoize across GPUs, not just per GPU;
		// modelIdx does the same for jobs over their models.
		if s.typeScratch == nil {
			s.typeScratch = make(map[cluster.GPUType]int)
		} else {
			clear(s.typeScratch)
		}
		s.typeIdx = growZero(s.typeIdx, in.NumGPUs)
		for m := range s.typeIdx {
			id, ok := s.typeScratch[cl.GPUs[m].Type]
			if !ok {
				id = len(s.typeScratch)
				s.typeScratch[cl.GPUs[m].Type] = id
			}
			s.typeIdx[m] = id
		}
		if s.modelScratch == nil {
			s.modelScratch = make(map[*model.Model]int)
		} else {
			clear(s.modelScratch)
		}
		s.modelIdx = growZero(s.modelIdx, len(in.Jobs))
		for j := range s.modelIdx {
			id, ok := s.modelScratch[models[j]]
			if !ok {
				id = len(s.modelScratch)
				s.modelScratch[models[j]] = id
			}
			s.modelIdx[j] = id
		}
		nTypes, nModels := len(s.typeScratch), len(s.modelScratch)
		if size := nTypes * (nModels + 1) * nModels * 2; size <= maxMemoEntries {
			s.memoOK = true
			s.nModels = nModels
			if cap(s.memo) < size {
				s.memo = make([]switching.Breakdown, size)
				s.memoEpoch = make([]uint32, size)
				s.epoch = 0
			} else {
				s.memo = s.memo[:size]
				s.memoEpoch = s.memoEpoch[:size]
			}
			s.epoch++
			if s.epoch == 0 { // wrapped: stale stamps could alias; wipe once
				clear(s.memoEpoch)
				s.epoch = 1
			}
		}
	}

	s.ready.Reset(in.NumGPUs)
	s.cands = growZero(s.cands, in.NumGPUs)
	s.waitHead = fillNeg(s.waitHead, len(r.remaining))
	s.waitTail = fillNeg(s.waitTail, len(r.remaining))
	s.waitNext = fillNeg(s.waitNext, in.NumGPUs)
	s.alive = growZero(s.alive, in.NumGPUs)
	for m := range s.alive {
		s.alive[m] = true
	}

	failures := opts.Faults.SortedFailures()
	nextFail := 0
	replanner := opts.Replanner
	if replanner == nil && len(failures) > 0 {
		replanner = sched.NewHare()
	}

	for m := range r.gpus {
		s.refresh(m)
	}
	for r.pending > 0 {
		m, start, ok := s.ready.Min()
		if !ok {
			return nil, fmt.Errorf("sim: deadlock with %d tasks pending (round barrier never satisfied)", r.pending)
		}
		// A planned failure due at or before the next task start fires
		// first: it may strand that very task.
		if nextFail < len(failures) && failures[nextFail].Time <= start {
			f := failures[nextFail]
			nextFail++
			if err := s.failGPU(f, replanner); err != nil {
				return nil, err
			}
			continue
		}
		s.ready.PopMin()
		c := s.cands[m]
		r.exec(m, c.start, c.sw, c.hit, c.b)
		s.refresh(m)
	}
	if opts.Metrics != nil {
		ops := s.ready.Ops()
		opts.Metrics.Counter("hare_sim_heap_inserts_total").Add(float64(ops.Inserts))
		opts.Metrics.Counter("hare_sim_heap_pops_total").Add(float64(ops.Pops))
	}
	return r.finish(), nil
}

// release drops references to caller-owned inputs between pooled
// runs; the arenas stay.
func (s *Simulator) release() { s.r.release() }

// refresh recomputes GPU m's head-task candidate and files it in the
// ready heap, or parks the GPU on the barrier blocking it.
func (s *Simulator) refresh(m int) {
	r := &s.r
	g := &r.gpus[m]
	if !s.alive[m] || g.next >= len(g.seq) {
		return // dead, or sequence exhausted; GPU leaves the pool
	}
	t := g.seq[g.next]
	barrier, ok := r.barrierOf(t)
	if !ok {
		s.park(r.roundOff[t.Job]+t.Round-1, m)
		return
	}
	var c candidate
	if r.withSwitching && g.prevJob != t.Job {
		resident := g.mem != nil && g.mem.Resident(gpumem.JobKey(t.Job))
		var b switching.Breakdown
		if s.memoOK {
			pm := -1
			if g.prevJob >= 0 {
				pm = s.modelIdx[g.prevJob]
			}
			idx := ((s.typeIdx[m]*(s.nModels+1)+pm+1)*s.nModels + s.modelIdx[t.Job]) * 2
			if resident {
				idx++
			}
			if s.memoEpoch[idx] != s.epoch {
				s.memo[idx] = s.costOf(m, g.prevJob, t.Job, resident)
				s.memoEpoch[idx] = s.epoch
			}
			b = s.memo[idx]
		} else {
			b = s.costOf(m, g.prevJob, t.Job, resident)
		}
		c.b = b
		c.sw, c.hit = b.Total(), b.ResidentHit
	}
	c.start = math.Max(g.free+c.sw, barrier)
	s.cands[m] = c
	s.ready.Set(m, c.start)
}

func (s *Simulator) costOf(m int, prevJob, nextJob core.JobID, resident bool) switching.Breakdown {
	r := &s.r
	var prev *model.Model
	if prevJob >= 0 {
		prev = r.models[prevJob]
	}
	return switching.Cost(r.opts.Scheme, r.cl.GPUs[m].Type, prev, r.models[nextJob], resident)
}

// park appends GPU m to the FIFO waiter list of a barrier slot.
func (s *Simulator) park(slot, m int) {
	s.waitNext[m] = -1
	if s.waitHead[slot] < 0 {
		s.waitHead[slot] = int32(m)
	} else {
		s.waitNext[s.waitTail[slot]] = int32(m)
	}
	s.waitTail[slot] = int32(m)
}

// roundDone implements roundWaker: wake the GPUs parked on the round's
// barrier, in the order they parked. The list is detached before the
// refreshes run; a woken GPU's head task is the very task that was
// blocked on this round, and its barrier is now final, so a refresh
// here can never re-park onto the slot being drained.
func (s *Simulator) roundDone(job core.JobID, round int) {
	slot := s.r.roundOff[job] + round
	m := s.waitHead[slot]
	s.waitHead[slot], s.waitTail[slot] = -1, -1
	for m >= 0 {
		next := s.waitNext[m]
		s.waitNext[m] = -1
		s.refresh(int(m))
		m = next
	}
}

// failGPU applies one permanent failure: the GPU is cut from the
// pool, its remaining tasks are stranded, and the replanner is
// re-run on the residual instance (all not-yet-executed tasks ×
// surviving GPUs) to refill the survivors' sequences. Tasks whose
// training already committed stand — pops are globally
// nondecreasing in start time, so everything committed started at
// or before the failure instant, and a task whose training began
// before the failure is allowed to finish (detection at task
// granularity, mirroring the distributed plane's lease
// granularity). Re-execution elsewhere restarts a round-r task
// from the round-(r-1) checkpoint, so migration never changes
// learned parameters (relaxed scale-fixed synchronization).
func (s *Simulator) failGPU(f faults.GPUFailure, replanner sched.Algorithm) error {
	r := &s.r
	m := f.GPU
	s.alive[m] = false
	r.res.FailedGPUs = append(r.res.FailedGPUs, m)
	if r.observed {
		kind := "device failure"
		if f.Crash {
			kind = "executor crash"
		}
		r.rec.Emit(obs.Event{
			Type: obs.EvGPUFailed, Time: f.Time, GPU: m, Job: -1,
			Note: fmt.Sprintf("injected %s at t=%g", kind, f.Time),
		})
	}
	g := &r.gpus[m]
	s.strandedBuf = append(s.strandedBuf[:0], g.seq[g.next:]...)
	stranded := s.strandedBuf
	g.seq, g.next = nil, 0
	if s.ready.Contains(m) {
		s.ready.Remove(m)
	}
	s.pendingBuf = s.pendingBuf[:0]
	s.aliveBuf = s.aliveBuf[:0]
	for mm := range r.gpus {
		if !s.alive[mm] {
			continue
		}
		s.aliveBuf = append(s.aliveBuf, mm)
		s.pendingBuf = append(s.pendingBuf, r.gpus[mm].seq[r.gpus[mm].next:]...)
	}
	s.pendingBuf = append(s.pendingBuf, stranded...)
	pending, aliveList := s.pendingBuf, s.aliveBuf
	if len(pending) == 0 {
		return nil // dead GPU had already drained; nothing to move
	}
	seqs, err := faults.Replan(r.in, pending, aliveList, replanner)
	if err != nil {
		return fmt.Errorf("sim: GPU %d failed at t=%g: %w", m, f.Time, err)
	}
	for i := range s.waitHead {
		s.waitHead[i], s.waitTail[i] = -1, -1
	}
	for i := range s.waitNext {
		s.waitNext[i] = -1
	}
	for _, mm := range aliveList {
		gg := &r.gpus[mm]
		gg.seq, gg.next = seqs[mm], 0
		if gg.mem != nil {
			r.lookBuf = growCap(r.lookBuf, len(gg.seq))
			for _, t := range gg.seq {
				r.lookBuf = append(r.lookBuf, gpumem.JobKey(t.Job))
			}
			gg.mem.SetLookahead(r.lookBuf)
		}
		if s.ready.Contains(mm) {
			s.ready.Remove(mm)
		}
		s.refresh(mm)
	}
	r.res.Reschedules++
	r.res.TasksMigrated += len(stranded)
	faults.EmitMigration(r.rec, f.Time, m, len(pending), len(aliveList), stranded, seqs)
	return nil
}
