package sched

import (
	"fmt"
	"math"
	"slices"

	"hare/internal/core"
	"hare/internal/eventq"
	"hare/internal/obs"
	"hare/internal/sched/relax"
)

// GPUPick selects how Algorithm 1's line 12 chooses a GPU for the
// next task.
type GPUPick int

const (
	// PickEarliestAvailable is the paper's rule: m* = argmin_m φ_m.
	PickEarliestAvailable GPUPick = iota
	// PickEarliestFinish is the ablation variant: m* minimizes the
	// task's finish time max(t_i, φ_m) + T^c_{i,m}, trading a later
	// slot on a fast GPU against an early slot on a slow one.
	PickEarliestFinish
	// pickGang places a round at once, strict-gang style: every task
	// starts at the earliest time Scale GPUs are free, on the fastest of
	// the GPUs free then (NewHareStrict).
	pickGang
)

func (p GPUPick) String() string {
	switch p {
	case PickEarliestAvailable:
		return "earliest-available"
	case PickEarliestFinish:
		return "earliest-finish"
	case pickGang:
		return "gang"
	}
	return fmt.Sprintf("GPUPick(%d)", int(p))
}

// Hare implements the paper's Algorithm 1: solve the relaxed problem,
// sort tasks by middle completion time H_i, then list-schedule each
// task at the earliest feasible time on the chosen GPU. Tasks of the
// same round may land sequentially on one GPU — the relaxed
// scale-fixed synchronization that distinguishes Hare from strict
// gang scheduling.
type Hare struct {
	// Pick selects the line-12 GPU choice; the zero value is the
	// paper's earliest-available rule.
	Pick GPUPick
	// name overrides the display name (used by ablation variants).
	name string
	// rec, when set, traces every placement decision: the task, its
	// relaxation sort key H_i, the chosen GPU and the planned start.
	rec *obs.Recorder
}

// SetRecorder attaches an observability recorder; each Schedule call
// then emits one EvSchedDecision per task placement.
func (h *Hare) SetRecorder(r *obs.Recorder) { h.rec = r }

// NewHare returns the Hare scheduler. It uses the earliest-finish
// GPU pick: the paper's relaxation carries per-GPU assignment
// information (ŷ_{i,m}) into Algorithm 1 that our solver-free fluid
// relaxation does not, so the finish-time-aware pick restores the
// heterogeneity signal at assignment time. The paper-literal
// argmin-φ pick is available as NewHareEA for the ablation study
// (experiments.AblationEFT), where it measurably underperforms.
func NewHare() *Hare { return &Hare{Pick: PickEarliestFinish} }

// NewHareEA returns the paper-literal line-12 variant (m* = argmin_m
// φ_m), kept for the ablation study.
func NewHareEA() *Hare {
	return &Hare{Pick: PickEarliestAvailable, name: "Hare-EA"}
}

// NewHareStrict returns the strict-gang ablation of Hare: the same
// relaxation-driven round order, but every round is scale-fixed in the
// *traditional* sense — all of its tasks start simultaneously on
// distinct GPUs (Fig. 4(a)) instead of running sequentially when that
// finishes earlier (Fig. 4(b)). The gap between Hare-strict and Hare
// quantifies the benefit of relaxed scale-fixed synchronization.
func NewHareStrict() *Hare { return &Hare{Pick: pickGang, name: "Hare-strict"} }

// Name implements Algorithm.
func (h *Hare) Name() string {
	if h.name != "" {
		return h.name
	}
	return "Hare"
}

// Schedule implements Algorithm: one clairvoyant epoch, at −∞, that sees
// every job and commits every round.
func (h *Hare) Schedule(in *core.Instance) (*core.Schedule, error) {
	if h.Pick == pickGang {
		if err := validateGang(in); err != nil {
			return nil, err
		}
	}
	return listSchedule(in, &plan{pick: h.Pick, rec: h.rec, note: h.Pick.String()}, []float64{math.Inf(-1)})
}

// jobState tracks a job's committed progress across planning epochs.
type jobState struct {
	// committed is the number of leading rounds already fixed.
	committed int
	// barrier is the completion time of the last committed round
	// (the job's arrival before anything commits).
	barrier float64
}

// epochJob is an arrived, unfinished job within one planning epoch.
type epochJob struct {
	job  core.Job   // its remaining rounds, as the relaxation sees them
	real core.JobID // the job behind it
	base int        // rounds committed before this epoch
	// next is the first round (numbered within job) not yet
	// list-scheduled this epoch; ready is when its tasks become
	// available: the previous round's barrier.
	next  int
	ready float64
	// known counts the rounds whose x̂ the relaxation has produced.
	known int
}

// plan is what one Schedule call carries from epoch to epoch: how it
// places and reports a round (pick, rec, note), the committed state
// (states, phi) and the arenas each epoch refills.
type plan struct {
	pick   GPUPick
	rec    *obs.Recorder
	note   string // decision events' Note
	states []jobState
	phi    []float64 // φ_m over committed work
	tmax   []float64 // max_m T^c per job: H_i = x̂_i + ½·tmax
	tmpPhi []float64 // φ_m within an epoch's list scheduling
	jobs   []epochJob
	sub    core.Instance // jobs' remaining work, for the relaxation
	fluid  relax.Stream  // the relaxation of sub, advanced as π is read
	// order yields π round by round: the epoch's jobs keyed by the H of
	// their next round, once the relaxation has produced it. A round's
	// tasks share H and a job's rounds have non-descending H, so merging
	// the jobs is sorting the tasks on (H, job, round, index).
	order *eventq.IndexedHeap
	round []core.Placement // the round being list-scheduled
}

// listSchedule is Algorithm 1 planned at each of epochs, in order: an
// epoch list-schedules the remaining rounds of the jobs that arrive
// before the next epoch and commits the rounds that begin before it.
// Offline Hare is the single epoch −∞; OnlineHare plans at every
// distinct arrival.
func listSchedule(in *core.Instance, p *plan, epochs []float64) (*core.Schedule, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	n := len(in.Jobs)
	p.states, p.tmax = make([]jobState, n), make([]float64, n)
	p.phi, p.tmpPhi = make([]float64, in.NumGPUs), make([]float64, in.NumGPUs)
	p.jobs = make([]epochJob, 0, n) // never regrown: sub.Jobs points into it
	p.sub = core.Instance{Jobs: make([]*core.Job, 0, n), Train: make([][]float64, 0, n), Sync: make([][]float64, 0, n)}
	p.order = eventq.NewIndexedHeap(n)
	defer p.fluid.Close()
	scale := 0
	for i, j := range in.Jobs {
		p.states[i].barrier = j.Arrival
		p.tmax[i] = slices.Max(in.Train[i])
		scale = max(scale, j.Scale)
	}
	p.round = make([]core.Placement, 0, scale)

	s := core.NewSchedule(in)
	for ei, now := range epochs {
		next := math.Inf(1)
		if ei+1 < len(epochs) {
			next = epochs[ei+1]
		}
		if err := p.planEpoch(in, s, now, next); err != nil {
			return nil, fmt.Errorf("sched: epoch at %g: %w", now, err)
		}
	}
	// Everything must be committed after the final epoch.
	for _, j := range in.Jobs {
		if p.states[j.ID].committed != j.Rounds {
			return nil, fmt.Errorf("sched: job %d committed %d/%d rounds", j.ID, p.states[j.ID].committed, j.Rounds)
		}
	}
	return s, nil
}

// planEpoch plans the remaining rounds of arrived jobs as offline Hare
// would, as far as the plan can matter before the next epoch, and
// commits the rounds that start before it.
func (p *plan) planEpoch(in *core.Instance, s *core.Schedule, now, next float64) error {
	// Sub-instance over remaining work of arrived jobs.
	p.jobs, p.sub.Jobs, p.sub.Train, p.sub.Sync = p.jobs[:0], p.sub.Jobs[:0], p.sub.Train[:0], p.sub.Sync[:0]
	p.sub.NumGPUs = in.NumGPUs
	for _, j := range in.Jobs {
		st := p.states[j.ID]
		if j.Arrival >= next || st.committed == j.Rounds {
			continue
		}
		arrival := max(st.barrier, now)
		p.jobs = append(p.jobs, epochJob{
			job: core.Job{
				ID: core.JobID(len(p.jobs)), Name: j.Name, Model: j.Model, Weight: j.Weight,
				Arrival: arrival, Rounds: j.Rounds - st.committed, Scale: j.Scale,
			},
			real: j.ID, base: st.committed, ready: arrival,
		})
		p.sub.Jobs = append(p.sub.Jobs, &p.jobs[len(p.jobs)-1].job)
		p.sub.Train = append(p.sub.Train, in.Train[j.ID])
		p.sub.Sync = append(p.sub.Sync, in.Sync[j.ID])
	}
	if len(p.jobs) == 0 {
		return nil
	}

	sol := p.fluid.Reset(&p.sub)
	p.order.Reset(len(p.jobs))
	half, unknown := math.Inf(1), 0 // least ½·tmax; rounds with no x̂ yet
	// live counts the jobs that can still commit a round this epoch:
	// those with rounds left whose ready is before the next epoch. A
	// round's tasks start no earlier than its ready, and ready only grows.
	live := 0
	for i := range p.jobs {
		ej := &p.jobs[i]
		half = min(half, 0.5*p.tmax[ej.real])
		unknown += ej.job.Rounds
		if ej.ready < next {
			live++
		}
	}
	// open counts the GPUs free before the next epoch: φ only grows and
	// no task starts before min_m φ_m.
	copy(p.tmpPhi, p.phi)
	open := 0
	for _, f := range p.tmpPhi {
		if f < next {
			open++
		}
	}

	// List-schedule π over the *current* φ, exactly as Algorithm 1
	// does, one round at a time, while a round placed could still begin
	// before the next epoch; the rest of π is left to the next epoch.
	for live > 0 && open > 0 {
		// π is read lazily: the relaxation runs only until every H it has
		// not produced yet is larger than the heap's minimum, which is then
		// π's next round. A round the fluid clock x has not started starts
		// at or after x, and rounding is monotone, so its H is at least
		// x + the epoch's least ½·tmax. A job whose next round the
		// relaxation has not reached waits outside the heap.
		for unknown > 0 {
			if _, hmin, ok := p.order.Min(); ok && p.fluid.Now()+half > hmin {
				break
			}
			if !p.fluid.Step() {
				i := slices.IndexFunc(p.jobs, func(ej epochJob) bool { return ej.known < ej.job.Rounds })
				return fmt.Errorf("relaxation ended before round %d of job %d started", p.jobs[i].base+p.jobs[i].known, p.jobs[i].real)
			}
			for _, i := range p.fluid.Started() {
				ej := &p.jobs[i]
				if ej.known == ej.next { // the round the job waits for
					p.order.Set(i, sol.RoundStart[i][ej.known]+0.5*p.tmax[ej.real])
				}
				ej.known++
				unknown--
			}
		}
		i, hr, _ := p.order.Min()
		ej := &p.jobs[i]
		train, sync := in.Train[ej.real], in.Sync[ej.real]
		// Lines 12–16 for each task of the round. The gang pick chooses
		// the round's GPUs up front and starts every task at t0.
		t0, gang := ej.ready, []int(nil)
		if p.pick == pickGang {
			g := gangState{in: in, free: p.tmpPhi}
			t0 = g.earliestForScale(ej.job.Scale, ej.ready)
			gang = pickFastest(in, in.Jobs[ej.real], g.idleAt(t0), ej.job.Scale)
		}
		p.round = p.round[:0]
		first, barrier := math.Inf(1), 0.0
		for k := 0; k < ej.job.Scale; k++ {
			m, start := 0, t0
			if gang != nil {
				m = gang[k]
			} else {
				m = pickGPU(in, p.pick, ej.real, p.tmpPhi, ej.ready)
				start = max(ej.ready, p.tmpPhi[m])
			}
			end := start + train[m]
			if p.tmpPhi[m] < next && end >= next {
				open--
			}
			p.tmpPhi[m] = end
			barrier = max(barrier, end+sync[m])
			first = min(first, start)
			p.round = append(p.round, core.Placement{GPU: m, Start: start})
		}
		// Commit the round if it has *begun* before the next epoch:
		// once a round's first task starts, its sequence entries are
		// already with the executors and — tasks being non-preemptible —
		// the round runs to completion; only rounds that have not begun
		// are re-planned with the new information. Round starts are
		// ordered within a job, so a committed round's predecessors are
		// always committed too.
		if realRound := ej.base + ej.next; first < next {
			for k, pl := range p.round {
				s.Place(core.TaskRef{Job: ej.real, Round: realRound, Index: k}, pl.GPU, pl.Start)
				if p.rec.Enabled() {
					p.rec.Emit(obs.Event{
						Type: obs.EvSchedDecision, Time: pl.Start, GPU: pl.GPU,
						Job: int(ej.real), Round: realRound, Index: k,
						H: hr, Note: p.note,
					})
				}
				p.phi[pl.GPU] = max(p.phi[pl.GPU], pl.Start+train[pl.GPU])
			}
			p.states[ej.real] = jobState{committed: realRound + 1, barrier: barrier}
		}
		if ej.ready < next && (ej.next+1 == ej.job.Rounds || barrier >= next) {
			live-- // the job's last round this epoch that could commit
		}
		ej.ready = barrier
		if ej.next++; ej.next < ej.known {
			p.order.Set(i, sol.RoundStart[i][ej.next]+0.5*p.tmax[ej.real])
		} else {
			p.order.Remove(i) // finished, or waiting for the relaxation
		}
	}
	return nil
}

// pickGPU is line 12's per-task GPU choice for a task of job j that is
// ready at ti.
func pickGPU(in *core.Instance, pick GPUPick, j core.JobID, phi []float64, ti float64) int {
	switch pick {
	case PickEarliestFinish:
		best, bestFinish := 0, math.Inf(1)
		train := in.Train[j]
		for m := 0; m < in.NumGPUs; m++ {
			f := max(ti, phi[m]) + train[m] // the builtin inlines; math.Max is a call
			if f < bestFinish {
				best, bestFinish = m, f
			}
		}
		return best
	default: // PickEarliestAvailable — argmin_m φ_m (line 12).
		best := 0
		for m := 1; m < in.NumGPUs; m++ {
			if phi[m] < phi[best] {
				best = m
			}
		}
		return best
	}
}
