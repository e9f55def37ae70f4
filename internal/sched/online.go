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

// OnlineHare is the dynamic-arrival extension the paper leaves as
// future work (§1, Limitations): a non-clairvoyant scheduler that
// re-runs Hare's relaxation + list scheduling at every job arrival,
// seeing only the jobs that have arrived so far. Work committed
// before an arrival (tasks already started on their GPUs) is never
// revoked — task-level non-preemption carries over — but every
// not-yet-started round is re-planned with the new information.
//
// Comparing OnlineHare with the offline Hare quantifies the value of
// arrival clairvoyance (experiments.AblationOnline).
type OnlineHare struct {
	// Pick is the line-12 GPU choice, as in Hare.
	Pick GPUPick
	// rec, when set, traces committed placement decisions, epoch by
	// epoch (re-planned, uncommitted placements are not reported).
	rec *obs.Recorder
}

// SetRecorder attaches an observability recorder.
func (o *OnlineHare) SetRecorder(r *obs.Recorder) { o.rec = r }

// NewOnlineHare returns the online variant.
func NewOnlineHare() *OnlineHare { return &OnlineHare{Pick: PickEarliestFinish} }

// Name implements Algorithm.
func (*OnlineHare) Name() string { return "Hare-online" }

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

// onlinePlan is what one Schedule call carries from epoch to epoch:
// the committed state (states, phi) and the arenas each epoch refills.
type onlinePlan struct {
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
	// the jobs is sorting the tasks.
	order *eventq.IndexedHeap
	round []core.Placement // the round being list-scheduled
	note  string           // decision events' Note
}

// Schedule implements Algorithm.
func (o *OnlineHare) Schedule(in *core.Instance) (*core.Schedule, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	n := len(in.Jobs)
	p := &onlinePlan{
		states: make([]jobState, n),
		phi:    make([]float64, in.NumGPUs),
		tmax:   make([]float64, n),
		tmpPhi: make([]float64, in.NumGPUs),
		jobs:   make([]epochJob, 0, n), // never regrown: sub.Jobs points into it
		sub: core.Instance{
			Jobs: make([]*core.Job, 0, n), Train: make([][]float64, 0, n), Sync: make([][]float64, 0, n),
		},
		order: eventq.NewIndexedHeap(n),
		note:  "online/" + o.Pick.String(),
	}
	defer p.fluid.Close()
	// Distinct arrival epochs, in order.
	epochs := make([]float64, n)
	scale := 0
	for i, j := range in.Jobs {
		epochs[i] = j.Arrival
		p.states[i].barrier = j.Arrival
		p.tmax[i] = slices.Max(in.Train[i])
		scale = max(scale, j.Scale)
	}
	slices.Sort(epochs)
	epochs = slices.Compact(epochs)
	p.round = make([]core.Placement, 0, scale)

	s := core.NewSchedule(in)
	for ei, now := range epochs {
		next := math.Inf(1)
		if ei+1 < len(epochs) {
			next = epochs[ei+1]
		}
		if err := o.planEpoch(in, s, p, now, next); err != nil {
			return nil, fmt.Errorf("hare-online: epoch at %g: %w", now, err)
		}
	}
	// Everything must be committed after the final epoch.
	for _, j := range in.Jobs {
		if p.states[j.ID].committed != j.Rounds {
			return nil, fmt.Errorf("hare-online: job %d committed %d/%d rounds", j.ID, p.states[j.ID].committed, j.Rounds)
		}
	}
	return s, nil
}

// planEpoch plans the remaining rounds of arrived jobs as offline Hare
// would, as far as the plan can matter before the next arrival, and
// commits the rounds that start before it.
func (o *OnlineHare) planEpoch(in *core.Instance, s *core.Schedule, p *onlinePlan, now, next float64) error {
	// Sub-instance over remaining work of arrived jobs.
	p.jobs, p.sub.Jobs, p.sub.Train, p.sub.Sync = p.jobs[:0], p.sub.Jobs[:0], p.sub.Train[:0], p.sub.Sync[:0]
	p.sub.NumGPUs = in.NumGPUs
	for _, j := range in.Jobs {
		st := p.states[j.ID]
		if j.Arrival > now || st.committed == j.Rounds {
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
	// those with rounds left whose ready is before the next arrival. A
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
	// open counts the GPUs free before the next arrival: φ only grows and
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
	// before the next arrival; the rest of π is left to the next epoch.
	h := Hare{Pick: o.Pick}
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
		p.round = p.round[:0]
		first, barrier := math.Inf(1), 0.0
		for k := 0; k < ej.job.Scale; k++ {
			m := h.pickGPU(in, core.TaskRef{Job: ej.real}, p.tmpPhi, ej.ready)
			start := max(ej.ready, p.tmpPhi[m])
			end := start + train[m]
			if p.tmpPhi[m] < next && end >= next {
				open--
			}
			p.tmpPhi[m] = end
			barrier = max(barrier, end+sync[m])
			first = min(first, start)
			p.round = append(p.round, core.Placement{GPU: m, Start: start})
		}
		// Commit the round if it has *begun* before the next arrival:
		// once a round's first task starts, its sequence entries are
		// already with the executors and — tasks being non-preemptible —
		// the round runs to completion; only rounds that have not begun
		// are re-planned with the new information. Round starts are
		// ordered within a job, so a committed round's predecessors are
		// always committed too.
		if realRound := ej.base + ej.next; first < next {
			for k, pl := range p.round {
				s.Place(core.TaskRef{Job: ej.real, Round: realRound, Index: k}, pl.GPU, pl.Start)
				if o.rec.Enabled() {
					o.rec.Emit(obs.Event{
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
