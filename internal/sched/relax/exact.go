package relax

import (
	"math"

	"hare/internal/core"
)

// ExactResult is the outcome of the branch-and-bound solver.
type ExactResult struct {
	Schedule  *core.Schedule
	Objective float64
	// Optimal is false when the node budget was exhausted before the
	// search space was covered; Schedule is then the best incumbent.
	Optimal bool
	Nodes   int
}

// Exact finds a minimum total-weighted-completion-time schedule by
// branch-and-bound over dispatch sequences. Every semi-active schedule
// (none can be improved by sliding a single task earlier) is reachable
// by dispatching tasks in start-time order, and the objective is
// regular, so the search is exhaustive for the optimum. Intended for
// tiny instances (≤ ~8 tasks) in tests and the toy Fig. 1 example;
// a search that visits more than maxExactNodes nodes gives up
// (Optimal false).
func Exact(in *core.Instance) (*ExactResult, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	st := newExactState(in)
	res := &ExactResult{Objective: math.Inf(1), Optimal: true}
	st.search(res)
	if res.Schedule == nil {
		res.Optimal = false
	}
	return res, nil
}

type jobProgress struct {
	round     int     // current round being dispatched
	placed    int     // tasks of the current round already dispatched
	roundEnd  float64 // max completion among placed tasks of current round
	barrier   float64 // completion of the previous round (start floor)
	completed bool
}

type exactState struct {
	in      *core.Instance
	free    []float64
	prog    []jobProgress
	picks   []pick
	undoLog []undoRec
	// partial is Σ w·C over completed jobs.
	partial float64
	// minRemain[j] is a lower bound on job j's remaining span:
	// remaining rounds × fastest (train + sync).
	tauSigma []float64
}

type pick struct {
	task  core.TaskRef
	gpu   int
	start float64
}

func newExactState(in *core.Instance) *exactState {
	st := &exactState{
		in:       in,
		free:     make([]float64, in.NumGPUs),
		prog:     make([]jobProgress, len(in.Jobs)),
		tauSigma: make([]float64, len(in.Jobs)),
	}
	for _, j := range in.Jobs {
		st.prog[j.ID].barrier = j.Arrival
		ts := math.Inf(1)
		for m := 0; m < in.NumGPUs; m++ {
			ts = math.Min(ts, in.Train[j.ID][m]+in.Sync[j.ID][m])
		}
		st.tauSigma[j.ID] = ts
	}
	return st
}

// bound returns a lower bound on the total objective of any completion
// of the current partial schedule.
func (st *exactState) bound() float64 {
	lb := st.partial
	earliestFree := math.Inf(1)
	for _, f := range st.free {
		earliestFree = math.Min(earliestFree, f)
	}
	for _, j := range st.in.Jobs {
		p := &st.prog[j.ID]
		if p.completed {
			continue
		}
		// Remaining rounds after the current one, plus the current
		// round's own floor. Any yet-undispatched task starts no
		// earlier than the earliest GPU free time.
		remRounds := float64(j.Rounds - p.round - 1)
		floor := math.Max(p.barrier, earliestFree)
		var cur float64
		if p.placed > 0 {
			cur = math.Max(p.roundEnd, floor+st.tauSigma[j.ID])
		} else {
			cur = floor + st.tauSigma[j.ID]
		}
		lb += j.Weight * (cur + remRounds*st.tauSigma[j.ID])
	}
	return lb
}

// maxExactNodes caps Exact's search.
const maxExactNodes = 2_000_000

func (st *exactState) search(res *ExactResult) {
	res.Nodes++
	if res.Nodes > maxExactNodes {
		res.Optimal = false
		return
	}
	if st.bound() >= res.Objective {
		return
	}
	allDone := true
	for j := range st.prog {
		if !st.prog[j].completed {
			allDone = false
			break
		}
	}
	if allDone {
		if st.partial < res.Objective {
			res.Objective = st.partial
			s := core.NewSchedule(st.in)
			for _, p := range st.picks {
				s.Place(p.task, p.gpu, p.start)
			}
			res.Schedule = s
		}
		return
	}

	// Branch over every (ready task, GPU). Tasks within a round are
	// interchangeable, so only the next index of each job's current
	// round is a distinct branch.
	for _, j := range st.in.Jobs {
		p := st.prog[j.ID]
		if p.completed {
			continue
		}
		t := core.TaskRef{Job: j.ID, Round: p.round, Index: p.placed}
		for m := 0; m < st.in.NumGPUs; m++ {
			st.apply(t, m)
			st.search(res)
			st.undo()
			if res.Nodes > maxExactNodes {
				return
			}
		}
	}
}

// apply dispatches task t on GPU m at the earliest feasible time and
// records enough to undo.
func (st *exactState) apply(t core.TaskRef, m int) {
	j := st.in.Jobs[t.Job]
	p := &st.prog[t.Job]
	start := math.Max(p.barrier, st.free[m])
	end := start + st.in.Train[t.Job][m] + st.in.Sync[t.Job][m]

	st.picks = append(st.picks, pick{task: t, gpu: m, start: start})
	st.undoLog = append(st.undoLog, undoRec{
		job: t.Job, gpu: m,
		prevFree: st.free[m], prevProg: *p, prevPartial: st.partial,
	})

	st.free[m] = start + st.in.Train[t.Job][m]
	p.placed++
	p.roundEnd = math.Max(p.roundEnd, end)
	if p.placed == j.Scale {
		p.round++
		p.placed = 0
		p.barrier = p.roundEnd
		p.roundEnd = 0
		if p.round == j.Rounds {
			p.completed = true
			st.partial += j.Weight * p.barrier
		}
	}
}

type undoRec struct {
	job         core.JobID
	gpu         int
	prevFree    float64
	prevProg    jobProgress
	prevPartial float64
}

func (st *exactState) undo() {
	rec := st.undoLog[len(st.undoLog)-1]
	st.undoLog = st.undoLog[:len(st.undoLog)-1]
	st.picks = st.picks[:len(st.picks)-1]
	st.free[rec.gpu] = rec.prevFree
	st.prog[rec.job] = rec.prevProg
	st.partial = rec.prevPartial
}
