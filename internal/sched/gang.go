package sched

import (
	"math"
	"sort"

	"hare/internal/core"
)

// This file implements the job-level gang baselines as policies over
// one event loop, so that they differ from each other in policy and in
// nothing else. A job gangs its Scale tasks on distinct GPUs, holds
// them for all its rounds and is never preempted; at every scheduling
// point (a job arrival or a GPU release) the loop starts the queued
// job the policy ranks first among those that have arrived and fit the
// idle GPUs. (slicing.go is the round-level counterpart.)

// gangScheduler is one job-level gang policy.
type gangScheduler struct {
	name string
	// key ranks a startable job given the GPUs idle at now; the lowest
	// key starts next, ties to the lower job ID.
	key func(in *core.Instance, j *core.Job, now float64, idle []int) float64
	// headOfLine lets only the oldest queued job start: nobody
	// overtakes a job that is waiting for GPUs.
	headOfLine bool
	// oblivious gangs a job on the first idle GPUs by index instead of
	// the idle GPUs it trains fastest on.
	oblivious bool
}

// NewGavelFIFO returns the paper's Gavel_FIFO baseline: jobs are served
// strictly in arrival order (head-of-line blocking, as in traditional
// batch systems), and Gavel's heterogeneity customization assigns each
// job the fastest GPUs available when its turn comes.
func NewGavelFIFO() Algorithm {
	return &gangScheduler{name: "Gavel_FIFO", headOfLine: true,
		key: func(_ *core.Instance, j *core.Job, _ float64, _ []int) float64 { return j.Arrival }}
}

// NewSRTF returns the Shortest-Remaining-Time-First baseline: the job
// with the smallest estimated runtime (all rounds on its fastest GPUs)
// starts next, on the fastest idle GPUs.
func NewSRTF() Algorithm {
	return &gangScheduler{name: "SRTF",
		key: func(in *core.Instance, j *core.Job, _ float64, _ []int) float64 { return in.DedicatedRuntime(j) }}
}

// NewSchedHomo returns the paper's Sched_Homo baseline (Zhang et al.,
// "Online scheduling of heterogeneous distributed machine learning
// jobs"): it minimizes weighted completion time but is GPU-
// heterogeneity-oblivious — it believes every GPU runs at the fleet's
// mean speed. Jobs are prioritized by weighted-shortest-processing-time
// density computed with *mean* task times, and each job gangs onto the
// first idle GPUs regardless of type. The realized times on the
// heterogeneous fleet are what the schedule actually pays — the
// straggler penalty the paper's Fig. 1(a) illustrates.
func NewSchedHomo() Algorithm {
	return &gangScheduler{name: "Sched_Homo", oblivious: true,
		key: func(in *core.Instance, j *core.Job, _ float64, _ []int) float64 {
			var mean float64
			for m := 0; m < in.NumGPUs; m++ {
				mean += in.Train[j.ID][m] + in.Sync[j.ID][m]
			}
			mean /= float64(in.NumGPUs)
			// Higher density schedules first; negate for the min search.
			return -j.Weight / (mean * float64(j.Rounds))
		}}
}

// NewThemisFair returns a Themis-style finish-time-fairness baseline
// from the paper's related work (§8): it runs the job whose *projected*
// finish-time fairness ρ — realized duration over dedicated-cluster
// duration — is currently worst, so no job falls arbitrarily behind the
// service it would get on a private cluster. It is heterogeneity-aware
// only through ρ's dedicated denominator (placement itself picks the
// fastest idle GPUs, as Themis's auction tends to).
func NewThemisFair() Algorithm {
	return &gangScheduler{name: "Themis_Fair",
		key: func(in *core.Instance, j *core.Job, now float64, idle []int) float64 {
			// Projected ρ if the job starts now on its fastest idle
			// GPUs: (wait so far + realized duration) / dedicated.
			var round float64
			for _, m := range pickFastest(in, j, idle, j.Scale) {
				round = math.Max(round, in.Train[j.ID][m]+in.Sync[j.ID][m])
			}
			// Worst ρ first; negate for the min search.
			return -(now - j.Arrival + round*float64(j.Rounds)) / in.DedicatedRuntime(j)
		}}
}

// Name implements Algorithm.
func (p *gangScheduler) Name() string { return p.name }

// Schedule implements Algorithm.
func (p *gangScheduler) Schedule(in *core.Instance) (*core.Schedule, error) {
	if err := validateGang(in); err != nil {
		return nil, err
	}
	s := core.NewSchedule(in)
	g := newGangState(in)
	pending := append([]*core.Job(nil), in.Jobs...)
	sort.SliceStable(pending, func(a, b int) bool {
		if pending[a].Arrival != pending[b].Arrival {
			return pending[a].Arrival < pending[b].Arrival
		}
		return pending[a].ID < pending[b].ID
	})

	now := 0.0
	for len(pending) > 0 {
		queue := pending
		if p.headOfLine {
			queue = pending[:1]
		}
		idle := g.idleAt(now)
		bestIdx := -1
		var bestKey float64
		for i, j := range queue {
			if j.Arrival > now+1e-9 || j.Scale > len(idle) {
				continue
			}
			key := p.key(in, j, now, idle)
			if bestIdx == -1 || key < bestKey ||
				//lint:allow floateq exact tie arm applies the deterministic job-ID tie-break
				(key == bestKey && j.ID < queue[bestIdx].ID) {
				bestIdx, bestKey = i, key
			}
		}
		if bestIdx == -1 {
			// Advance to the next event: an arrival or a GPU release.
			next := math.Inf(1)
			for _, j := range pending {
				if j.Arrival > now+1e-9 {
					next = math.Min(next, j.Arrival)
				}
			}
			for _, f := range g.free {
				if f > now+1e-9 {
					next = math.Min(next, f)
				}
			}
			if math.IsInf(next, 1) {
				// Every job fits the fleet, so with no arrival and no
				// release left a queued job is startable: unreachable,
				// but do not spin.
				panic("sched: " + p.name + " stalled with pending jobs")
			}
			now = next
			continue
		}
		j := pending[bestIdx]
		pending = append(pending[:bestIdx], pending[bestIdx+1:]...)
		gpus := idle[:j.Scale]
		if !p.oblivious {
			gpus = pickFastest(in, j, idle, j.Scale)
		}
		end := placeGang(in, s, j, gpus, now)
		for _, m := range gpus {
			g.free[m] = end
		}
	}
	return s, nil
}
