package sched

import (
	"fmt"
	"math"
	"sort"

	"hare/internal/core"
)

// This file implements two round-granularity time-slicing baselines
// from the paper's related-work lineup (§8). Both preempt at round
// boundaries — a job gangs one training round, releases its GPUs, and
// re-queues — and both are heterogeneity-oblivious (first idle GPUs
// by index), which is exactly the coarse-grained sharing the paper
// argues leaves optimization headroom:
//
//   - GandivaRR ("Gandiva: introspective cluster scheduling for deep
//     learning"): fair round-robin time-slicing over active jobs.
//   - TiresiasLAS ("Tiresias: a GPU cluster manager for distributed
//     deep learning"): least-attained-service priority — the job that
//     has consumed the least GPU time so far runs next, approximating
//     its discretized 2D-LAS queues at round granularity.
//
// They are not part of the paper's five-scheme evaluation lineup
// (sched.All); experiments.ExtendedBaselines compares them, and
// Themis_Fair, with it (sched.Extended).

// slicePolicy picks the next job to run among the candidates.
type slicePolicy interface {
	// pick returns the index into candidates to run next.
	pick(candidates []*sliceJob) int
	// ran informs the policy that job j consumed gpuSeconds.
	ran(j *sliceJob, gpuSeconds float64)
}

type sliceJob struct {
	job       *core.Job
	nextRound int
	barrier   float64 // completion of the previous round
	attained  float64 // GPU·seconds consumed so far
	lastRun   int     // global turn counter at its last run
}

// sliceScheduler drives round-granularity gang scheduling under a
// policy.
type sliceScheduler struct {
	name   string
	policy slicePolicy
}

// Name implements Algorithm.
func (s *sliceScheduler) Name() string { return s.name }

// Schedule implements Algorithm.
func (s *sliceScheduler) Schedule(in *core.Instance) (*core.Schedule, error) {
	if err := validateGang(in); err != nil {
		return nil, err
	}
	out := core.NewSchedule(in)
	g := newGangState(in)
	jobs := make([]*sliceJob, len(in.Jobs))
	for i, j := range in.Jobs {
		jobs[i] = &sliceJob{job: j, barrier: j.Arrival, lastRun: -1}
	}
	remaining := len(jobs)
	turn := 0
	for remaining > 0 {
		// Earliest time any unfinished job could gang its next round.
		now := math.Inf(1)
		for _, sj := range jobs {
			if sj.nextRound >= sj.job.Rounds {
				continue
			}
			now = math.Min(now, g.earliestForScale(sj.job.Scale, sj.barrier))
		}
		if math.IsInf(now, 1) {
			return nil, fmt.Errorf("sched: %s stalled with %d jobs unfinished", s.name, remaining)
		}
		// Candidates: jobs that can start a round at `now`.
		var candidates []*sliceJob
		for _, sj := range jobs {
			if sj.nextRound >= sj.job.Rounds {
				continue
			}
			if g.earliestForScale(sj.job.Scale, sj.barrier) <= now+1e-9 {
				candidates = append(candidates, sj)
			}
		}
		sort.Slice(candidates, func(a, b int) bool {
			return candidates[a].job.ID < candidates[b].job.ID
		})
		sj := candidates[s.policy.pick(candidates)]

		// Gang one round on the first idle GPUs (oblivious pick).
		gpus := g.idleAt(now)[:sj.job.Scale]
		var roundEnd float64
		var gpuSeconds float64
		for k, m := range gpus {
			out.Place(core.TaskRef{Job: sj.job.ID, Round: sj.nextRound, Index: k}, m, now)
			end := now + in.Train[sj.job.ID][m] + in.Sync[sj.job.ID][m]
			roundEnd = math.Max(roundEnd, end)
			g.free[m] = now + in.Train[sj.job.ID][m]
			gpuSeconds += in.Train[sj.job.ID][m]
		}
		sj.barrier = roundEnd
		sj.nextRound++
		sj.lastRun = turn
		turn++
		s.policy.ran(sj, gpuSeconds)
		if sj.nextRound == sj.job.Rounds {
			remaining--
		}
	}
	return out, nil
}

// rrPolicy: least-recently-run first (round robin over candidates).
type rrPolicy struct{}

func (rrPolicy) pick(candidates []*sliceJob) int {
	best := 0
	for i, c := range candidates {
		if c.lastRun < candidates[best].lastRun ||
			(c.lastRun == candidates[best].lastRun && c.job.ID < candidates[best].job.ID) {
			best = i
		}
	}
	return best
}

func (rrPolicy) ran(*sliceJob, float64) {}

// lasPolicy: least attained GPU service first.
type lasPolicy struct{}

func (lasPolicy) pick(candidates []*sliceJob) int {
	best := 0
	for i, c := range candidates {
		if c.attained < candidates[best].attained ||
			//lint:allow floateq exact tie arm applies the deterministic job-ID tie-break
			(c.attained == candidates[best].attained && c.job.ID < candidates[best].job.ID) {
			best = i
		}
	}
	return best
}

func (lasPolicy) ran(j *sliceJob, gpuSeconds float64) { j.attained += gpuSeconds }

// NewGandivaRR returns the Gandiva-style round-robin time-slicing
// baseline.
func NewGandivaRR() Algorithm { return &sliceScheduler{name: "Gandiva_RR", policy: rrPolicy{}} }

// NewTiresiasLAS returns the Tiresias-style least-attained-service
// baseline.
func NewTiresiasLAS() Algorithm { return &sliceScheduler{name: "Tiresias_LAS", policy: lasPolicy{}} }
