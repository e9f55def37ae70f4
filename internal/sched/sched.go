// Package sched implements Hare's task scheduling algorithm
// (Algorithm 1 of the paper) and the four baselines it is evaluated
// against: Gavel_FIFO, SRTF, Sched_Homo and Sched_Allox, plus the
// related-work baselines and Hare variants of the scheme table. Every
// algorithm consumes a core.Instance and produces a core.Schedule
// that satisfies constraints (4)–(8); feasibility is enforced by
// property tests in this package.
package sched

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"hare/internal/core"
	"hare/internal/switching"
)

// Algorithm is an offline scheduler.
type Algorithm interface {
	// Name returns the scheme's display name, matching the paper's
	// figure legends.
	Name() string
	// Schedule solves the instance. Implementations must return a
	// feasible schedule or an error (e.g. a job's synchronization
	// scale exceeding the cluster size for gang schedulers).
	Schedule(in *core.Instance) (*core.Schedule, error)
}

// lineup says which of the evaluation's lineups a scheme belongs to.
type lineup int

const (
	paper   lineup = iota // §7: Hare and its four baselines
	related               // §8 related-work baselines (Extended)
	variant               // Hare ablations and extensions (ByName only)
)

// schemes is the one table of scheduling schemes: All, Baselines,
// Extended, ByName, Names and Switching are all read off it.
var schemes = []struct {
	build  func() Algorithm
	lineup lineup
	// fast: the scheme's plans run on Hare's fast task switching (see
	// Switching).
	fast bool
}{
	{func() Algorithm { return NewHare() }, paper, true},
	{NewGavelFIFO, paper, false},
	{NewSRTF, paper, false},
	{NewSchedHomo, paper, false},
	{func() Algorithm { return NewSchedAllox() }, paper, false},
	{NewGandivaRR, related, false},
	{NewTiresiasLAS, related, false},
	{NewThemisFair, related, false},
	{func() Algorithm { return NewOnlineHare() }, variant, true},
	{func() Algorithm { return NewHareEA() }, variant, true},
	{func() Algorithm { return NewHareStrict() }, variant, true},
}

// lineupOf builds the schemes of the lineups up to and including upTo,
// in table order.
func lineupOf(upTo lineup) []Algorithm {
	var out []Algorithm
	for _, s := range schemes {
		if s.lineup <= upTo {
			out = append(out, s.build())
		}
	}
	return out
}

// All returns Hare followed by the four baselines — the lineup of
// every evaluation figure.
func All() []Algorithm { return lineupOf(paper) }

// Baselines returns the paper's four comparison schemes: All without
// Hare.
func Baselines() []Algorithm { return All()[1:] }

// Extended returns the paper's five-scheme lineup plus the
// time-slicing and fairness baselines from related work.
func Extended() []Algorithm { return lineupOf(related) }

// Names lists every scheme's display name, in table order.
func Names() []string {
	var out []string
	for _, a := range lineupOf(variant) {
		out = append(out, a.Name())
	}
	return out
}

// ByName returns the scheme with the given display name.
func ByName(name string) (Algorithm, error) {
	for _, a := range lineupOf(variant) {
		if a.Name() == name {
			return a, nil
		}
	}
	return nil, fmt.Errorf("sched: unknown algorithm %q (have %s)", name, strings.Join(Names(), ", "))
}

// Switching is the switching scheme the named scheduler's plans
// execute under: Hare and its variants run on Hare's fast task
// switching; the baselines switch rarely (only when a GPU moves
// between jobs) but pay the unoptimized default cost when they do,
// since they lack Hare's switching infrastructure — exactly the
// asymmetry the paper's system design creates.
func Switching(name string) switching.Scheme {
	for _, s := range schemes {
		if s.fast && s.build().Name() == name {
			return switching.Hare
		}
	}
	return switching.Default
}

// validateGang is Instance.Validate plus the gang schedulers' own
// precondition: no job's synchronization scale exceeds the fleet.
func validateGang(in *core.Instance) error {
	if err := in.Validate(); err != nil {
		return err
	}
	for _, j := range in.Jobs {
		if j.Scale > in.NumGPUs {
			return fmt.Errorf("sched: job %d (%s) needs %d GPUs but cluster has %d",
				j.ID, j.Name, j.Scale, in.NumGPUs)
		}
	}
	return nil
}

// placeGang places a whole job gang-style: its Scale tasks start
// simultaneously on the given GPUs at start, each round beginning when
// the previous round's slowest task (train + sync) finishes. It
// returns the job's completion time.
func placeGang(in *core.Instance, s *core.Schedule, j *core.Job, gpus []int, start float64) float64 {
	if len(gpus) != j.Scale {
		panic(fmt.Sprintf("sched: job %d needs %d GPUs, got %d", j.ID, j.Scale, len(gpus)))
	}
	roundStart := start
	for r := 0; r < j.Rounds; r++ {
		var roundEnd float64
		for k, m := range gpus {
			s.Place(core.TaskRef{Job: j.ID, Round: r, Index: k}, m, roundStart)
			roundEnd = math.Max(roundEnd, roundStart+in.Train[j.ID][m]+in.Sync[j.ID][m])
		}
		roundStart = roundEnd
	}
	return roundStart
}

// gangState tracks when each GPU becomes free, for the gang
// schedulers (gang.go, slicing.go, and Hare-strict's round step in
// hare.go).
type gangState struct {
	in   *core.Instance
	free []float64 // φ_m: when GPU m becomes free
}

func newGangState(in *core.Instance) *gangState {
	return &gangState{in: in, free: make([]float64, in.NumGPUs)}
}

// idleAt returns the GPUs with free-time ≤ t, in id order.
func (g *gangState) idleAt(t float64) []int {
	var out []int
	for m, f := range g.free {
		if f <= t+1e-9 {
			out = append(out, m)
		}
	}
	return out
}

// earliestForScale returns the earliest time at which `scale` GPUs are
// simultaneously free (given current commitments), never earlier than
// lower. scale is at most the fleet size (validateGang).
func (g *gangState) earliestForScale(scale int, lower float64) float64 {
	frees := append([]float64(nil), g.free...)
	sort.Float64s(frees)
	return math.Max(lower, frees[scale-1])
}

// pickFastest selects, from candidates, the `scale` GPUs on which job
// j trains fastest (ties by GPU id). Used by heterogeneity-aware
// job-level schedulers (Gavel customizes FIFO to pick the fastest
// available GPUs).
func pickFastest(in *core.Instance, j *core.Job, candidates []int, scale int) []int {
	c := append([]int(nil), candidates...)
	sort.Slice(c, func(a, b int) bool {
		ta, tb := in.Train[j.ID][c[a]], in.Train[j.ID][c[b]]
		if ta != tb {
			return ta < tb
		}
		return c[a] < c[b]
	})
	return c[:scale]
}
