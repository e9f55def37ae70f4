// Package testbed is the in-process stand-in for the paper's physical
// testbed: real goroutine executors train real (synthetic-data) SGD
// tasks, synchronize gradients through per-job parameter servers,
// checkpoint through the store, and pace themselves on a scaled clock
// so that a multi-hour GPU workload replays in seconds of wall time.
// Every timing the experiments report is *measured* from the actual
// concurrent execution, not copied from the plan — which is what makes
// the testbed-vs-simulator fidelity comparison (paper Fig. 12,
// "no more than 5% difference") meaningful.
package testbed

import (
	"fmt"
	"sync"

	"hare/internal/stats"
)

// Problem is a synthetic linear-regression training problem: find w
// minimizing ‖Xw − y‖²/2B over mini-batches drawn deterministically
// from a per-job stream. It is small on purpose — the *pace* of a task
// is set by the profiled task time; the math is real so that gradient
// aggregation, staleness and convergence are genuine.
//
// Every number a problem produces is drawn from a seeded stream, and
// every stream is drawn from one generator the problem reseeds — its
// owner's when it has one (an executor lends one generator to all its
// problems), its own otherwise. So a Problem is not safe for concurrent
// use: each parameter server and each executor builds its own, which
// costs nothing until it trains, because NewProblem draws nothing. What
// depends only on (Dim, seed) is drawn once per process and shared.
type Problem struct {
	Dim   int
	Batch int
	noise float64
	seed  int64
	rng   *stats.RNG // nil until the first draw, unless lent by the owner
	// truth is the generating parameter vector (training should approach
	// it) and heldOut Loss's fixed batch: holdout rows of Dim inputs, then
	// their holdout labels. Both are set on first use, from fixedData;
	// neither is ever written.
	truth   []float64
	heldOut []float64
}

// fixedData holds every problem's truth and heldOut by (Dim, seed), so
// the executors and parameter servers of a process, which each build
// their own problems for every batch, draw them once. Seeds are job
// IDs + 1 and Dim is ProblemDim, so the map is as large as the largest
// batch.
var fixedData = struct {
	sync.Mutex
	byKey map[fixedKey]fixedSet
}{byKey: make(map[fixedKey]fixedSet)}

type fixedKey struct {
	dim  int
	seed int64
}

type fixedSet struct{ truth, heldOut []float64 }

// setFixed points truth and heldOut at the process's shared copy,
// drawing it with the problem's generator if no problem of this
// (Dim, seed) has yet.
func (p *Problem) setFixed() {
	fixedData.Lock()
	defer fixedData.Unlock()
	key := fixedKey{p.Dim, p.seed}
	set, ok := fixedData.byKey[key]
	if !ok {
		rng := p.stream(p.seed)
		truth := make([]float64, p.Dim)
		for i := range truth {
			truth[i] = rng.Normal(0, 1)
		}
		n := p.Dim * holdout
		rng = p.stream(p.seed ^ 0x5eed)
		heldOut := make([]float64, n+holdout)
		for b := range holdout {
			row := heldOut[b*p.Dim : (b+1)*p.Dim]
			var label float64
			for i := range row {
				row[i] = rng.Normal(0, 1)
				label += row[i] * truth[i]
			}
			heldOut[n+b] = label
		}
		set = fixedSet{truth, heldOut}
		fixedData.byKey[key] = set
	}
	p.truth, p.heldOut = set.truth, set.heldOut
}

// holdout is the number of rows Loss evaluates.
const holdout = 64

// NewProblem builds a deterministic problem of the given size.
func NewProblem(dim, batch int, seed int64) *Problem {
	if dim <= 0 || batch <= 0 {
		panic(fmt.Sprintf("testbed: invalid problem size dim=%d batch=%d", dim, batch))
	}
	return &Problem{Dim: dim, Batch: batch, noise: 0.05, seed: seed}
}

// stream returns the problem's generator reseeded to seed: the exact
// stream stats.New(seed) yields, without allocating a source.
func (p *Problem) stream(seed int64) *stats.RNG {
	if p.rng == nil {
		p.rng = stats.New(seed)
	} else {
		p.rng.Reseed(seed)
	}
	return p.rng
}

// truthVector returns the generating parameters.
func (p *Problem) truthVector() []float64 {
	if p.truth == nil {
		p.setFixed()
	}
	return p.truth
}

// InitParams returns the zero initial parameter vector.
func (p *Problem) InitParams() []float64 { return make([]float64, p.Dim) }

// Gradient computes the mini-batch least-squares gradient at w for the
// batch identified by (round, taskIndex); identical identifiers yield
// identical batches, so re-execution is deterministic.
func (p *Problem) Gradient(w []float64, round, taskIndex int) []float64 {
	if len(w) != p.Dim {
		panic(fmt.Sprintf("testbed: gradient with %d params for dim %d", len(w), p.Dim))
	}
	truth := p.truthVector()
	rng := p.stream(p.seed ^ int64(round)*1_000_003 ^ int64(taskIndex)*7_777_777)
	grad := make([]float64, p.Dim)
	x := make([]float64, p.Dim)
	for b := 0; b < p.Batch; b++ {
		var dot, label float64
		for i := range x {
			x[i] = rng.Normal(0, 1)
			dot += x[i] * w[i]
			label += x[i] * truth[i]
		}
		label += rng.Normal(0, p.noise)
		resid := dot - label
		for i := range grad {
			grad[i] += resid * x[i]
		}
	}
	inv := 1 / float64(p.Batch)
	for i := range grad {
		grad[i] *= inv
	}
	return grad
}

// heldOutSet returns Loss's held-out rows (holdout rows of Dim inputs)
// and their labels.
func (p *Problem) heldOutSet() (rows, labels []float64) {
	if p.heldOut == nil {
		p.setFixed()
	}
	n := p.Dim * holdout
	return p.heldOut[:n], p.heldOut[n:]
}

// Loss evaluates the mean squared error of w against the generating
// model on a fixed held-out batch.
func (p *Problem) Loss(w []float64) float64 {
	rows, labels := p.heldOutSet()
	var loss float64
	for b, label := range labels {
		var dot float64
		for i, x := range rows[b*p.Dim : (b+1)*p.Dim] {
			dot += x * w[i]
		}
		d := dot - label
		loss += d * d
	}
	return loss / holdout
}

// ApplySGD performs w ← w − η·g in place.
func ApplySGD(w, g []float64, eta float64) {
	for i := range w {
		w[i] -= eta * g[i]
	}
}

// AggregateGradients averages gradients in place into dst (which must
// be zeroed or freshly allocated): dst = Σ grads / len(grads).
func AggregateGradients(grads [][]float64) []float64 {
	if len(grads) == 0 {
		return nil
	}
	dst := make([]float64, len(grads[0]))
	for _, g := range grads {
		if len(g) != len(dst) {
			panic("testbed: aggregating gradients of unequal dimension")
		}
		for i, x := range g {
			dst[i] += x
		}
	}
	inv := 1 / float64(len(grads))
	for i := range dst {
		dst[i] *= inv
	}
	return dst
}
