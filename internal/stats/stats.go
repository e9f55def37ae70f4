// Package stats provides deterministic random-number streams,
// distribution samplers, and summary statistics used across the Hare
// simulator, workload generators, and experiments.
//
// All randomness in the repository flows through RNG values created by
// New so that every experiment is reproducible bit-for-bit from its
// seed. The samplers intentionally avoid math/rand's global source. An
// RNG's stream is the one math/rand yields for its seed, drawn from the
// package's own source, which seeds in a fraction of math/rand's time.
package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// RNG is a deterministic random stream: math/rand's stream for its
// seed, drawn from this package's source, with the distribution
// samplers the project needs. An RNG is not safe for concurrent use;
// derive per-goroutine streams with Split.
type RNG struct {
	r *rand.Rand
}

// New returns a deterministic RNG seeded with seed. Its stream is the
// one rand.New(rand.NewSource(seed)) yields, bit for bit.
func New(seed int64) *RNG {
	src := new(source)
	src.Seed(seed)
	return &RNG{r: rand.New(src)}
}

// Reseed resets the stream in place to exactly the state New(seed)
// would produce, letting pooled owners reuse an RNG across runs
// without allocating a new generator.
func (g *RNG) Reseed(seed int64) { g.r.Seed(seed) }

// Split derives an independent child stream from the parent. The child
// is seeded from the parent's stream, so splitting is itself
// deterministic and order-dependent.
func (g *RNG) Split() *RNG {
	return New(g.r.Int63())
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (g *RNG) Int63() int64 { return g.r.Int63() }

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Float64 returns a uniform float64 in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Uniform returns a uniform float64 in [lo, hi).
func (g *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*g.r.Float64()
}

// LogUniform returns a sample whose logarithm is uniform on
// [log lo, log hi]. This matches the bursty, heavy-tailed inter-arrival
// gaps observed in the Google cluster trace that the paper replays.
// It panics unless 0 < lo <= hi.
func (g *RNG) LogUniform(lo, hi float64) float64 {
	if lo <= 0 || hi < lo {
		panic(fmt.Sprintf("stats: LogUniform requires 0 < lo <= hi, got (%g, %g)", lo, hi))
	}
	return lo * math.Exp(g.r.Float64()*math.Log(hi/lo))
}

// Normal returns a normally distributed sample.
func (g *RNG) Normal(mean, stddev float64) float64 {
	return g.r.NormFloat64()*stddev + mean
}

// Jitter returns x multiplied by a uniform factor in [1-frac, 1+frac].
// It is used to perturb profiled task times by the small per-round
// variance the paper measures in Fig. 11. frac must be in [0, 1).
func (g *RNG) Jitter(x, frac float64) float64 {
	if frac < 0 || frac >= 1 {
		panic(fmt.Sprintf("stats: Jitter frac must be in [0,1), got %g", frac))
	}
	return x * g.Uniform(1-frac, 1+frac)
}

// WeightedChoice returns an index in [0, len(weights)) sampled in
// proportion to weights. Zero-weight entries are never chosen. It
// panics if weights is empty or sums to a non-positive value.
func (g *RNG) WeightedChoice(weights []float64) int {
	var total float64
	for i, w := range weights {
		if w < 0 {
			panic(fmt.Sprintf("stats: negative weight %g at index %d", w, i))
		}
		total += w
	}
	if len(weights) == 0 || total <= 0 {
		panic("stats: WeightedChoice requires positive total weight")
	}
	x := g.r.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// Summary holds descriptive statistics of a sample.
type Summary struct {
	N              int
	Mean, Stddev   float64
	Min, Max       float64
	P50, P90, P99  float64
	Total          float64
	CoefficientVar float64 // Stddev / Mean; 0 when Mean == 0
}

// Summarize computes descriptive statistics of xs. An empty sample
// yields a zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	for _, x := range xs {
		s.Total += x
		s.Min = math.Min(s.Min, x)
		s.Max = math.Max(s.Max, x)
	}
	s.Mean = s.Total / float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	s.Stddev = math.Sqrt(ss / float64(len(xs)))
	if s.Mean != 0 {
		s.CoefficientVar = s.Stddev / s.Mean
	}
	s.P50 = Percentile(xs, 0.50)
	s.P90 = Percentile(xs, 0.90)
	s.P99 = Percentile(xs, 0.99)
	return s
}

// Percentile returns the p-quantile (p in [0,1]) of xs using linear
// interpolation between order statistics. It panics on an empty sample
// or p outside [0, 1].
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		panic("stats: Percentile of empty sample")
	}
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("stats: Percentile p must be in [0,1], got %g", p))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// CDF returns the empirical CDF of xs evaluated at each of the given
// thresholds: out[i] is the fraction of samples <= thresholds[i].
func CDF(xs, thresholds []float64) []float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	out := make([]float64, len(thresholds))
	for i, t := range thresholds {
		// Number of samples <= t.
		k := sort.Search(len(sorted), func(j int) bool { return sorted[j] > t })
		if len(sorted) > 0 {
			out[i] = float64(k) / float64(len(sorted))
		}
	}
	return out
}

// Mean returns the arithmetic mean of xs, or 0 for an empty sample.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
