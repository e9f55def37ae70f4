package stats

import (
	"math"
	"math/rand"
	"testing"
)

// int32max is math/rand's seed modulus, 2³¹−1: seeds that differ by a
// multiple of it seed the same stream, and a multiple of it seeds as 0.
const int32max = 1<<31 - 1

// matchesMathRand draws nUint64 Uint64 values and nNorm NormFloat64
// values from g and from math/rand's own source seeded with seed, and
// reports the first draw where they differ.
func matchesMathRand(t *testing.T, g *RNG, seed int64, nUint64, nNorm int) {
	t.Helper()
	ref := rand.New(rand.NewSource(seed))
	for i := 0; i < nUint64; i++ {
		if a, b := g.r.Uint64(), ref.Uint64(); a != b {
			t.Fatalf("seed %d: Uint64 draw %d is %#x, math/rand's is %#x", seed, i, a, b)
		}
	}
	for i := 0; i < nNorm; i++ {
		if a, b := g.Normal(0, 1), ref.NormFloat64(); a != b {
			t.Fatalf("seed %d: NormFloat64 draw %d is %v, math/rand's is %v", seed, i, a, b)
		}
	}
}

// sourceSeeds is at least 4 000 seeds: the edges of math/rand's
// seeding (0, ±1, ±k·(2³¹−1) and their neighbours, the int64 extremes,
// ±2⁶²) and the rest drawn from a fixed stream, half of them negative.
func sourceSeeds() []int64 {
	seeds := []int64{0, 1, -1, 2, math.MaxInt64, math.MinInt64, math.MinInt64 + 1, 1 << 62, -1 << 62, 89482311}
	for k := int64(1); k <= 64; k++ {
		for _, s := range []int64{k * int32max, -k * int32max, k*int32max + 1, k*int32max - 1} {
			seeds = append(seeds, s)
		}
	}
	seeds = append(seeds, math.MaxInt64/int32max*int32max, math.MinInt64/int32max*int32max)
	src := rand.New(rand.NewSource(20260101))
	for len(seeds) < 4013 {
		s := src.Int63()
		if len(seeds)%2 == 0 {
			s = -s
		}
		seeds = append(seeds, s)
	}
	return seeds
}

// TestSourceMatchesMathRand pins the generator behind every RNG to
// math/rand's additive lagged-Fibonacci stream, bit for bit: every
// seeded workload, fault draw and gradient batch in the repository is
// that stream, and the goldens hash what it yields. Each seed is
// checked fresh, and again after Reseed on a stream that has been
// drawn from.
func TestSourceMatchesMathRand(t *testing.T) {
	seeds := sourceSeeds()
	reused := New(3)
	for i, seed := range seeds {
		matchesMathRand(t, New(seed), seed, 2000, 300)
		for j := 0; j < i%97; j++ { // leave the reused stream mid-table
			reused.r.Uint64()
		}
		reused.Reseed(seed)
		matchesMathRand(t, reused, seed, 700, 30)
	}
}

// FuzzSourceMatchesMathRand holds New and Reseed to math/rand's stream
// for any pair of seeds, with any number of draws between them.
func FuzzSourceMatchesMathRand(f *testing.F) {
	f.Add(int64(0), int64(1), uint16(0))
	f.Add(int64(math.MinInt64), int64(math.MaxInt64), uint16(607))
	f.Add(int64(int32max), int64(-int32max), uint16(273))
	f.Add(int64(1<<62), int64(-1<<62), uint16(1000))
	f.Fuzz(func(t *testing.T, seed, reseed int64, skip uint16) {
		g := New(seed)
		matchesMathRand(t, g, seed, int(skip%2000), 20)
		g.Reseed(reseed)
		matchesMathRand(t, g, reseed, 1300, 20)
	})
}
