package testbed

import (
	"math"
	"slices"
	"sync"
	"testing"

	"hare/internal/stats"
)

// TestProblemStreamGolden pins every number the synthetic problems
// produce: forty problems trained six rounds of four tasks each, with
// the gradient of every task and the held-out loss after every round
// folded into one FNV-1a hash, a 64-bit word (the value's float64 bits)
// at a time. Any change to how a problem draws its truth vector, its
// mini-batches or its held-out rows moves the hash.
func TestProblemStreamGolden(t *testing.T) {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
		want   = 0x6984469027f8dfd5
	)
	h := uint64(offset)
	fold := func(x float64) {
		h ^= math.Float64bits(x)
		h *= prime
	}
	for seed := int64(1); seed <= 40; seed++ {
		p := NewProblem(32, 8, seed)
		w := p.InitParams()
		for r := 0; r <= 5; r++ {
			for k := 0; k <= 3; k++ {
				g := p.Gradient(w, r, k)
				for _, x := range g {
					fold(x)
				}
				ApplySGD(w, g, 0.3)
			}
			fold(p.Loss(w))
		}
	}
	if h != want {
		t.Errorf("problem stream hash %#x, want %#x", h, uint64(want))
	}
}

// TestProblemsShareFixedData: the problems of one (Dim, seed), each
// with its own generator and goroutine, draw their truth and held-out
// set once between them and then train on the shared copy
// concurrently (the test is meant for -race). Every goroutine computes
// the same gradients and losses, bit for bit, and the truth is the
// stream stats.New(seed) starts with, as when each problem drew its
// own.
func TestProblemsShareFixedData(t *testing.T) {
	const dim, seed, workers = 12, 90_001, 4 // a seed no other test draws
	type run struct {
		truth *float64
		trace []float64
	}
	runs := make([]run, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for k := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := NewProblem(dim, 4, seed)
			w := p.InitParams()
			<-start
			for r := range 4 {
				runs[k].trace = append(runs[k].trace, p.Loss(w))
				g := p.Gradient(w, r, 0)
				runs[k].trace = append(runs[k].trace, g...)
				ApplySGD(w, g, 0.3)
			}
			runs[k].truth = &p.truthVector()[0]
		}()
	}
	close(start)
	wg.Wait()
	for k, r := range runs[1:] {
		if r.truth != runs[0].truth {
			t.Errorf("problem %d drew its own truth vector", k+1)
		}
		if !slices.Equal(r.trace, runs[0].trace) {
			t.Errorf("problem %d trained to different numbers than problem 0", k+1)
		}
	}
	truth := NewProblem(dim, 4, seed).truthVector()
	rng := stats.New(seed)
	for i, x := range truth {
		if want := rng.Normal(0, 1); x != want {
			t.Fatalf("truth[%d] = %v, want %v, the stream's draw", i, x, want)
		}
	}
}
