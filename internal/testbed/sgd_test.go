package testbed

import (
	"math"
	"testing"
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
