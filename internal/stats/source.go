package stats

import "math/rand"

// The shape of math/rand's additive lagged-Fibonacci generator: a
// register of the last rngLen draws, each draw the sum, mod 2⁶⁴, of the
// draws rngLen and rngTap before it.
const (
	rngLen = 607
	rngTap = 273
	// seedMod is the modulus of the Lehmer generator x ← 48271·x that
	// math/rand seeds the register from; a seed is taken modulo it.
	seedMod = 1<<31 - 1
	// seedSkip is how many Lehmer steps math/rand discards before the
	// first one it uses.
	seedSkip = 20
)

// source is the generator rand.NewSource returns, drawing the same
// stream bit for bit, with a cheaper Seed. math/rand fills the
// register from a chain of 1 841 Lehmer steps, each waiting on the one
// before; source computes step k directly as seed·48271^k mod
// (2³¹−1) from a table of powers, so the 1 821 steps it uses are
// independent multiplications the CPU overlaps.
type source struct {
	tap, feed int
	vec       [rngLen]int64
}

var _ rand.Source64 = (*source)(nil)

var (
	// seedPow[i] holds 48271^k mod seedMod for the three steps k that
	// make register word i: seedSkip+3i+1 to seedSkip+3i+3.
	seedPow [rngLen][3]uint64
	// rngCooked is math/rand's table of words that every seeding XORs
	// into the register; it is not exported, so init recovers it.
	rngCooked [rngLen]int64
)

func init() {
	p := uint64(1)
	for k := 1; k <= seedSkip+3*rngLen; k++ {
		p = p * 48271 % seedMod
		if i := k - seedSkip - 1; i >= 0 {
			seedPow[i/3][i%3] = p
		}
	}
	// math/rand's register for seed 1 is its Lehmer part, which s.Seed
	// computes while rngCooked is still zero, XOR rngCooked. The first
	// rngLen draws of rand.NewSource(1) overwrite that register one word
	// each and leave tap and feed where they started, so subtracting each
	// draw's tap, newest first, restores the seeded register.
	ref := rand.NewSource(1).(rand.Source64)
	var s source
	s.Seed(1)
	lehmer := s.vec
	for i := 0; i < rngLen; i++ {
		s.Uint64()
		s.vec[s.feed] = int64(ref.Uint64())
	}
	for i := 0; i < rngLen; i++ {
		s.vec[s.feed] -= s.vec[s.tap]
		s.tap, s.feed = (s.tap+1)%rngLen, (s.feed+1)%rngLen
	}
	for i := range rngCooked {
		rngCooked[i] = s.vec[i] ^ lehmer[i]
	}
}

// Seed puts the register in the state rand.NewSource(seed) starts in.
func (s *source) Seed(seed int64) {
	s.tap, s.feed = 0, rngLen-rngTap
	seed %= seedMod
	if seed < 0 {
		seed += seedMod
	}
	if seed == 0 {
		seed = 89482311
	}
	x := uint64(seed)
	for i := range s.vec {
		p := &seedPow[i]
		u := mulMod(x, p[0])<<40 ^ mulMod(x, p[1])<<20 ^ mulMod(x, p[2])
		s.vec[i] = int64(u) ^ rngCooked[i]
	}
}

// mulMod returns x·p mod seedMod for x and p in [1, seedMod), folding
// the product's high bits onto its low ones twice, as 2³¹ ≡ 1: the
// first fold leaves less than 2³², the second at most seedMod, which
// only a product divisible by the prime seedMod would reach.
func mulMod(x, p uint64) uint64 {
	v := x * p
	v = v&seedMod + v>>31
	return v&seedMod + v>>31
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *source) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

// Uint64 returns a pseudo-random 64-bit integer.
func (s *source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}
