package constellation

import "math/rand"

// Per-satellite random streams. Every satellite draws from math/rand's
// additive lagged Fibonacci generator (the source rand.NewSource returns),
// and stream reproduces that source's bits exactly for every seed and every
// draw count, because the archive bytes, the goldens and the pinned scale
// digest all depend on them. What it changes is cost: rand.NewSource runs
// 1,841 Park–Miller steps to fill a 607-word (4.9 KB) register at seeding,
// while a satellite of a week-long run makes about a hundred draws. Draw
// k < 273 reads only seeded words, v[333−k] + v[606−k], and each seeded word
// is a closed-form function of the seed, so until its 274th draw a stream
// holds only the normalized seed and a draw count and computes each draw
// directly. The 274th draw fills the register and replays the earlier
// draws' writes, after which the stream is math/rand's generator verbatim.

const (
	rngLen   = 607           // register length (the long lag)
	rngTap   = 273           // short lag
	int32max = 1<<31 - 1     // Park–Miller modulus 2³¹−1, a Mersenne prime
	pmMult   = 48271         // Park–Miller multiplier
	rngMask  = 1<<63 - 1     // Int63's mask
	zeroSeed = 89482311      // math/rand's replacement for a seed ≡ 0
	seedPows = 3*rngLen + 21 // seeding advances the Park–Miller state 1,841 times
)

// pow[e] is 48271^e mod (2³¹−1): seeding's Park–Miller state after e steps
// from 1, so the state after e steps from x0 is mulMod(x0, pow[e]).
var pow = func() (p [seedPows]uint32) {
	p[0] = 1
	for e := 1; e < seedPows; e++ {
		p[e] = uint32(mulMod(uint64(p[e-1]), pmMult))
	}
	return p
}()

// cooked is math/rand's table of seeding constants (rngCooked), recovered
// from rand.NewSource(1) rather than copied. Its first 607 outputs fix its
// seeded register v, and v[i] is cooked[i] XOR seed 1's packed word i. The
// register step makes draw k
//
//	out_k = v[333−k] + v[606−k]        for k < 273,
//	out_k = out_{k−273} + v[333−k]     for 273 ≤ k < 334,
//	out_k = out_{k−273} + v[940−k]     for 334 ≤ k < 607,
//
// so the last two lines give v[0..60] and v[334..606], and the first then
// gives v[61..333].
var cooked = func() (tab [rngLen]uint64) {
	ref := rand.NewSource(1).(rand.Source64)
	var out [rngLen]uint64
	for k := range out {
		out[k] = ref.Uint64()
	}
	for k := rngTap; k < rngLen; k++ {
		tab[(2*rngLen-rngTap-1-k)%rngLen] = out[k] - out[k-rngTap]
	}
	for k := range rngTap {
		tab[rngLen-rngTap-1-k] = out[k] - tab[rngLen-1-k]
	}
	for i := range tab {
		tab[i] ^= packed(1, i)
	}
	return tab
}()

// mulMod returns a·b mod (2³¹−1) for a, b in [1, 2³¹−2], folding the high
// bits back in (2³¹ ≡ 1) instead of math/rand's Schrage division. The
// product is never ≡ 0 (the modulus is prime), so one conditional
// subtraction leaves it in range.
func mulMod(a, b uint64) uint64 {
	p := a * b
	r := p&int32max + p>>31
	if r >= int32max {
		r -= int32max
	}
	return r
}

// stream is a rand.Source64 with the bits of rand.NewSource(seed), seeded
// lazily (see the file comment). The zero stream is not usable; Seed it.
type stream struct {
	x0        uint64 // normalized seed in [1, 2³¹−2]
	n         int    // draws made before the register was filled
	tap, feed int
	vec       *[rngLen]uint64 // nil until the draw after rngTap
}

// Seed resets s to rand.NewSource(seed)'s initial state.
func (s *stream) Seed(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = zeroSeed
	}
	*s = stream{x0: uint64(seed)}
}

// Int63 returns a non-negative pseudo-random 63-bit integer as an int64.
func (s *stream) Int63() int64 { return int64(s.Uint64() & rngMask) }

// Uint64 returns the next pseudo-random 64-bit value.
func (s *stream) Uint64() uint64 {
	if s.vec == nil {
		if s.n < rngTap {
			k := s.n
			s.n++
			return s.word(rngLen-rngTap-1-k) + s.word(rngLen-1-k)
		}
		s.fill()
	}
	return s.next()
}

// word returns register word i as seeding leaves it.
func (s *stream) word(i int) uint64 { return packed(s.x0, i) ^ cooked[i] }

// packed returns the Park–Miller states after 21+3i, 22+3i and 23+3i steps
// from x0, packed into one word as math/rand's seeding packs them.
func packed(x0 uint64, i int) uint64 {
	e := 21 + 3*i
	return mulMod(x0, uint64(pow[e]))<<40 ^ mulMod(x0, uint64(pow[e+1]))<<20 ^ mulMod(x0, uint64(pow[e+2]))
}

// fill builds the seeded register and replays the writes of the s.n draws
// already made from it.
func (s *stream) fill() {
	s.vec = new([rngLen]uint64)
	for i := range s.vec {
		s.vec[i] = s.word(i)
	}
	s.tap, s.feed = 0, rngLen-rngTap
	for range s.n {
		s.next()
	}
}

// next is math/rand's register step.
func (s *stream) next() uint64 {
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
	return x
}
