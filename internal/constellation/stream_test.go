package constellation

import (
	"math"
	"math/rand"
	"testing"
)

// checkStream draws calls values from stream and from rand.NewSource(seed)
// through rand.Rand, cycling through Uint64, Float64, NormFloat64 and
// ExpFloat64 so the two sources are compared on every path rand.Rand reads
// them by, and fails on the first value whose bits differ.
func checkStream(t *testing.T, seed int64, calls int) {
	t.Helper()
	var src stream
	src.Seed(seed)
	got, want := rand.New(&src), rand.New(rand.NewSource(seed))
	for i := range calls {
		var g, w uint64
		switch i % 4 {
		case 0:
			g, w = got.Uint64(), want.Uint64()
		case 1:
			g, w = math.Float64bits(got.Float64()), math.Float64bits(want.Float64())
		case 2:
			g, w = math.Float64bits(got.NormFloat64()), math.Float64bits(want.NormFloat64())
		case 3:
			g, w = math.Float64bits(got.ExpFloat64()), math.Float64bits(want.ExpFloat64())
		}
		if g != w {
			t.Fatalf("seed %d: call %d: stream gave %#x, rand.NewSource %#x", seed, i, g, w)
		}
	}
}

// TestStreamMatchesMathRand is the bit-exactness referee for stream: every
// seed's first 1,500 calls cross the switch from computed draws to the
// filled register (draw 274) and the register's wrap (draw 608). The seeds
// cover every branch of seed normalization (0, negatives, multiples of
// 2³¹−1, the int64 extremes, math/rand's replacement seed) and the seeds
// the simulator actually uses.
func TestStreamMatchesMathRand(t *testing.T) {
	seeds := []int64{0, -1, int32max, -int32max, 2 * int32max, math.MinInt64, math.MaxInt64, zeroSeed}
	for cat := range 3000 {
		seeds = append(seeds, childSeed(42, 44713+cat))
	}
	for _, seed := range seeds {
		checkStream(t, seed, 1500)
	}
}

// FuzzStream extends the referee to arbitrary seeds and stream lengths.
func FuzzStream(f *testing.F) {
	f.Add(int64(0), uint16(1500))
	f.Add(int64(math.MinInt64), uint16(273))
	f.Add(childSeed(1, 44713), uint16(700))
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		checkStream(t, seed, int(draws))
	})
}
