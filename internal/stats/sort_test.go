package stats

import (
	"cmp"
	"encoding/binary"
	"math"
	"slices"
	"sort"
	"testing"
)

// referenceSort is sort.Float64s with the two tie orders it leaves open
// fixed as SortFloat64s documents them: the NaN prefix runs positive NaNs
// before negative ones, each group in IEEE total order (ascending bits for
// positive NaNs, descending for negative), and the zero run puts −0 first.
func referenceSort(x []float64) {
	sort.Float64s(x)
	nan := 0
	for nan < len(x) && math.IsNaN(x[nan]) {
		nan++
	}
	slices.SortFunc(x[:nan], func(a, b float64) int {
		sa, sb := math.Signbit(a), math.Signbit(b)
		ba, bb := math.Float64bits(a), math.Float64bits(b)
		switch {
		case sa != sb && sb:
			return -1
		case sa != sb:
			return 1
		case sa:
			return cmp.Compare(bb, ba)
		default:
			return cmp.Compare(ba, bb)
		}
	})
	lo := nan + sort.SearchFloat64s(x[nan:], 0)
	hi, neg := lo, 0
	for ; hi < len(x) && x[hi] == 0; hi++ {
		if math.Signbit(x[hi]) {
			neg++
		}
	}
	for i := lo; i < hi; i++ {
		x[i] = 0
		if i-lo < neg {
			x[i] = math.Copysign(0, -1)
		}
	}
}

// requireBitsEqual fails unless got and want hold the same bit patterns.
func requireBitsEqual(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", label, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: index %d is %v (%#x), want %v (%#x)", label, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// specialValues draws n values from a deterministic xorshift stream, mixing
// the cases a float sort can get wrong: NaNs of both signs and several
// payloads, ±Inf, ±0, subnormals, float32-exact values, and duplicates.
func specialValues(n int) []float64 {
	out := make([]float64, n)
	x := uint64(0x9e3779b97f4a7c15)
	for i := range out {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		var v float64
		switch i % 12 {
		case 0:
			v = math.Float64frombits(0x7ff0000000000000 | x&0x000fffffffffffff | 1) // +NaN, any payload
		case 1:
			v = math.Float64frombits(0xfff0000000000000 | x&0x000fffffffffffff | 1) // −NaN
		case 2:
			v = math.Inf(1 - 2*int(x&1))
		case 3:
			v = math.Copysign(0, float64(1-2*int(x&1)))
		case 4:
			v = math.Float64frombits(x & 0x800fffffffffffff) // subnormal (or ±0), either sign
		case 5:
			v = float64(float32(int64(x)>>30) / 7) // float32-exact
		case 6:
			v = out[int(x%uint64(i))] // duplicate
		default:
			v = math.Float64frombits(x) // any bit pattern
		}
		out[i] = v
	}
	return out
}

// TestSortFloat64sMatchesSortPackage is the kernel's referee: at every size
// around the radix cut-over, and on random, already-sorted and reversed
// input, SortFloat64s must reproduce sort.Float64s bit for bit once the tie
// orders sort.Float64s leaves open are fixed (referenceSort).
func TestSortFloat64sMatchesSortPackage(t *testing.T) {
	for _, n := range []int{0, 1, 2, radixMin - 1, radixMin, radixMin + 1, 100_000} {
		random := specialValues(n)
		sorted := slices.Clone(random)
		referenceSort(sorted)
		reversed := slices.Clone(sorted)
		slices.Reverse(reversed)
		for _, in := range []struct {
			name string
			vals []float64
		}{{"random", random}, {"sorted", sorted}, {"reversed", reversed}} {
			got := slices.Clone(in.vals)
			SortFloat64s(got)
			requireBitsEqual(t, in.name, got, sorted)
		}
	}
}

// TestSortFloat64sSignedZeroAndNaNOrder pins the documented tie orders on a
// hand-written case.
func TestSortFloat64sSignedZeroAndNaNOrder(t *testing.T) {
	negZero := math.Copysign(0, -1)
	posNaN := math.Float64frombits(0x7ff8000000000001)
	negNaN := math.Float64frombits(0xfff8000000000001)
	got := []float64{0, 1, negNaN, negZero, math.Inf(-1), posNaN, 0, negZero, -1}
	SortFloat64s(got)
	want := []float64{posNaN, negNaN, math.Inf(-1), -1, negZero, negZero, 0, 0, 1}
	requireBitsEqual(t, "ties", got, want)
}

// TestSortFloat64sSortedInputAllocatesNothing pins the O(n) already-sorted
// path.
func TestSortFloat64sSortedInputAllocatesNothing(t *testing.T) {
	vals := specialValues(10_000)
	SortFloat64s(vals)
	if allocs := testing.AllocsPerRun(5, func() { SortFloat64s(vals) }); allocs != 0 {
		t.Errorf("sorted input: %v allocs/op, want 0", allocs)
	}
}

// TestRadixSortKeysMatchesComparisonSort drives the radix path (above the
// small-input fallback) over adversarial bit patterns — shared high bytes
// (skipped passes), full-range keys, duplicates — at both key widths, and
// requires the exact slices.Sort order.
func TestRadixSortKeysMatchesComparisonSort(t *testing.T) {
	const n = 5000
	keys := make([]uint64, n)
	x := uint64(0x9e3779b97f4a7c15) // deterministic xorshift stream
	for i := range keys {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		switch i % 4 {
		case 0:
			keys[i] = x
		case 1:
			keys[i] = x & 0xffff // high bytes all zero: those passes skip
		case 2:
			keys[i] = x | 0xffffffff00000000 // high bytes all ones
		default:
			keys[i] = keys[i/2] // duplicates
		}
	}
	narrow := make([]uint32, n)
	for i, k := range keys {
		narrow[i] = uint32(k ^ k>>32)
	}
	checkSortKeys(t, keys)
	checkSortKeys(t, narrow)
	checkSortKeys(t, make([]uint64, n)) // every pass skipped
	checkSortKeys(t, []uint64{3, 1, 2}) // small-input fallback
}

func checkSortKeys[K uint32 | uint64](t *testing.T, keys []K) {
	t.Helper()
	want := slices.Clone(keys)
	slices.Sort(want)
	SortKeys(keys)
	for i := range keys {
		if keys[i] != want[i] {
			t.Fatalf("radix order diverges at %d of %d: got %#x, want %#x", i, len(keys), keys[i], want[i])
		}
	}
}

// TestOrderKeysRoundTrip pins the key maps: bijective on every bit pattern
// tried, ordered as the IEEE total order, and the float32 keys ordered as
// their float64 conversions.
func TestOrderKeysRoundTrip(t *testing.T) {
	vals := specialValues(4096)
	for _, v := range vals {
		if got := Float64FromKey(Float64Key(v)); math.Float64bits(got) != math.Float64bits(v) {
			t.Fatalf("Float64 round trip of %#x gave %#x", math.Float64bits(v), math.Float64bits(got))
		}
		f := float32(v)
		if got := Float32FromKey(Float32Key(f)); math.Float32bits(got) != math.Float32bits(f) {
			t.Fatalf("Float32 round trip of %#x gave %#x", math.Float32bits(f), math.Float32bits(got))
		}
	}
	negNaN, posNaN := math.Float64frombits(0xfff8000000000000), math.Float64frombits(0x7ff8000000000000)
	order := []float64{negNaN, math.Inf(-1), -1, -5e-324, math.Copysign(0, -1), 0, 5e-324, 1, math.Inf(1), posNaN}
	for i := 1; i < len(order); i++ {
		if Float64Key(order[i-1]) >= Float64Key(order[i]) {
			t.Errorf("Float64Key(%v) >= Float64Key(%v)", order[i-1], order[i])
		}
	}
	for i := 1; i < len(vals); i++ {
		a, b := float32(vals[i-1]), float32(vals[i])
		if a != a || b != b {
			continue
		}
		if cmp.Compare(Float32Key(a), Float32Key(b)) != cmp.Compare(Float64Key(float64(a)), Float64Key(float64(b))) {
			t.Fatalf("float32 keys order %v, %v unlike their float64 conversions", a, b)
		}
	}
}

// FuzzSortFloat64s holds the kernel to the referee on arbitrary bit
// patterns, read eight bytes per value, both as given (the slices.Sort
// path below radixMin) and tiled past radixMin (the radix path).
func FuzzSortFloat64s(f *testing.F) {
	f.Add([]byte{})
	seed := make([]byte, 0, 8*64)
	for _, v := range specialValues(64) {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		vals := make([]float64, len(data)/8)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		for _, in := range [][]float64{vals, tile(vals, radixMin+1)} {
			got, want := slices.Clone(in), slices.Clone(in)
			SortFloat64s(got)
			referenceSort(want)
			requireBitsEqual(t, "fuzz", got, want)
		}
	})
}

// tile repeats vals until the result holds at least n values (nil for
// empty vals).
func tile(vals []float64, n int) []float64 {
	if len(vals) == 0 {
		return nil
	}
	out := make([]float64, 0, n+len(vals))
	for len(out) < n {
		out = append(out, vals...)
	}
	return out
}
