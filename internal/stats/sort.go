package stats

import (
	"math"
	"math/bits"
	"slices"
)

// The sort kernel. Every float sort in the analysis layer maps its values to
// unsigned order keys, sorts the keys and maps them back. A key order is a
// total order, so the result depends on the multiset of values alone — no
// pivot choice and no input order leaks into it — and keys sort by LSD
// radix: a handful of linear byte passes and no comparisons at all.

// radixMin is the size below which SortKeys hands over to slices.Sort, which
// beats the counting set-up on small inputs.
const radixMin = 2048

// SortKeys sorts keys ascending. From radixMin keys up it is an LSD radix
// sort: one pass counts every byte position, then one scatter pass runs per
// position where the keys differ. Float keys share their high bytes over any
// realistic value range (altitudes, drag terms), so those passes are
// skipped. Below radixMin it is slices.Sort.
func SortKeys[K uint32 | uint64](keys []K) {
	if len(keys) < radixMin {
		slices.Sort(keys)
		return
	}
	digits := 8
	if ^K(0) == math.MaxUint32 {
		digits = 4
	}
	var counts [8][256]int
	for _, k := range keys {
		for d := 0; d < digits; d++ {
			counts[d][byte(k>>(8*d))]++
		}
	}
	var buf []K
	src := keys
	for d := 0; d < digits; d++ {
		c := &counts[d]
		if c[byte(keys[0]>>(8*d))] == len(keys) {
			continue // every key shares this byte; the pass is a no-op
		}
		if buf == nil {
			buf = make([]K, len(keys))
		}
		dst := buf
		if &src[0] == &buf[0] {
			dst = keys
		}
		sum := 0
		for i, n := range c {
			c[i] = sum
			sum += n
		}
		for _, k := range src {
			b := byte(k >> (8 * d))
			dst[c[b]] = k
			c[b]++
		}
		src = dst
	}
	if &src[0] != &keys[0] {
		copy(keys, src)
	}
}

// Float64Key maps v to a uint64 whose unsigned order is the IEEE-754 total
// order: −NaN < −Inf < … < −0 < +0 < … < +Inf < +NaN. Negative values (sign
// bit set) flip entirely; non-negative values set the top bit. The map is a
// bijection, so sorting keys and mapping them back with Float64FromKey keeps
// every bit of every value.
func Float64Key(v float64) uint64 {
	b := math.Float64bits(v)
	if b>>63 == 1 {
		return ^b
	}
	return b | 1<<63
}

// Float64FromKey inverts Float64Key.
func Float64FromKey(k uint64) float64 {
	if k>>63 == 1 {
		return math.Float64frombits(k &^ (1 << 63))
	}
	return math.Float64frombits(^k)
}

// Float32Key is Float64Key for float32 values. A float32 converts to
// float64 exactly and in order, so 32-bit keys sort float32 data into the
// order its float64 conversion would take, at half the key width.
func Float32Key(v float32) uint32 {
	b := math.Float32bits(v)
	if b>>31 == 1 {
		return ^b
	}
	return b | 1<<31
}

// Float32FromKey inverts Float32Key.
func Float32FromKey(k uint32) float32 {
	if k>>31 == 1 {
		return math.Float32frombits(k &^ (1 << 31))
	}
	return math.Float32frombits(^k)
}

// posNaNs is the number of positive NaN bit patterns. The total order puts
// them last; sort.Float64s puts every NaN first. Adding posNaNs to a total-
// order key, modulo 2⁶⁴, wraps exactly the positive NaNs around to the front
// and shifts every other key up by the same amount, so the sum is still a
// bijection and its order is sortKey's.
const posNaNs = 1<<52 - 1

// sortKey maps v to a key whose unsigned order is SortFloat64s's order.
func sortKey(v float64) uint64 { return Float64Key(v) + posNaNs }

// fromSortKey inverts sortKey.
func fromSortKey(k uint64) float64 { return Float64FromKey(k - posNaNs) }

// SortFloat64s sorts x ascending in sort.Float64s's order — NaNs first, then
// the numbers ascending — and fixes the order that sort.Float64s leaves
// open: −0 sorts before +0, and the NaNs run positive before negative, each
// group in IEEE total order. The output is therefore a function of the
// values alone, bit for bit. Already-sorted input costs one pass and no
// allocation.
func SortFloat64s(x []float64) {
	if len(x) < 2 {
		return
	}
	prev, sorted := sortKey(x[0]), true
	for _, v := range x[1:] {
		k := sortKey(v)
		if k < prev {
			sorted = false
			break
		}
		prev = k
	}
	if sorted {
		return
	}
	keys := make([]uint64, len(x))
	for i, v := range x {
		keys[i] = sortKey(v)
	}
	SortKeys(keys)
	for i, k := range keys {
		x[i] = fromSortKey(k)
	}
}

// selectMin is the range size below which selectKey sorts instead of
// partitioning.
const selectMin = 16

// selectKey reorders keys so that keys[k] holds the key a sort would put
// there, with no greater key before it and no smaller key after it. It is
// quickselect with deterministic median-of-three pivots and a three-way
// partition, so runs of equal keys (Dst readings are whole nanotesla) end a
// search instead of slowing it. A range that is still large after twice
// the partitions a balanced search needs is sorted instead.
func selectKey(keys []uint64, k int) {
	lo, hi := 0, len(keys)
	for budget := 2 * bits.Len(uint(len(keys))); hi-lo > selectMin && budget > 0; budget-- {
		a, b, c := keys[lo], keys[lo+(hi-lo)/2], keys[hi-1]
		pivot := max(min(a, b), min(max(a, b), c))
		// keys[lo:lt] < pivot, keys[lt:i] == pivot, keys[gt:hi] > pivot.
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch v := keys[i]; {
			case v < pivot:
				keys[lt], keys[i] = v, keys[lt]
				lt++
				i++
			case v > pivot:
				gt--
				keys[gt], keys[i] = v, keys[gt]
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return // keys[lt:gt] all equal the pivot, k among them
		}
	}
	slices.Sort(keys[lo:hi])
}
