package main

import (
	"math"
	"slices"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle of xs, averaging the two middle values of an
// even-sized sample. It is NaN for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// maximum returns the largest of xs, NaN for an empty sample.
func maximum(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return slices.Max(xs)
}

// quartiles returns the first and third quartiles of xs by the exclusive
// method of Python's statistics.quantiles(xs, n=4), the method the spread
// of a benchmark set is judged by.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	at := func(i int) float64 {
		n := len(s)
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// percentile returns the nearest-rank p-th percentile of an ascending
// sample: the smallest value with at least p% of the sample at or below it.
func percentile(s []float64, p float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	return s[rank(p, len(s))-1]
}

// rank is the 1-based nearest rank of the p-th percentile of n samples.
// The epsilon keeps p*n/100 that lands on a whole number, give or take
// float rounding, on that number.
func rank(p float64, n int) int {
	return max(1, int(math.Ceil(p*float64(n)/100-1e-9)))
}

// tailPercentiles are the candidates for a sample's reported tail, highest
// first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75}

// tail picks the highest percentile that has at least ten samples beyond
// it, so a reported tail always rests on ten or more observations. ok is
// false when the sample is too small for any candidate.
func tail(s []float64) (p, v float64, ok bool) {
	for _, p := range tailPercentiles {
		if r := rank(p, len(s)); len(s)-r >= 10 {
			return p, s[r-1], true
		}
	}
	return 0, 0, false
}

// latencies pools operation latencies in milliseconds, a failed operation
// counting as +Inf: it missed every latency limit.
func latencies(ops []op) []float64 {
	out := make([]float64, len(ops))
	for i, o := range ops {
		out[i] = o.ms
		if !o.ok {
			out[i] = math.Inf(1)
		}
	}
	sort.Float64s(out)
	return out
}

// failures counts the operations that failed.
func failures(ops []op) int {
	n := 0
	for _, o := range ops {
		if !o.ok {
			n++
		}
	}
	return n
}

// interval is a half-open time range in nanoseconds.
type interval struct{ start, end int64 }

// unionLen returns the length of the union of ivs clipped to [lo, hi].
func unionLen(ivs []interval, lo, hi int64) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		s, e := max(iv.start, lo), min(iv.end, hi)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total, curS, curE int64
	for i, iv := range clipped {
		if i == 0 || iv.start > curE {
			total += curE - curS
			curS, curE = iv.start, iv.end
			continue
		}
		curE = max(curE, iv.end)
	}
	return total + curE - curS
}
