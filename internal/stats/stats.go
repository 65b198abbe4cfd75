// Package stats provides the small set of descriptive statistics CosmicDance
// needs: percentiles, CDFs, histograms and summary aggregates. Everything is
// allocation-conscious because the pipeline runs these over millions of TLE
// samples.
package stats

import (
	"errors"
	"math"
)

// ErrEmpty is returned by aggregates that are undefined on empty input.
var ErrEmpty = errors.New("stats: empty input")

var errPercentileRange = errors.New("stats: percentile out of range [0,100]")

// Percentile returns the p-th percentile (0 <= p <= 100) of values using
// linear interpolation between closest ranks. The input is not modified.
func Percentile(values []float64, p float64) (float64, error) {
	if len(values) == 0 {
		return 0, ErrEmpty
	}
	if p < 0 || p > 100 {
		return 0, errPercentileRange
	}
	sorted := append([]float64(nil), values...)
	SortFloat64s(sorted)
	return percentileSorted(sorted, p), nil
}

// percentileSorted computes a percentile over an already-sorted slice.
func percentileSorted(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Median returns the 50th percentile.
func Median(values []float64) (float64, error) { return Percentile(values, 50) }

// Mean returns the arithmetic mean.
func Mean(values []float64) (float64, error) {
	if len(values) == 0 {
		return 0, ErrEmpty
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values)), nil
}

// Min returns the smallest value.
func Min(values []float64) (float64, error) {
	if len(values) == 0 {
		return 0, ErrEmpty
	}
	m := values[0]
	for _, v := range values[1:] {
		if v < m {
			m = v
		}
	}
	return m, nil
}

// Max returns the largest value.
func Max(values []float64) (float64, error) {
	if len(values) == 0 {
		return 0, ErrEmpty
	}
	m := values[0]
	for _, v := range values[1:] {
		if v > m {
			m = v
		}
	}
	return m, nil
}

// StdDev returns the population standard deviation.
func StdDev(values []float64) (float64, error) {
	mean, err := Mean(values)
	if err != nil {
		return 0, err
	}
	var ss float64
	for _, v := range values {
		d := v - mean
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(values))), nil
}

// Summary bundles the aggregates the paper reports for distributions
// (e.g. Fig 2's median / 95th / 99th / max storm durations).
type Summary struct {
	Count  int
	Mean   float64
	Median float64
	P95    float64
	P99    float64
	Min    float64
	Max    float64
	StdDev float64
}

// Summarize computes a Summary in one pass over a private sorted copy.
func Summarize(values []float64) (Summary, error) {
	if len(values) == 0 {
		return Summary{}, ErrEmpty
	}
	sorted := append([]float64(nil), values...)
	SortFloat64s(sorted)
	var sum float64
	for _, v := range sorted {
		sum += v
	}
	mean := sum / float64(len(sorted))
	var ss float64
	for _, v := range sorted {
		d := v - mean
		ss += d * d
	}
	return Summary{
		Count:  len(sorted),
		Mean:   mean,
		Median: percentileSorted(sorted, 50),
		P95:    percentileSorted(sorted, 95),
		P99:    percentileSorted(sorted, 99),
		Min:    sorted[0],
		Max:    sorted[len(sorted)-1],
		StdDev: math.Sqrt(ss / float64(len(sorted))),
	}, nil
}

// Correlation returns the Pearson correlation coefficient of two
// equal-length samples. It errs on fewer than two points or zero variance.
func Correlation(x, y []float64) (float64, error) {
	if len(x) != len(y) {
		return 0, errors.New("stats: correlation inputs differ in length")
	}
	if len(x) < 2 {
		return 0, errors.New("stats: correlation needs at least two points")
	}
	mx, _ := Mean(x)
	my, _ := Mean(y)
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, errors.New("stats: correlation undefined for zero variance")
	}
	return sxy / math.Sqrt(sxx*syy), nil
}
