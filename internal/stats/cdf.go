package stats

import (
	"fmt"
	"sort"
)

// CDF is an empirical cumulative distribution function over a sample. The
// zero value is unusable; build one with NewCDF.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from the sample. The input is copied.
func NewCDF(values []float64) (*CDF, error) {
	if len(values) == 0 {
		return nil, ErrEmpty
	}
	sorted := append([]float64(nil), values...)
	SortFloat64s(sorted)
	return &CDF{sorted: sorted}, nil
}

// NewSortedCDF builds an empirical CDF over a sample already in
// SortFloat64s's order, without copying it: the CDF keeps sorted, and the
// caller must not modify it afterwards.
func NewSortedCDF(sorted []float64) (*CDF, error) {
	if len(sorted) == 0 {
		return nil, ErrEmpty
	}
	return &CDF{sorted: sorted}, nil
}

// At returns P(X <= x).
func (c *CDF) At(x float64) float64 {
	// sort.SearchFloat64s returns the first index with sorted[i] >= x; we
	// want the count of samples <= x, so search for the first index > x.
	i := sort.Search(len(c.sorted), func(i int) bool { return c.sorted[i] > x })
	return float64(i) / float64(len(c.sorted))
}

// Quantile returns the q-quantile (0 <= q <= 1), i.e. the inverse CDF.
func (c *CDF) Quantile(q float64) float64 {
	if q <= 0 {
		return c.sorted[0]
	}
	if q >= 1 {
		return c.sorted[len(c.sorted)-1]
	}
	return percentileSorted(c.sorted, q*100)
}

// Percentile returns the p-th percentile (0 <= p <= 100) of the sample, by
// the same interpolation as the package-level Percentile, without sorting
// again.
func (c *CDF) Percentile(p float64) (float64, error) {
	if p < 0 || p > 100 {
		return 0, errPercentileRange
	}
	return percentileSorted(c.sorted, p), nil
}

// N returns the sample size.
func (c *CDF) N() int { return len(c.sorted) }

// Min returns the smallest sample.
func (c *CDF) Min() float64 { return c.sorted[0] }

// Max returns the largest sample.
func (c *CDF) Max() float64 { return c.sorted[len(c.sorted)-1] }

// TailFraction returns P(X > x), the complementary CDF, which is how the
// paper quotes tail mass ("at most 1% of satellites ...").
func (c *CDF) TailFraction(x float64) float64 { return 1 - c.At(x) }

// Points returns n evenly spaced (x, F(x)) points spanning the sample range,
// suitable for plotting or textual rendering of the CDF curve.
func (c *CDF) Points(n int) []Point {
	if n < 2 {
		n = 2
	}
	lo, hi := c.Min(), c.Max()
	pts := make([]Point, n)
	for i := range pts {
		x := lo + (hi-lo)*float64(i)/float64(n-1)
		pts[i] = Point{X: x, Y: c.At(x)}
	}
	return pts
}

// Point is a single (x, y) pair in a rendered curve.
type Point struct{ X, Y float64 }

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.4g, %.4g)", p.X, p.Y) }

// Histogram counts samples into uniform-width bins over [lo, hi). Samples
// outside the range are clamped into the first/last bin so no mass is lost.
type Histogram struct {
	Lo, Hi float64
	Counts []int
	total  int
}

// NewHistogram creates a histogram with bins uniform bins over [lo, hi).
func NewHistogram(lo, hi float64, bins int) (*Histogram, error) {
	if bins <= 0 {
		return nil, fmt.Errorf("stats: bins must be positive, got %d", bins)
	}
	if hi <= lo {
		return nil, fmt.Errorf("stats: histogram range [%g, %g) is empty", lo, hi)
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}, nil
}

// Add records one sample.
func (h *Histogram) Add(x float64) {
	idx := int((x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Counts)))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(h.Counts) {
		idx = len(h.Counts) - 1
	}
	h.Counts[idx]++
	h.total++
}

// Total returns the number of samples recorded.
func (h *Histogram) Total() int { return h.total }

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + w*(float64(i)+0.5)
}

// Fraction returns the share of samples in bin i.
func (h *Histogram) Fraction(i int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.Counts[i]) / float64(h.total)
}
