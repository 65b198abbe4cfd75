package stats

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestPercentileBasics(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1},
		{25, 2},
		{50, 3},
		{75, 4},
		{100, 5},
	}
	for _, c := range cases {
		got, err := Percentile(vals, c.p)
		if err != nil {
			t.Fatalf("Percentile(%v): %v", c.p, err)
		}
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	got, err := Percentile([]float64{10, 20}, 50)
	if err != nil {
		t.Fatal(err)
	}
	if got != 15 {
		t.Errorf("median of {10,20} = %v, want 15", got)
	}
}

func TestPercentileErrors(t *testing.T) {
	if _, err := Percentile(nil, 50); err != ErrEmpty {
		t.Errorf("empty input: err = %v, want ErrEmpty", err)
	}
	if _, err := Percentile([]float64{1}, -1); err == nil {
		t.Error("p=-1: want error")
	}
	if _, err := Percentile([]float64{1}, 101); err == nil {
		t.Error("p=101: want error")
	}
}

func TestPercentileDoesNotMutateInput(t *testing.T) {
	vals := []float64{3, 1, 2}
	if _, err := Percentile(vals, 50); err != nil {
		t.Fatal(err)
	}
	if vals[0] != 3 || vals[1] != 1 || vals[2] != 2 {
		t.Errorf("input mutated: %v", vals)
	}
}

func TestSummarize(t *testing.T) {
	vals := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	s, err := Summarize(vals)
	if err != nil {
		t.Fatal(err)
	}
	if s.Count != 8 {
		t.Errorf("Count = %d, want 8", s.Count)
	}
	if s.Mean != 5 {
		t.Errorf("Mean = %v, want 5", s.Mean)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Errorf("Min/Max = %v/%v, want 2/9", s.Min, s.Max)
	}
	if math.Abs(s.StdDev-2) > 1e-12 {
		t.Errorf("StdDev = %v, want 2", s.StdDev)
	}
	if s.Median != 4.5 {
		t.Errorf("Median = %v, want 4.5", s.Median)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if _, err := Summarize(nil); err != ErrEmpty {
		t.Errorf("err = %v, want ErrEmpty", err)
	}
}

func TestMinMaxMeanStdDev(t *testing.T) {
	vals := []float64{-1, 0, 1}
	if m, _ := Min(vals); m != -1 {
		t.Errorf("Min = %v", m)
	}
	if m, _ := Max(vals); m != 1 {
		t.Errorf("Max = %v", m)
	}
	if m, _ := Mean(vals); m != 0 {
		t.Errorf("Mean = %v", m)
	}
	sd, _ := StdDev(vals)
	if math.Abs(sd-math.Sqrt(2.0/3.0)) > 1e-12 {
		t.Errorf("StdDev = %v", sd)
	}
	for _, f := range []func([]float64) (float64, error){Min, Max, Mean, StdDev, Median} {
		if _, err := f(nil); err != ErrEmpty {
			t.Errorf("empty aggregate: err = %v, want ErrEmpty", err)
		}
	}
}

func TestPercentileOrderProperty(t *testing.T) {
	// Percentiles must be monotone in p and bounded by min/max.
	f := func(raw []float64, a, b uint8) bool {
		vals := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			return true
		}
		p1 := float64(a % 101)
		p2 := float64(b % 101)
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		q1, err1 := Percentile(vals, p1)
		q2, err2 := Percentile(vals, p2)
		if err1 != nil || err2 != nil {
			return false
		}
		mn, _ := Min(vals)
		mx, _ := Max(vals)
		return q1 <= q2 && q1 >= mn && q2 <= mx
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCDFBasics(t *testing.T) {
	c, err := NewCDF([]float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.At(0); got != 0 {
		t.Errorf("At(0) = %v, want 0", got)
	}
	if got := c.At(2); got != 0.5 {
		t.Errorf("At(2) = %v, want 0.5", got)
	}
	if got := c.At(4); got != 1 {
		t.Errorf("At(4) = %v, want 1", got)
	}
	if got := c.At(100); got != 1 {
		t.Errorf("At(100) = %v, want 1", got)
	}
	if got := c.TailFraction(2); got != 0.5 {
		t.Errorf("TailFraction(2) = %v, want 0.5", got)
	}
	if c.N() != 4 || c.Min() != 1 || c.Max() != 4 {
		t.Errorf("N/Min/Max = %d/%v/%v", c.N(), c.Min(), c.Max())
	}
}

func TestCDFEmpty(t *testing.T) {
	if _, err := NewCDF(nil); err != ErrEmpty {
		t.Errorf("err = %v, want ErrEmpty", err)
	}
	if _, err := NewSortedCDF(nil); err != ErrEmpty {
		t.Errorf("NewSortedCDF: err = %v, want ErrEmpty", err)
	}
}

func TestCDFQuantile(t *testing.T) {
	c, err := NewCDF([]float64{10, 20, 30})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Quantile(0); got != 10 {
		t.Errorf("Quantile(0) = %v", got)
	}
	if got := c.Quantile(1); got != 30 {
		t.Errorf("Quantile(1) = %v", got)
	}
	if got := c.Quantile(0.5); got != 20 {
		t.Errorf("Quantile(0.5) = %v", got)
	}
	if got := c.Quantile(-1); got != 10 {
		t.Errorf("Quantile(-1) = %v", got)
	}
	if got := c.Quantile(2); got != 30 {
		t.Errorf("Quantile(2) = %v", got)
	}
	// CDF.Percentile answers as Percentile over the same sample, and so does
	// a CDF wrapped around an already-sorted copy.
	wrapped, err := NewSortedCDF([]float64{10, 20, 30})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []float64{0, 12.5, 50, 95, 100} {
		want, _ := Percentile([]float64{30, 10, 20}, p)
		for _, cdf := range []*CDF{c, wrapped} {
			if got, err := cdf.Percentile(p); err != nil || got != want {
				t.Errorf("CDF.Percentile(%v) = %v, %v; want %v", p, got, err, want)
			}
		}
	}
	for _, p := range []float64{-1, 101} {
		if _, err := c.Percentile(p); err == nil {
			t.Errorf("CDF.Percentile(%v): want error", p)
		}
	}
}

func TestCDFMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b float64) bool {
		vals := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 || math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		c, err := NewCDF(vals)
		if err != nil {
			return false
		}
		lo, hi := math.Min(a, b), math.Max(a, b)
		fa, fb := c.At(lo), c.At(hi)
		return fa <= fb && fa >= 0 && fb <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCDFPoints(t *testing.T) {
	c, err := NewCDF([]float64{0, 1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	pts := c.Points(11)
	if len(pts) != 11 {
		t.Fatalf("len(pts) = %d", len(pts))
	}
	if pts[0].X != 0 || pts[len(pts)-1].X != 5 {
		t.Errorf("endpoints = %v, %v", pts[0], pts[len(pts)-1])
	}
	if !sort.SliceIsSorted(pts, func(i, j int) bool { return pts[i].Y < pts[j].Y || pts[i].X < pts[j].X }) {
		t.Error("points not monotone")
	}
	if got := c.Points(1); len(got) != 2 {
		t.Errorf("Points(1) clamps to 2 points, got %d", len(got))
	}
}

func TestCorrelation(t *testing.T) {
	perfect := []float64{1, 2, 3, 4, 5}
	if r, err := Correlation(perfect, perfect); err != nil || math.Abs(r-1) > 1e-12 {
		t.Errorf("self correlation = %v, %v", r, err)
	}
	inverse := []float64{5, 4, 3, 2, 1}
	if r, _ := Correlation(perfect, inverse); math.Abs(r+1) > 1e-12 {
		t.Errorf("inverse correlation = %v", r)
	}
	// Uncorrelated-ish symmetric data.
	if r, _ := Correlation([]float64{1, 2, 3, 4}, []float64{1, -1, 1, -1}); math.Abs(r) > 0.5 {
		t.Errorf("near-zero correlation = %v", r)
	}
	if _, err := Correlation([]float64{1}, []float64{1}); err == nil {
		t.Error("single point accepted")
	}
	if _, err := Correlation([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Correlation([]float64{1, 1}, []float64{1, 2}); err == nil {
		t.Error("zero variance accepted")
	}
}

// TestPercentileMatchesSortedForm referees Percentile's selection against
// the sort it replaced: every percentile must equal, bit for bit, the
// interpolation over a SortFloat64s copy. The inputs mix NaNs of both
// signs, ±0, ±Inf, subnormals and duplicates (specialValues), and runs of
// whole numbers like Dst readings, at sizes around the selection's sort
// cut-over, in random, sorted, reversed and constant orders.
func TestPercentileMatchesSortedForm(t *testing.T) {
	sortedForm := func(values []float64, p float64) float64 {
		s := slices.Clone(values)
		SortFloat64s(s)
		return percentileSorted(s, p)
	}
	ps := []float64{0, 0.1, 1, 5, 25, 33.3, 50, 66.7, 75, 90, 95, 99, 99.9, 100}
	for _, n := range []int{1, 2, 3, 7, 16, 17, 18, 33, 100, 1000, 4099} {
		special := specialValues(n)
		dst, constant := make([]float64, n), make([]float64, n)
		for i := range dst {
			dst[i] = float64((i*7919)%300 - 250)
			constant[i] = -42
		}
		sorted := slices.Clone(special)
		SortFloat64s(sorted)
		reversed := slices.Clone(sorted)
		slices.Reverse(reversed)
		for _, c := range []struct {
			name   string
			values []float64
		}{{"special", special}, {"dst", dst}, {"sorted", sorted}, {"reversed", reversed}, {"constant", constant}} {
			for k, p := range append(ps, float64(n%97)+0.37) {
				in := slices.Clone(c.values)
				got, err := Percentile(in, p)
				if err != nil {
					t.Fatal(err)
				}
				if want := sortedForm(c.values, p); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s n=%d p=%v (#%d): %v (%#x), sorted form %v (%#x)",
						c.name, n, p, k, got, math.Float64bits(got), want, math.Float64bits(want))
				}
				requireBitsEqual(t, "input", in, c.values)
			}
		}
	}
}
