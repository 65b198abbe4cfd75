package artifact

import (
	"bytes"
	"context"
	"math"
	"runtime"
	"slices"
	"testing"

	"cosmicdance/internal/constellation"
	"cosmicdance/internal/core"
	"cosmicdance/internal/spaceweather"
	"cosmicdance/internal/stats"
)

// TestFig10CDFsMatchSortedInputs is the referee for Fig 10's two CDFs, which
// no longer sort a float64 copy: RawAltitudeCDF wraps the canonical raw
// column and CleanAltitudeCDF sorts 32-bit keys of the track altitudes. On
// the seed-42 paper dataset, fresh and decoded from its snapshot, both must
// equal stats.NewCDF over the inputs they replace — a copy of the raw
// column, and the track altitudes concatenated as float64 — and stay within
// their allocation gates.
func TestFig10CDFsMatchSortedInputs(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale simulation in -short mode")
	}
	weather, err := spaceweather.Generate(spaceweather.Paper2020to2024())
	if err != nil {
		t.Fatal(err)
	}
	res, err := constellation.Run(context.Background(), constellation.PaperFleet(42), weather)
	if err != nil {
		t.Fatal(err)
	}
	fresh := testDataset(t, weather, res)
	decoded, err := DecodeDataset(bytes.NewReader(encodeDatasetBytes(t, fresh)), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		d    *core.Dataset
	}{{"fresh", fresh}, {"decoded", decoded}} {
		var alts []float64
		for _, tr := range c.d.Tracks() {
			for _, p := range tr.Points {
				alts = append(alts, float64(p.AltKm))
			}
		}
		compareCDFs(t, c.name+" clean", c.d.CleanAltitudeCDF, alts)
		compareCDFs(t, c.name+" raw", c.d.RawAltitudeCDF, slices.Clone(c.d.Partial().RawAlts))

		if n := allocated(func() { _, _ = c.d.RawAltitudeCDF() }); n >= 1<<10 {
			t.Errorf("%s: RawAltitudeCDF allocated %d bytes, want < 1 KiB", c.name, n)
		}
		// 16 B per point: 4 B of key, 4 B of radix scratch, 8 B of output.
		// The runtime rounds each of those three large buffers up to whole
		// 8 KiB pages.
		limit := uint64(16*len(alts) + 3*8<<10 + 1<<10)
		if n := allocated(func() { _, _ = c.d.CleanAltitudeCDF() }); n > limit {
			t.Errorf("%s: CleanAltitudeCDF allocated %d bytes over %d points, want <= %d",
				c.name, n, len(alts), limit)
		}
	}
}

// compareCDFs requires build() to equal stats.NewCDF(values) in N, the
// 12-point curve, the quantiles and the maximum, bit for bit.
func compareCDFs(t *testing.T, label string, build func() (*stats.CDF, error), values []float64) {
	t.Helper()
	got, err := build()
	if err != nil {
		t.Fatal(err)
	}
	want, err := stats.NewCDF(values)
	if err != nil {
		t.Fatal(err)
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if got.N() != want.N() || !same(got.Max(), want.Max()) || !same(got.Min(), want.Min()) {
		t.Fatalf("%s: N/Min/Max = %d/%v/%v, want %d/%v/%v", label,
			got.N(), got.Min(), got.Max(), want.N(), want.Min(), want.Max())
	}
	gp, wp := got.Points(12), want.Points(12)
	for i := range gp {
		if !same(gp[i].X, wp[i].X) || !same(gp[i].Y, wp[i].Y) {
			t.Fatalf("%s: point %d = %v, want %v", label, i, gp[i], wp[i])
		}
	}
	for _, q := range []float64{0, 0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1} {
		if g, w := got.Quantile(q), want.Quantile(q); !same(g, w) {
			t.Fatalf("%s: Quantile(%v) = %v, want %v", label, q, g, w)
		}
	}
}

// allocated returns the heap bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
