package dst

import (
	"errors"
	"math"
	"testing"
	"time"

	"cosmicdance/internal/stats"
	"cosmicdance/internal/units"
)

var t0 = time.Date(2023, 4, 24, 0, 0, 0, 0, time.UTC)

func TestStormsDetectsRuns(t *testing.T) {
	// quiet, then 3 hours of severe storm (the 24 Apr 2023 event), quiet.
	vals := []float64{-10, -20, -209, -213, -208, -30, -5}
	x := FromValues(t0, vals)
	storms := x.Storms(units.StormThreshold)
	if len(storms) != 1 {
		t.Fatalf("storms = %d, want 1", len(storms))
	}
	s := storms[0]
	if s.Hours != 3 {
		t.Errorf("Hours = %d, want 3", s.Hours)
	}
	if s.Peak != -213 {
		t.Errorf("Peak = %v, want -213", s.Peak)
	}
	if !s.Start.Equal(t0.Add(2 * time.Hour)) {
		t.Errorf("Start = %v", s.Start)
	}
	if !s.PeakAt.Equal(t0.Add(3 * time.Hour)) {
		t.Errorf("PeakAt = %v", s.PeakAt)
	}
	if !s.End().Equal(t0.Add(5 * time.Hour)) {
		t.Errorf("End = %v", s.End())
	}
	if s.Duration() != 3*time.Hour {
		t.Errorf("Duration = %v", s.Duration())
	}
	if s.Category() != units.G4Severe {
		t.Errorf("Category = %v, want G4", s.Category())
	}
}

func TestStormsMultipleRunsAndEdges(t *testing.T) {
	// A storm touching the start, one in the middle, one touching the end.
	vals := []float64{-60, -55, -10, -70, -10, -90, -120}
	x := FromValues(t0, vals)
	storms := x.Storms(units.StormThreshold)
	if len(storms) != 3 {
		t.Fatalf("storms = %d, want 3", len(storms))
	}
	if storms[0].Hours != 2 || storms[1].Hours != 1 || storms[2].Hours != 2 {
		t.Errorf("durations = %d,%d,%d", storms[0].Hours, storms[1].Hours, storms[2].Hours)
	}
	if storms[2].Peak != -120 || storms[2].Category() != units.G2Moderate {
		t.Errorf("last storm = %+v", storms[2])
	}
}

func TestStormsNaNBreaksRun(t *testing.T) {
	vals := []float64{-60, math.NaN(), -60}
	x := FromValues(t0, vals)
	storms := x.Storms(units.StormThreshold)
	if len(storms) != 2 {
		t.Fatalf("storms across NaN = %d, want 2", len(storms))
	}
}

func TestStormsNone(t *testing.T) {
	x := FromValues(t0, []float64{-10, -20, -49})
	if got := x.Storms(units.StormThreshold); len(got) != 0 {
		t.Errorf("storms = %v, want none", got)
	}
}

func TestStormsPartitionProperty(t *testing.T) {
	// The hours inside detected storms must exactly equal the hours at or
	// below threshold.
	vals := make([]float64, 500)
	for i := range vals {
		vals[i] = -float64((i * 37) % 150)
	}
	x := FromValues(t0, vals)
	storms := x.Storms(units.StormThreshold)
	inStorm := 0
	for _, s := range storms {
		inStorm += s.Hours
	}
	direct := 0
	for _, v := range vals {
		if units.NanoTesla(v) <= units.StormThreshold {
			direct++
		}
	}
	if inStorm != direct {
		t.Errorf("storm hours = %d, direct count = %d", inStorm, direct)
	}
	// Storms must be disjoint and ordered.
	for i := 1; i < len(storms); i++ {
		if storms[i].Start.Before(storms[i-1].End()) {
			t.Errorf("storm %d overlaps previous", i)
		}
	}
}

func TestIntensityPercentile(t *testing.T) {
	// 100 hours: 99 quiet at -10, one at -63. The 99th intensity percentile
	// should land between them, near -63 (paper's headline number).
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = -10
	}
	vals[50] = -63
	x := FromValues(t0, vals)
	p99, err := x.IntensityPercentile(99)
	if err != nil {
		t.Fatal(err)
	}
	if p99 > -10 || p99 < -63 {
		t.Errorf("99th intensity percentile = %v, want within [-63,-10]", p99)
	}
	// 0th percentile is the least intense hour.
	p0, err := x.IntensityPercentile(0)
	if err != nil {
		t.Fatal(err)
	}
	if p0 != -10 {
		t.Errorf("0th = %v, want -10", p0)
	}
	// 100th percentile is the peak.
	p100, err := x.IntensityPercentile(100)
	if err != nil {
		t.Fatal(err)
	}
	if p100 != -63 {
		t.Errorf("100th = %v, want -63", p100)
	}
}

func TestHoursInClass(t *testing.T) {
	vals := []float64{-10, -55, -55, -150, -220, -400, math.NaN()}
	x := FromValues(t0, vals)
	got := x.HoursInClass()
	want := map[units.GScale]int{
		units.GQuiet:     1,
		units.G1Minor:    2,
		units.G2Moderate: 1,
		units.G4Severe:   1,
		units.G5Extreme:  1,
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("class %v = %d, want %d", k, got[k], v)
		}
	}
	total := 0
	for _, v := range got {
		total += v
	}
	if total != 6 {
		t.Errorf("total classified = %d, want 6 (NaN excluded)", total)
	}
}

// TestMissingHoursSkipped: WDC 9999 hours decode to NaN and stay in the
// index; neither the intensity percentile nor the peak may rank them.
func TestMissingHoursSkipped(t *testing.T) {
	nan := math.NaN()
	series := func(n int, v float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = v
		}
		return out
	}
	// 1,000 quiet hours, one storm hour, 20 missing hours.
	mixed := append(append(series(1000, -10), -200), series(20, nan)...)
	cases := []struct {
		name     string
		vals     []float64
		p        float64
		wantP    float64
		wantMin  float64
		wantHour int // index of the peak hour; -1 for none
	}{
		{"missing tail", mixed, 99, -10, -200, 1000},
		{"missing first hour", append([]float64{nan}, -30, -80, -5), 100, -80, -80, 2},
		{"no missing hour", []float64{-30, -80, -5}, 0, -5, -80, 1},
		{"all missing", series(5, nan), 99, 0, 0, -1},
	}
	for _, c := range cases {
		x := FromValues(t0, c.vals)
		got, err := x.IntensityPercentile(c.p)
		if c.wantHour < 0 {
			if !errors.Is(err, stats.ErrEmpty) {
				t.Errorf("%s: IntensityPercentile err = %v, want stats.ErrEmpty", c.name, err)
			}
		} else if err != nil || float64(got) != c.wantP {
			t.Errorf("%s: IntensityPercentile(%v) = %v, %v; want %v", c.name, c.p, got, err, c.wantP)
		}
		peak, at := x.Min()
		wantAt := time.Time{}
		if c.wantHour >= 0 {
			wantAt = t0.Add(time.Duration(c.wantHour) * time.Hour)
		}
		if float64(peak) != c.wantMin || !at.Equal(wantAt) {
			t.Errorf("%s: Min = %v at %v; want %v at %v", c.name, peak, at, c.wantMin, wantAt)
		}
	}
}

func TestMin(t *testing.T) {
	x := FromValues(t0, []float64{-10, -412, -30})
	peak, at := x.Min()
	if peak != -412 || !at.Equal(t0.Add(time.Hour)) {
		t.Errorf("Min = %v at %v", peak, at)
	}
	empty := FromValues(t0, nil)
	if p, _ := empty.Min(); p != 0 {
		t.Errorf("empty Min = %v", p)
	}
}

func TestAtAndSlice(t *testing.T) {
	x := FromValues(t0, []float64{-1, -2, -3, -4})
	if v, ok := x.At(t0.Add(90 * time.Minute)); !ok || v != -2 {
		t.Errorf("At = %v, %v", v, ok)
	}
	if _, ok := x.At(t0.Add(-time.Hour)); ok {
		t.Error("At before start should be !ok")
	}
	sub := x.Slice(t0.Add(time.Hour), t0.Add(3*time.Hour))
	if sub.Len() != 2 {
		t.Errorf("slice len = %d", sub.Len())
	}
	if !x.End().Equal(t0.Add(4*time.Hour)) || !x.Start().Equal(t0) {
		t.Errorf("span = %v..%v", x.Start(), x.End())
	}
}

func TestDurationSummary(t *testing.T) {
	storms := []Storm{{Hours: 3}, {Hours: 15}, {Hours: 19}}
	s, err := DurationSummary(storms)
	if err != nil {
		t.Fatal(err)
	}
	if s.Median != 15 || s.Max != 19 || s.Min != 3 {
		t.Errorf("summary = %+v", s)
	}
	if _, err := DurationSummary(nil); err == nil {
		t.Error("empty storm list: want error")
	}
}

func TestIndexBasics(t *testing.T) {
	vals := make([]float64, 24)
	vals[3] = -63
	x := FromValues(t0.Add(30*time.Minute), vals) // start truncates to the hour
	if !x.Start().Equal(t0) {
		t.Errorf("Start = %v, want truncated %v", x.Start(), t0)
	}
	if x.Len() != 24 {
		t.Errorf("Len = %d", x.Len())
	}
	if !x.End().Equal(t0.Add(24 * time.Hour)) {
		t.Errorf("End = %v", x.End())
	}
	if v, ok := x.At(t0.Add(3*time.Hour + 45*time.Minute)); !ok || v != -63 {
		t.Errorf("At = %v, %v", v, ok)
	}
	if _, ok := x.At(t0.Add(-time.Hour)); ok {
		t.Error("At before start should be !ok")
	}
	if _, ok := x.At(t0.Add(24 * time.Hour)); ok {
		t.Error("At at End should be !ok")
	}
	if !x.TimeAt(5).Equal(t0.Add(5 * time.Hour)) {
		t.Errorf("TimeAt(5) = %v", x.TimeAt(5))
	}
}

func TestIndexSlice(t *testing.T) {
	vals := make([]float64, 48)
	for i := range vals {
		vals[i] = float64(i)
	}
	x := FromValues(t0, vals)
	sub := x.Slice(t0.Add(10*time.Hour), t0.Add(20*time.Hour))
	if sub.Len() != 10 {
		t.Fatalf("sub len = %d, want 10", sub.Len())
	}
	if sub.Values()[0] != 10 || sub.Values()[9] != 19 {
		t.Errorf("sub values = %v", sub.Values())
	}
	// Clamping.
	all := x.Slice(t0.Add(-100*time.Hour), t0.Add(1000*time.Hour))
	if all.Len() != 48 {
		t.Errorf("clamped slice len = %d, want 48", all.Len())
	}
	empty := x.Slice(t0.Add(20*time.Hour), t0.Add(10*time.Hour))
	if empty.Len() != 0 {
		t.Errorf("inverted slice len = %d, want 0", empty.Len())
	}
}

func TestIndexAppend(t *testing.T) {
	x := FromValues(t0, nil)
	if err := x.Append(FromValues(t0, []float64{1, 2})); err != nil {
		t.Fatal(err)
	}
	if err := x.Append(FromValues(t0.Add(2*time.Hour), []float64{3})); err != nil {
		t.Fatal(err)
	}
	if x.Len() != 3 || x.Values()[2] != 3 {
		t.Errorf("after append: len=%d values=%v", x.Len(), x.Values())
	}
	// Gap → error.
	if err := x.Append(FromValues(t0.Add(10*time.Hour), []float64{9})); !errors.Is(err, ErrMisaligned) {
		t.Errorf("gap append err = %v, want ErrMisaligned", err)
	}
	// Empty append is a no-op.
	if err := x.Append(FromValues(t0, nil)); err != nil || x.Len() != 3 {
		t.Errorf("empty append: err = %v, len = %d", err, x.Len())
	}
}

func TestBandRuns(t *testing.T) {
	// A storm dipping through mild into moderate and back: the mild band is
	// visited twice (descent and recovery), the moderate band once.
	vals := []float64{-10, -60, -120, -150, -120, -60, -10}
	x := FromValues(t0, vals)
	mild := x.BandRuns(-100, -50)
	if len(mild) != 2 {
		t.Fatalf("mild runs = %d, want 2 (descent + recovery)", len(mild))
	}
	if mild[0].Hours != 1 || mild[1].Hours != 1 {
		t.Errorf("mild run lengths = %d, %d", mild[0].Hours, mild[1].Hours)
	}
	moderate := x.BandRuns(-200, -100)
	if len(moderate) != 1 || moderate[0].Hours != 3 {
		t.Fatalf("moderate runs = %+v, want one 3-hour run", moderate)
	}
	if moderate[0].Peak != -150 {
		t.Errorf("moderate peak = %v", moderate[0].Peak)
	}
	// NaN breaks a band run.
	x2 := FromValues(t0, []float64{-60, math.NaN(), -60})
	if got := x2.BandRuns(-100, -50); len(got) != 2 {
		t.Errorf("NaN-split runs = %d, want 2", len(got))
	}
	// Run touching the series end is flushed.
	x3 := FromValues(t0, []float64{-10, -60})
	if got := x3.BandRuns(-100, -50); len(got) != 1 {
		t.Errorf("trailing run = %d, want 1", len(got))
	}
	// A -Inf hour stays inside a storm but lies in no band whose lower bound
	// is -Inf, so Storms(t) is not BandRuns(-Inf, t).
	x4 := FromValues(t0, []float64{-60, math.Inf(-1), -60})
	if got := x4.Storms(units.StormThreshold); len(got) != 1 || got[0].Hours != 3 || !math.IsInf(float64(got[0].Peak), -1) {
		t.Errorf("storms over -Inf = %+v, want one 3-hour run peaking at -Inf", got)
	}
	if got := x4.BandRuns(units.NanoTesla(math.Inf(-1)), units.StormThreshold); len(got) != 2 {
		t.Errorf("band runs over -Inf = %d, want 2", len(got))
	}
}

func TestCategoryBand(t *testing.T) {
	cases := []struct {
		c      units.GScale
		lo, hi units.NanoTesla
		ok     bool
	}{
		{units.G1Minor, -100, -50, true},
		{units.G2Moderate, -200, -100, true},
		{units.G4Severe, -350, -200, true},
		{units.G5Extreme, -100000, -350, true},
		{units.GQuiet, 0, 0, false},
		{units.G3Strong, 0, 0, false},
	}
	for _, c := range cases {
		lo, hi, ok := CategoryBand(c.c)
		if ok != c.ok || (ok && (lo != c.lo || hi != c.hi)) {
			t.Errorf("CategoryBand(%v) = %v,%v,%v", c.c, lo, hi, ok)
		}
	}
	if got := FromValues(t0, []float64{-60}).CategoryRuns(units.GQuiet); got != nil {
		t.Errorf("quiet category runs = %v", got)
	}
}

func TestCategoryRunsPartitionStormHours(t *testing.T) {
	// Every storm-band hour belongs to exactly one category's runs.
	vals := make([]float64, 400)
	for i := range vals {
		vals[i] = -float64((i * 53) % 400)
	}
	x := FromValues(t0, vals)
	inRuns := 0
	for _, c := range []units.GScale{units.G1Minor, units.G2Moderate, units.G4Severe, units.G5Extreme} {
		for _, r := range x.CategoryRuns(c) {
			inRuns += r.Hours
		}
	}
	direct := 0
	for _, v := range vals {
		if units.ClassifyDst(units.NanoTesla(v)) != units.GQuiet {
			direct++
		}
	}
	if inRuns != direct {
		t.Errorf("run hours = %d, classified hours = %d", inRuns, direct)
	}
}
