package spaceweather

import (
	"testing"
	"time"

	"cosmicdance/internal/dst"
	"cosmicdance/internal/units"
)

// These tests are the calibration contract: the synthetic scenarios must
// reproduce the summary statistics the paper reports for the real WDC data
// (within tolerances documented in DESIGN.md).

func TestPaperScenarioCalibration(t *testing.T) {
	x, err := Generate(Paper2020to2024())
	if err != nil {
		t.Fatal(err)
	}
	if x.Len() != 38136 {
		t.Errorf("window = %d hours, want 38136 (Jan'20 .. 8 May'24)", x.Len())
	}

	classes := x.HoursInClass()
	// Paper: 720 hours of mild storms in total.
	if got := classes[units.G1Minor]; got < 500 || got > 950 {
		t.Errorf("mild hours = %d, want ~720", got)
	}
	// Paper: 74 hours of moderate storms.
	if got := classes[units.G2Moderate]; got < 45 || got > 110 {
		t.Errorf("moderate hours = %d, want ~74", got)
	}
	// Paper: exactly 3 severe hours (24 Apr 2023), no extreme hours.
	if got := classes[units.G4Severe]; got != 3 {
		t.Errorf("severe hours = %d, want exactly 3", got)
	}
	if got := classes[units.G5Extreme]; got != 0 {
		t.Errorf("extreme hours = %d, want 0", got)
	}

	// Paper: 99th-ptile intensity −63 nT; 95th-ptile milder than −50 nT.
	p99, err := x.IntensityPercentile(99)
	if err != nil {
		t.Fatal(err)
	}
	if p99 > -52 || p99 < -78 {
		t.Errorf("p99 = %v, want ~-63 nT", p99)
	}
	p95, err := x.IntensityPercentile(95)
	if err != nil {
		t.Fatal(err)
	}
	if p95 <= -50 {
		t.Errorf("p95 = %v, want milder than the -50 nT minor-storm threshold", p95)
	}

	// The three severe hours are the published ones.
	for _, c := range []struct {
		at   time.Time
		want units.NanoTesla
	}{
		{SevereStormPeak.Add(-time.Hour), -209},
		{SevereStormPeak, -213},
		{SevereStormPeak.Add(time.Hour), -208},
	} {
		if v, ok := x.At(c.at); !ok || v != c.want {
			t.Errorf("severe hour %v = %v, want %v", c.at, v, c.want)
		}
	}
	min, at := x.Min()
	if min != -213 || !at.Equal(SevereStormPeak) {
		t.Errorf("dataset min = %v at %v, want -213 at %v", min, at, SevereStormPeak)
	}
}

func TestPaperScenarioStormDurations(t *testing.T) {
	x, err := Generate(Paper2020to2024())
	if err != nil {
		t.Fatal(err)
	}
	// Fig 2 measures time spent at each category's depth (the paper's severe
	// storm "lasted 3 contiguous hours" counts exactly the hours <= -200 nT).
	mild, err := dst.DurationSummary(x.CategoryRuns(units.G1Minor))
	if err != nil {
		t.Fatal(err)
	}
	// Paper Fig 2 (mild): median ~3 h, 95th ~17 h, max 29 h.
	if mild.Median < 2 || mild.Median > 7 {
		t.Errorf("mild median duration = %v h, want ~3", mild.Median)
	}
	if mild.Max < 10 || mild.Max > 40 {
		t.Errorf("mild max duration = %v h, want ~29", mild.Max)
	}

	mod, err := dst.DurationSummary(x.CategoryRuns(units.G2Moderate))
	if err != nil {
		t.Fatal(err)
	}
	// Paper Fig 2 (moderate): median ~3 h, max ~19 h.
	if mod.Median < 2 || mod.Median > 8 {
		t.Errorf("moderate median duration = %v h, want ~3", mod.Median)
	}
	if mod.Max < 5 || mod.Max > 25 {
		t.Errorf("moderate max duration = %v h, want ~19", mod.Max)
	}

	// The severe depth was held for exactly one 3-hour run (24 Apr 2023).
	severe := x.CategoryRuns(units.G4Severe)
	if len(severe) != 1 || severe[0].Hours != 3 {
		t.Errorf("severe runs = %+v, want one 3-hour run", severe)
	}
}

func TestPaperScenarioInjectedEvents(t *testing.T) {
	x, err := Generate(Paper2020to2024())
	if err != nil {
		t.Fatal(err)
	}
	// Every dated event must be present at (close to) its nominal intensity.
	cases := []struct {
		name string
		at   time.Time
		lo   units.NanoTesla // most negative allowed
		hi   units.NanoTesla // least negative allowed
	}{
		{"24 Mar 2023", Fig3StormA, -200, -140},
		{"3 Mar 2024", Fig3StormB, -145, -95},
		{"Fig 4 (-112 nT)", Fig4Storm, -145, -100},
		{"3 Feb 2022", Feb2022Storm, -105, -55},
	}
	for _, c := range cases {
		v, ok := x.At(c.at)
		if !ok {
			t.Errorf("%s: hour missing", c.name)
			continue
		}
		if v < c.lo || v > c.hi {
			t.Errorf("%s: %v outside [%v, %v]", c.name, v, c.lo, c.hi)
		}
	}
}

func TestMay2024Scenario(t *testing.T) {
	x, err := Generate(May2024())
	if err != nil {
		t.Fatal(err)
	}
	min, at := x.Min()
	if min != -412 {
		t.Errorf("peak = %v, want -412 nT", min)
	}
	if !at.Equal(May2024Peak) {
		t.Errorf("peak at %v, want %v", at, May2024Peak)
	}
	// WDC recorded ~23 hours below −200 nT.
	below := 0
	for _, v := range x.Hourly().Values() {
		if v <= -200 {
			below++
		}
	}
	if below < 15 || below > 30 {
		t.Errorf("hours <= -200 = %d, want ~23", below)
	}
	// The storm classifies as extreme (G5).
	extreme := false
	for _, s := range x.Storms(units.StormThreshold) {
		extreme = extreme || s.Category() == units.G5Extreme
	}
	if !extreme {
		t.Error("no extreme storm detected in May 2024 scenario")
	}
}

func TestFiftyYearsScenario(t *testing.T) {
	x, err := Generate(FiftyYears())
	if err != nil {
		t.Fatal(err)
	}
	if x.Start().Year() != 1975 || x.End().Year() != 2024 {
		t.Errorf("span = %v..%v", x.Start(), x.End())
	}
	// Every named historic storm is pinned at its recorded value and is the
	// deepest hour in its ±3 day neighbourhood.
	for _, n := range NamedHistoricStorms() {
		v, ok := x.At(n.At)
		if !ok || units.NanoTesla(v) != n.Value {
			t.Errorf("%v: value %v, want %v", n.At, v, n.Value)
			continue
		}
		window := x.Slice(n.At.Add(-72*time.Hour), n.At.Add(72*time.Hour))
		min, at := window.Min()
		if min < n.Value || !at.Equal(n.At) {
			t.Errorf("%v: neighbourhood min %v at %v undercuts the pinned peak %v", n.At, min, at, n.Value)
		}
	}
	// The global minimum is the March 1989 Quebec storm.
	min, at := x.Min()
	if min != -589 || at.Year() != 1989 {
		t.Errorf("global min = %v at %v, want -589 in 1989", min, at)
	}
}

func TestScenarioSolarCycleShape(t *testing.T) {
	// Storm activity in the paper window should ramp up toward the cycle-25
	// maximum: more storm hours in 2023-24 than 2020-21.
	x, err := Generate(Paper2020to2024())
	if err != nil {
		t.Fatal(err)
	}
	early := x.Slice(time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC), time.Date(2021, 7, 1, 0, 0, 0, 0, time.UTC))
	late := x.Slice(time.Date(2022, 11, 1, 0, 0, 0, 0, time.UTC), time.Date(2024, 5, 1, 0, 0, 0, 0, time.UTC))
	stormHours := func(vals []float64) int {
		n := 0
		for _, v := range vals {
			if units.NanoTesla(v) <= units.StormThreshold {
				n++
			}
		}
		return n
	}
	e, l := stormHours(early.Hourly().Values()), stormHours(late.Hourly().Values())
	if l <= e {
		t.Errorf("late-window storm hours (%d) not above early window (%d)", l, e)
	}
}

func TestFiftyYearsSolarCyclePeriodicity(t *testing.T) {
	// Storm activity must wax and wane on the ~11-year cycle: years near the
	// configured maxima (1990, 2001, 2012, 2023) carry more storm hours than
	// years near the minima in between.
	x, err := Generate(FiftyYears())
	if err != nil {
		t.Fatal(err)
	}
	stormHours := func(year int) int {
		from := time.Date(year, 1, 1, 0, 0, 0, 0, time.UTC)
		n := 0
		for _, v := range x.Slice(from, from.AddDate(1, 0, 0)).Hourly().Values() {
			if units.NanoTesla(v) <= units.StormThreshold {
				n++
			}
		}
		return n
	}
	// Average over ±1 year around each phase to smooth Poisson noise.
	sum := func(years ...int) int {
		total := 0
		for _, y := range years {
			total += stormHours(y-1) + stormHours(y) + stormHours(y+1)
		}
		return total
	}
	maxima := sum(1990, 2001, 2012)
	minima := sum(1996, 2007, 2018)
	if maxima <= minima {
		t.Errorf("solar-maximum storm hours (%d) not above solar-minimum (%d)", maxima, minima)
	}
	if minima == 0 {
		t.Error("solar minima completely storm-free; modulation floor broken")
	}
}
