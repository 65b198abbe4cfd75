package spaceweather

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"cosmicdance/internal/units"
)

var g0 = time.Date(2023, 1, 1, 0, 0, 0, 0, time.UTC)

func TestGenerateValidatesConfig(t *testing.T) {
	if _, err := Generate(Config{Hours: 0}); err == nil {
		t.Error("Hours=0 accepted")
	}
	if _, err := Generate(Config{Hours: 10, QuietRho: 1.0}); err == nil {
		t.Error("QuietRho=1 accepted")
	}
	if _, err := Generate(Config{Hours: 10, QuietRho: -0.1}); err == nil {
		t.Error("negative QuietRho accepted")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{Start: g0, Hours: 24 * 30, Seed: 5, QuietMean: -11, QuietStd: 6, QuietRho: 0.8, MildPerYear: 20, MildExcessMean: 12}
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	av, bv := a.Values(), b.Values()
	for i := range av {
		if av[i] != bv[i] {
			t.Fatalf("divergence at hour %d: %v vs %v", i, av[i], bv[i])
		}
	}
	cfg.Seed = 6
	c, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i, v := range c.Values() {
		if v != av[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical series")
	}
}

func TestQuietBackgroundStatistics(t *testing.T) {
	cfg := Config{Start: g0, Hours: 24 * 365 * 4, Seed: 1, QuietMean: -11, QuietStd: 7, QuietRho: 0.9}
	x, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	vals := x.Values()
	var sum, ss float64
	for _, v := range vals {
		sum += v
	}
	mean := sum / float64(len(vals))
	for _, v := range vals {
		ss += (v - mean) * (v - mean)
	}
	sd := math.Sqrt(ss / float64(len(vals)))
	if math.Abs(mean-(-11)) > 1 {
		t.Errorf("background mean = %v, want ~-11", mean)
	}
	if math.Abs(sd-7) > 1 {
		t.Errorf("background stationary sd = %v, want ~7", sd)
	}
	// Without storms the background should essentially never reach storm
	// levels.
	storms := x.Storms(units.StormThreshold)
	if len(storms) > 5 {
		t.Errorf("quiet background produced %d storm runs", len(storms))
	}
}

func TestInjectedStormProfile(t *testing.T) {
	peakAt := g0.Add(100 * time.Hour)
	cfg := Config{
		Start: g0, Hours: 300, Seed: 3,
		QuietMean: -11, QuietStd: 0.01, QuietRho: 0.5, // near-silent background
		Storms: []StormSpec{{Peak: -150, PeakAt: peakAt, MainPhaseHours: 4, RecoveryTau: 10, Commencement: 20}},
	}
	x, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	peak, at := x.Min()
	if !at.Equal(peakAt) {
		t.Errorf("peak at %v, want %v", at, peakAt)
	}
	if peak > -150 || peak < -170 {
		t.Errorf("peak = %v, want ~-161 (storm + background)", peak)
	}
	// Sudden commencement bump before onset.
	sc, _ := x.At(peakAt.Add(-5 * time.Hour))
	if sc < units.NanoTesla(-11) {
		t.Errorf("commencement hour = %v, want positive bump above background", sc)
	}
	// Main phase is monotone down.
	prev, _ := x.At(peakAt.Add(-4 * time.Hour))
	for k := -3; k <= 0; k++ {
		v, _ := x.At(peakAt.Add(time.Duration(k) * time.Hour))
		if v >= prev {
			t.Errorf("main phase not monotone at k=%d: %v >= %v", k, v, prev)
		}
		prev = v
	}
	// Recovery is monotone up (exponential), reaching half depth within
	// tau·ln2 ≈ 7 hours.
	half, _ := x.At(peakAt.Add(7 * time.Hour))
	if float64(half) > -11-75*0.9 && float64(half) < -11-75*1.1 {
		// within 10% of half depth: good
	} else if half < -100 {
		t.Errorf("recovery too slow: %v at +7h", half)
	}
	// Fully recovered well after the storm.
	late, _ := x.At(peakAt.Add(80 * time.Hour))
	if late < -20 {
		t.Errorf("not recovered at +80h: %v", late)
	}
}

func TestStormAtSeriesEdgeIsSafe(t *testing.T) {
	// Storms whose profile extends past either end must not panic.
	for _, peakAt := range []time.Time{g0.Add(-5 * time.Hour), g0, g0.Add(23 * time.Hour), g0.Add(500 * time.Hour)} {
		cfg := Config{
			Start: g0, Hours: 24, Seed: 1, QuietStd: 1, QuietRho: 0.5, QuietMean: -10,
			Storms: []StormSpec{{Peak: -300, PeakAt: peakAt, MainPhaseHours: 3, RecoveryTau: 12}},
		}
		if _, err := Generate(cfg); err != nil {
			t.Fatalf("edge storm at %v: %v", peakAt, err)
		}
	}
}

func TestOverridesPinValues(t *testing.T) {
	at := g0.Add(10 * time.Hour)
	cfg := Config{
		Start: g0, Hours: 24, Seed: 1, QuietStd: 5, QuietRho: 0.5, QuietMean: -10,
		Overrides: []Override{
			{At: at, Value: -213},
			{At: g0.Add(-time.Hour), Value: -999},      // outside: ignored
			{At: g0.Add(100 * time.Hour), Value: -999}, // outside: ignored
		},
	}
	x, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := x.At(at); v != -213 {
		t.Errorf("override = %v, want -213", v)
	}
	min, _ := x.Min()
	if min != -213 {
		t.Errorf("min = %v; out-of-range overrides must be ignored", min)
	}
}

func TestZeroOrPositivePeakStormIgnored(t *testing.T) {
	cfg := Config{
		Start: g0, Hours: 48, Seed: 9, QuietStd: 0.01, QuietRho: 0.1, QuietMean: -10,
		Storms: []StormSpec{{Peak: 50, PeakAt: g0.Add(10 * time.Hour)}},
	}
	x, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if min, _ := x.Min(); min < -15 {
		t.Errorf("positive-peak storm altered series: min %v", min)
	}
}

func TestCycleWeightModulation(t *testing.T) {
	cfg := Config{CycleAmplitude: 0.8, CyclePeak: g0}
	atMax := cycleWeight(cfg, g0)
	if math.Abs(atMax-1) > 1e-9 {
		t.Errorf("weight at cycle peak = %v, want 1", atMax)
	}
	// Solar minimum is 5.5 years after maximum.
	atMin := cycleWeight(cfg, g0.Add(time.Duration(5.5*hoursPerYear)*time.Hour))
	if atMin >= atMax || atMin < 0.05 {
		t.Errorf("weight at cycle minimum = %v", atMin)
	}
	// No modulation configured: constant 1.
	if w := cycleWeight(Config{}, g0); w != 1 {
		t.Errorf("unmodulated weight = %v", w)
	}
}

func TestPoissonMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for _, mean := range []float64{0.5, 4, 25, 100} {
		n := 2000
		var sum float64
		for i := 0; i < n; i++ {
			sum += float64(poisson(rng, mean))
		}
		got := sum / float64(n)
		if math.Abs(got-mean) > mean*0.15+0.2 {
			t.Errorf("poisson mean %v: sample mean %v", mean, got)
		}
	}
	if poisson(rand.New(rand.NewSource(1)), 0) != 0 {
		t.Error("poisson(0) != 0")
	}
	if poisson(rand.New(rand.NewSource(1)), -3) != 0 {
		t.Error("poisson(negative) != 0")
	}
}
