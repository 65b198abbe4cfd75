package core

import (
	"context"
	"math"
	"testing"
	"time"

	"cosmicdance/internal/constellation"
	"cosmicdance/internal/dst"
	"cosmicdance/internal/tle"
)

var c0 = time.Date(2023, 1, 1, 0, 0, 0, 0, time.UTC)

// quietWeather returns an all-quiet index of the given days.
func quietWeather(days int) *dst.Index {
	vals := make([]float64, days*24)
	for i := range vals {
		vals[i] = -10
	}
	return dst.FromValues(c0, vals)
}

// addObs feeds one observation through the sample ingest path.
func addObs(b *Builder, cat int, at time.Time, alt, bstar float64) {
	b.AddSamples([]constellation.Sample{{
		Catalog: int32(cat), Epoch: at.Unix(), AltKm: float32(alt), BStar: float32(bstar), Inclination: 53,
	}})
}

// steadyTrack adds n twice-daily observations at a constant altitude.
func steadyTrack(b *Builder, cat int, from time.Time, days int, alt float64) {
	for i := 0; i < days*2; i++ {
		addObs(b, cat, from.Add(time.Duration(i)*12*time.Hour), alt, 4e-4)
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := NewBuilder(DefaultConfig(), nil).Build(context.Background()); err == nil {
		t.Error("nil weather accepted")
	}
	if _, err := NewBuilder(DefaultConfig(), quietWeather(1)).Build(context.Background()); err == nil {
		t.Error("no observations accepted")
	}
	b := NewBuilder(DefaultConfig(), quietWeather(10))
	addObs(b, 1, c0, 40000, 0) // only a gross error: nothing survives
	if _, err := b.Build(context.Background()); err == nil {
		t.Error("all-removed archive accepted")
	}
}

func TestGrossErrorRemoval(t *testing.T) {
	b := NewBuilder(DefaultConfig(), quietWeather(30))
	steadyTrack(b, 1, c0, 30, 550)
	addObs(b, 1, c0.Add(100*time.Hour), 39000, 4e-4) // tracking error
	addObs(b, 1, c0.Add(101*time.Hour), 50, 4e-4)    // absurd low fit
	d, err := b.Build(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if d.Cleaning().GrossErrors != 2 {
		t.Errorf("gross errors = %d, want 2", d.Cleaning().GrossErrors)
	}
	raw, err := d.RawAltitudeCDF()
	if err != nil {
		t.Fatal(err)
	}
	clean, err := d.CleanAltitudeCDF()
	if err != nil {
		t.Fatal(err)
	}
	if raw.Max() < 39000 {
		t.Errorf("raw CDF max = %v, want the 39,000 km tail visible", raw.Max())
	}
	if clean.Max() > 650 {
		t.Errorf("clean CDF max = %v, want <= 650", clean.Max())
	}
	if raw.N() != d.Cleaning().TotalObservations {
		t.Errorf("raw N = %d, total = %d", raw.N(), d.Cleaning().TotalObservations)
	}
}

func TestOrbitRaisingPrefixRemoved(t *testing.T) {
	b := NewBuilder(DefaultConfig(), quietWeather(120))
	// 20 days raising from 350 to 550, then 80 days on station.
	at := c0
	for alt := 350.0; alt < 550; alt += 5 {
		addObs(b, 7, at, alt, 4e-4)
		at = at.Add(12 * time.Hour)
	}
	steadyTrack(b, 7, at, 80, 550)
	d, err := b.Build(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	tr := d.Track(7)
	if tr == nil {
		t.Fatal("track missing")
	}
	if tr.RaisingRemoved == 0 {
		t.Error("no raising points removed")
	}
	for _, p := range tr.Points {
		if p.AltKm < 540 {
			t.Fatalf("raising point %v survived cleaning", p.AltKm)
		}
	}
	if math.Abs(tr.OperationalAltKm-550) > 1 {
		t.Errorf("operational altitude = %v, want ~550", tr.OperationalAltKm)
	}
}

func TestNonOperationalTrackExcluded(t *testing.T) {
	b := NewBuilder(DefaultConfig(), quietWeather(60))
	steadyTrack(b, 1, c0, 60, 550)
	// A satellite lost during staging never exceeds 360 km.
	steadyTrack(b, 2, c0, 10, 355)
	d, err := b.Build(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if d.Track(2) != nil {
		t.Error("staging-lost satellite has a track")
	}
	if d.Cleaning().NonOperational != 1 {
		t.Errorf("non-operational = %d, want 1", d.Cleaning().NonOperational)
	}
	if d.Track(1) == nil {
		t.Error("operational satellite missing")
	}
}

func TestOperationalAltitudeRobustToDecayTail(t *testing.T) {
	b := NewBuilder(DefaultConfig(), quietWeather(200))
	// 100 days on station, then a long decay to 200 km.
	steadyTrack(b, 3, c0, 100, 550)
	at := c0.Add(100 * 24 * time.Hour)
	for alt := 550.0; alt > 200; alt -= 4 {
		addObs(b, 3, at, alt, 1e-3)
		at = at.Add(12 * time.Hour)
	}
	d, err := b.Build(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	tr := d.Track(3)
	if math.Abs(tr.OperationalAltKm-550) > 2 {
		t.Errorf("operational altitude = %v, decay tail skewed it", tr.OperationalAltKm)
	}
	// The decay tail itself must be retained (it is the phenomenon under
	// study), only the raising prefix is cut.
	last := tr.Points[len(tr.Points)-1]
	if last.AltKm > 250 {
		t.Errorf("decay tail trimmed: last point %v km", last.AltKm)
	}
}

func TestTrackAtWindowSpan(t *testing.T) {
	b := NewBuilder(DefaultConfig(), quietWeather(30))
	steadyTrack(b, 4, c0, 30, 550)
	d, err := b.Build(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	tr := d.Track(4)
	if _, ok := tr.At(c0.Add(-time.Hour)); ok {
		t.Error("At before first point should fail")
	}
	p, ok := tr.At(c0.Add(13 * time.Hour))
	if !ok || p.Epoch != c0.Add(12*time.Hour).Unix() {
		t.Errorf("At = %+v, %v", p, ok)
	}
	w := tr.Window(c0.Add(24*time.Hour), c0.Add(48*time.Hour))
	if len(w) != 3 {
		t.Errorf("window = %d points, want 3", len(w))
	}
	first, last, ok := tr.Span()
	if !ok || !first.Equal(c0) || last.Before(first) {
		t.Errorf("span = %v..%v, %v", first, last, ok)
	}
	var empty Track
	if _, _, ok := empty.Span(); ok {
		t.Error("empty track has a span")
	}
}

func TestAddTLEsPathMatchesSamples(t *testing.T) {
	// The TLE ingest path must agree with the compact sample path.
	weather := quietWeather(30)
	samples := make([]constellation.Sample, 0, 40)
	for i := 0; i < 40; i++ {
		samples = append(samples, constellation.Sample{
			Catalog: 9, Epoch: c0.Add(time.Duration(i) * 12 * time.Hour).Unix(),
			AltKm: 550.25, BStar: 4.5e-4, Inclination: 53.01, Eccentricity: 0.0001,
		})
	}
	b1 := NewBuilder(DefaultConfig(), weather)
	b1.AddSamples(samples)
	d1, err := b1.Build(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	b2 := NewBuilder(DefaultConfig(), weather)
	for _, s := range samples {
		tl, err := s.TLE("X")
		if err != nil {
			t.Fatal(err)
		}
		b2.AddTLEs([]*tle.TLE{tl})
	}
	d2, err := b2.Build(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	tr1, tr2 := d1.Track(9), d2.Track(9)
	if tr1 == nil || tr2 == nil {
		t.Fatal("track missing on one path")
	}
	if len(tr1.Points) != len(tr2.Points) {
		t.Fatalf("point counts differ: %d vs %d", len(tr1.Points), len(tr2.Points))
	}
	for i := range tr1.Points {
		a, b := tr1.Points[i], tr2.Points[i]
		if a.Epoch != b.Epoch {
			t.Fatalf("epoch %d differs", i)
		}
		// The TLE path round-trips altitude through mean motion; allow the
		// conversion noise.
		if math.Abs(float64(a.AltKm-b.AltKm)) > 0.01 {
			t.Fatalf("altitude %d differs: %v vs %v", i, a.AltKm, b.AltKm)
		}
	}
	if math.Abs(tr1.OperationalAltKm-tr2.OperationalAltKm) > 0.05 {
		t.Fatalf("operational altitude differs: %v vs %v", tr1.OperationalAltKm, tr2.OperationalAltKm)
	}
}

// TestCleaningInvariants checks the structural guarantees of Build over
// randomized archives: cleaned points are a subset of raw observations, no
// cleaned point violates the sanity cut, and every track is epoch-ascending
// with its raising prefix gone.
func TestCleaningInvariants(t *testing.T) {
	weather := quietWeather(120)
	for trial := 0; trial < 10; trial++ {
		cfg := constellation.DefaultConfig()
		cfg.Seed = int64(trial + 100)
		cfg.Start = c0
		cfg.Hours = 120 * 24
		cfg.InitialFleet = 10
		cfg.Launches = []constellation.Launch{{At: c0.Add(24 * time.Hour), Shell: 0, Count: 10}}
		cfg.GrossErrorProb = 0.005
		res, err := constellation.Run(context.Background(), cfg, dst.FromValues(c0, make([]float64, cfg.Hours)))
		if err != nil {
			t.Fatal(err)
		}
		b := NewBuilder(DefaultConfig(), weather)
		b.AddSamples(res.Samples)
		d, err := b.Build(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		cl := d.Cleaning()
		if cl.TotalObservations != len(res.Samples) {
			t.Fatalf("trial %d: total %d vs %d", trial, cl.TotalObservations, len(res.Samples))
		}
		cleanCount := 0
		for _, tr := range d.Tracks() {
			cleanCount += len(tr.Points)
			for i, p := range tr.Points {
				if float64(p.AltKm) > d.Config().MaxValidAltKm || float64(p.AltKm) < d.Config().MinValidAltKm {
					t.Fatalf("trial %d: cleaned point at %v km", trial, p.AltKm)
				}
				if i > 0 && p.Epoch < tr.Points[i-1].Epoch {
					t.Fatalf("trial %d: track %d not ascending", trial, tr.Catalog)
				}
			}
			// The first surviving point is at (or above) the raising margin.
			if float64(tr.Points[0].AltKm) < tr.OperationalAltKm-d.Config().RaisingMarginKm {
				t.Fatalf("trial %d: raising prefix survived (%.1f vs op %.1f)",
					trial, tr.Points[0].AltKm, tr.OperationalAltKm)
			}
		}
		if cleanCount+cl.GrossErrors+cl.RaisingRemoved > cl.TotalObservations {
			t.Fatalf("trial %d: accounting: clean %d + gross %d + raising %d > total %d",
				trial, cleanCount, cl.GrossErrors, cl.RaisingRemoved, cl.TotalObservations)
		}
	}
}

func TestDuplicateObservationsDropped(t *testing.T) {
	// A clean build and a build with every observation duplicated (a flaky
	// archive replaying element sets) must produce identical tracks.
	clean := NewBuilder(DefaultConfig(), quietWeather(30))
	steadyTrack(clean, 1, c0, 30, 550)
	want, err := clean.Build(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	dup := NewBuilder(DefaultConfig(), quietWeather(30))
	steadyTrack(dup, 1, c0, 30, 550)
	steadyTrack(dup, 1, c0, 30, 550)
	got, err := dup.Build(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got.Cleaning().Duplicates != 60 {
		t.Fatalf("Duplicates = %d, want 60", got.Cleaning().Duplicates)
	}
	wt, gt := want.Tracks(), got.Tracks()
	if len(wt) != 1 || len(gt) != 1 || len(wt[0].Points) != len(gt[0].Points) {
		t.Fatalf("tracks: want %d pts, got %d pts", len(wt[0].Points), len(gt[0].Points))
	}
	for i := range wt[0].Points {
		if wt[0].Points[i] != gt[0].Points[i] {
			t.Fatalf("point %d differs: %+v vs %+v", i, wt[0].Points[i], gt[0].Points[i])
		}
	}
	if want.Cleaning().Duplicates != 0 {
		t.Fatalf("clean build counted %d duplicates", want.Cleaning().Duplicates)
	}
}

func TestNewDatasetFromTLEs(t *testing.T) {
	var sets []*tle.TLE
	for i := 0; i < 60; i++ {
		s := constellation.Sample{
			Catalog: 44713, Epoch: c0.Add(time.Duration(i) * 12 * time.Hour).Unix(),
			AltKm: 550, BStar: 4e-4, Inclination: 53,
		}
		set, err := s.TLE("STARLINK-TEST")
		if err != nil {
			t.Fatal(err)
		}
		sets = append(sets, set)
	}
	b := NewBuilder(DefaultConfig(), quietWeather(30))
	b.AddTLEs(sets)
	d, err := b.Build(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Tracks()) != 1 || d.Tracks()[0].Catalog != 44713 {
		t.Fatalf("tracks = %+v", d.Tracks())
	}
}
