package core

import (
	"context"
	"math"
	"testing"
	"time"

	"cosmicdance/internal/constellation"
	"cosmicdance/internal/dst"
)

// diffDatasetState fails the test unless a and b carry identical build
// state: stats, tracks, and raw altitudes.
func diffDatasetState(t *testing.T, label string, a, b *Dataset) {
	t.Helper()
	sa, sb := a.Partial(), b.Partial()
	if sa.Stats != sb.Stats {
		t.Fatalf("%s: stats differ: %+v vs %+v", label, sa.Stats, sb.Stats)
	}
	if len(sa.Tracks) != len(sb.Tracks) {
		t.Fatalf("%s: track counts differ: %d vs %d", label, len(sa.Tracks), len(sb.Tracks))
	}
	for i := range sa.Tracks {
		ta, tb := sa.Tracks[i], sb.Tracks[i]
		if ta.Catalog != tb.Catalog || ta.OperationalAltKm != tb.OperationalAltKm || ta.RaisingRemoved != tb.RaisingRemoved {
			t.Fatalf("%s: track %d header differs: %+v vs %+v", label, i,
				[3]any{ta.Catalog, ta.OperationalAltKm, ta.RaisingRemoved},
				[3]any{tb.Catalog, tb.OperationalAltKm, tb.RaisingRemoved})
		}
		if len(ta.Points) != len(tb.Points) {
			t.Fatalf("%s: track %d point counts differ: %d vs %d", label, i, len(ta.Points), len(tb.Points))
		}
		for j := range ta.Points {
			if ta.Points[j] != tb.Points[j] {
				t.Fatalf("%s: track %d point %d differs: %+v vs %+v", label, i, j, ta.Points[j], tb.Points[j])
			}
		}
	}
	diffF64s(t, label+": rawAlts", sa.RawAlts, sb.RawAlts)
}

func diffF64s(t *testing.T, label string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: lengths differ: %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s: value %d differs: %v vs %v", label, i, a[i], b[i])
		}
	}
}

// TestChunkedBuildEquivalence proves the partial path is the monolithic
// path: simulate a fleet, build once from the full archive, build again from
// per-chunk partials, and require identical datasets at several chunk sizes.
func TestChunkedBuildEquivalence(t *testing.T) {
	start := c0
	cfg := constellation.MegaFleet(7, 260, start, 12)
	cfg.Scripted = []constellation.ScriptedEvent{
		{Catalog: 44720, At: start.Add(80 * time.Hour), Action: constellation.ScriptFail, DragFactor: 1.3},
	}
	weather := quietWeather(12)
	coreCfg := DefaultConfig()
	coreCfg.MaxValidAltKm = 1400 // keep the 1200 km OneWeb shell

	full, err := constellation.Run(context.Background(), cfg, weather)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilder(coreCfg, weather)
	b.AddSamples(full.Samples)
	want, err := b.Build(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	for _, chunkSize := range []int{32, 100, 512} {
		plan, err := constellation.PlanChunks(cfg, chunkSize)
		if err != nil {
			t.Fatal(err)
		}
		asm := NewPartialAssembler(coreCfg, weather)
		for i := 0; i < plan.NumChunks(); i++ {
			r, err := plan.RunChunk(context.Background(), i, weather)
			if err != nil {
				t.Fatal(err)
			}
			p, err := BuildChunkPartial(context.Background(), coreCfg, r.Samples)
			if err != nil {
				t.Fatal(err)
			}
			if !RawAltsCanonical(p.RawAlts) {
				t.Fatalf("chunk %d: partial rawAlts not canonical", i)
			}
			if err := asm.Add(p); err != nil {
				t.Fatal(err)
			}
		}
		got, err := asm.Finish()
		if err != nil {
			t.Fatal(err)
		}
		diffDatasetState(t, "chunked build", want, got)
	}
}

// TestAssemblerOrderEnforced proves out-of-order partials are rejected.
func TestAssemblerOrderEnforced(t *testing.T) {
	weather := quietWeather(30)
	mk := func(cat int) *ChunkPartial {
		b := NewBuilder(DefaultConfig(), weather)
		steadyTrack(b, cat, c0, 20, 550)
		p, err := buildPartial(context.Background(), b.cfg, b.obs)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	asm := NewPartialAssembler(DefaultConfig(), weather)
	if err := asm.Add(mk(500)); err != nil {
		t.Fatal(err)
	}
	if err := asm.Add(mk(400)); err == nil {
		t.Error("out-of-order partial accepted")
	}
	if err := asm.Add(mk(500)); err == nil {
		t.Error("duplicate-catalog partial accepted")
	}
	if err := asm.Add(mk(600)); err != nil {
		t.Errorf("in-order partial rejected: %v", err)
	}
}

// TestAssemblerEmptyCases covers the validation paths Build used to own.
func TestAssemblerEmptyCases(t *testing.T) {
	if _, err := NewPartialAssembler(DefaultConfig(), nil).Finish(); err == nil {
		t.Error("nil weather accepted")
	}
	if _, err := NewPartialAssembler(DefaultConfig(), quietWeather(10)).Finish(); err == nil {
		t.Error("no observations accepted")
	}
	// Observations present but nothing survives cleaning.
	asm := NewPartialAssembler(DefaultConfig(), quietWeather(10))
	b := NewBuilder(DefaultConfig(), quietWeather(10))
	addObs(b, 900, c0, 90, 4e-4) // below MinValidAltKm: gross error
	p, err := buildPartial(context.Background(), b.cfg, b.obs)
	if err != nil {
		t.Fatal(err)
	}
	if err := asm.Add(p); err != nil {
		t.Fatal(err)
	}
	if _, err := asm.Finish(); err == nil {
		t.Error("no surviving tracks accepted")
	}
	// An empty partial folds in as a no-op.
	asm2 := NewPartialAssembler(DefaultConfig(), quietWeather(10))
	empty, err := BuildChunkPartial(context.Background(), DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := asm2.Add(empty); err != nil {
		t.Errorf("empty partial rejected: %v", err)
	}
}

// TestCanonicalRawAltsOrder pins the canonical order: IEEE total order,
// bit-exact, including the NaN/negative/zero corners.
func TestCanonicalRawAltsOrder(t *testing.T) {
	alts := []float64{550, math.NaN(), -5, 0, math.Inf(1), 120, math.Inf(-1), 40000, 550}
	canonicalizeRawAlts(alts)
	if !RawAltsCanonical(alts) {
		t.Fatalf("canonicalize did not produce canonical order: %v", alts)
	}
	for i := 1; i < len(alts); i++ {
		a, b := alts[i-1], alts[i]
		if !math.IsNaN(a) && !math.IsNaN(b) && a > b {
			t.Fatalf("numeric order broken at %d: %v > %v", i, a, b)
		}
	}
	if !RawAltsCanonical(nil) || !RawAltsCanonical([]float64{1}) {
		t.Error("trivial slices not canonical")
	}
	if RawAltsCanonical([]float64{2, 1}) {
		t.Error("descending slice reported canonical")
	}
}

// TestExportedTrackHelpersMatchDatasetMethods proves the free functions the
// streaming pipeline uses agree with the Dataset methods.
func TestExportedTrackHelpersMatchDatasetMethods(t *testing.T) {
	cfg := constellation.MegaFleet(5, 300, c0, 30)
	vals := make([]float64, cfg.Hours)
	for i := range vals {
		vals[i] = -10
	}
	// One deep storm mid-window.
	for k := 0; k < 30; k++ {
		vals[cfg.Hours/2+k] = -280 + 5*float64(k)
	}
	idx := dst.FromValues(c0, vals)
	res, err := constellation.Run(context.Background(), cfg, idx)
	if err != nil {
		t.Fatal(err)
	}
	coreCfg := DefaultConfig()
	coreCfg.MaxValidAltKm = 1400
	b := NewBuilder(coreCfg, idx)
	b.AddSamples(res.Samples)
	d, err := b.Build(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	evs := d.Events(-100, 2, 0)
	if free := WeatherEvents(d.Weather(), -100, 2, 0); len(free) != len(evs) {
		t.Fatalf("WeatherEvents: %d events, Dataset.Events: %d", len(free), len(evs))
	}
	pevs, err := d.EventsAbovePercentile(95, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	pfree, err := WeatherEventsAbovePercentile(d.Weather(), 95, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pevs) != len(pfree) {
		t.Fatalf("WeatherEventsAbovePercentile: %d vs %d", len(pfree), len(pevs))
	}

	onsets := d.DecayOnsets(15)
	var freeOnsets []DecayOnset
	for _, tr := range d.Tracks() {
		if on, ok := TrackDecayOnset(tr, d.Config().DecayFilterKm, 15); ok {
			freeOnsets = append(freeOnsets, on)
		}
	}
	if len(onsets) != len(freeOnsets) {
		t.Fatalf("onsets: %d vs %d", len(freeOnsets), len(onsets))
	}
	for i := range onsets {
		if onsets[i] != freeOnsets[i] {
			t.Fatalf("onset %d differs: %+v vs %+v", i, onsets[i], freeOnsets[i])
		}
	}

	if len(evs) > 0 {
		devs := d.Associate(context.Background(), evs, 30)
		var freeDevs []Deviation
		for _, ev := range evs {
			for _, tr := range d.Tracks() {
				if dv, ok := AssociateTrack(d.Config(), ev, tr, 30); ok {
					freeDevs = append(freeDevs, dv)
				}
			}
		}
		if len(devs) != len(freeDevs) {
			t.Fatalf("deviations: %d vs %d", len(freeDevs), len(devs))
		}
		for i := range devs {
			if devs[i] != freeDevs[i] {
				t.Fatalf("deviation %d differs: %+v vs %+v", i, devs[i], freeDevs[i])
			}
		}
	}
}
