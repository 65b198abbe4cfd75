package constellation

import (
	"bytes"
	"context"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	"cosmicdance/internal/dst"
	"cosmicdance/internal/spaceweather"
	"cosmicdance/internal/units"
)

var simStart = time.Date(2023, 1, 1, 0, 0, 0, 0, time.UTC)

// quietIndex returns a storm-free Dst index covering hours h from simStart.
func quietIndex(hours int) *dst.Index {
	vals := make([]float64, hours)
	for i := range vals {
		vals[i] = -10
	}
	return dst.FromValues(simStart, vals)
}

// stormIndex returns an index with one storm of the given peak at hour
// peakHour (flat -10 elsewhere, storm spans ±6 hours linearly).
func stormIndex(hours, peakHour int, peak float64) *dst.Index {
	vals := make([]float64, hours)
	for i := range vals {
		vals[i] = -10
	}
	for k := -6; k <= 6; k++ {
		i := peakHour + k
		if i < 0 || i >= hours {
			continue
		}
		f := 1 - float64(abs(k))/7
		vals[i] = -10 + (peak+10)*f
	}
	return dst.FromValues(simStart, vals)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// smallConfig is a one-launch configuration for focused behavioural tests.
func smallConfig(hours int) Config {
	cfg := DefaultConfig()
	cfg.Start = simStart
	cfg.Hours = hours
	cfg.Launches = []Launch{{At: simStart, Shell: 0, Count: 10}}
	cfg.GrossErrorProb = 0
	cfg.DecommissionPerYear = 0
	return cfg
}

func TestRunValidation(t *testing.T) {
	cfg := smallConfig(0)
	if _, err := Run(context.Background(), cfg, quietIndex(10)); err == nil {
		t.Error("Hours=0 accepted")
	}
	cfg = smallConfig(10)
	cfg.Shells = nil
	if _, err := Run(context.Background(), cfg, quietIndex(10)); err == nil {
		t.Error("no shells accepted")
	}
	cfg = smallConfig(10)
	cfg.MeanTLEIntervalHours = 0
	if _, err := Run(context.Background(), cfg, quietIndex(10)); err == nil {
		t.Error("zero TLE interval accepted")
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := smallConfig(24 * 30)
	a, err := Run(context.Background(), cfg, quietIndex(cfg.Hours))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), cfg, quietIndex(cfg.Hours))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Samples) != len(b.Samples) {
		t.Fatalf("sample counts differ: %d vs %d", len(a.Samples), len(b.Samples))
	}
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			t.Fatalf("sample %d differs", i)
		}
	}
}

func TestLifecycleStagingToOperational(t *testing.T) {
	// 10 satellites launched at t0 should hold staging, raise, and then hold
	// the 550 km target.
	days := 200
	cfg := smallConfig(days * 24)
	res, err := Run(context.Background(), cfg, quietIndex(cfg.Hours))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sats) != 10 {
		t.Fatalf("sats = %d", len(res.Sats))
	}
	series := res.GroupByCatalog()
	if len(series) != 10 {
		t.Fatalf("tracked series = %d", len(series))
	}
	for _, ss := range series {
		// Early samples near staging altitude.
		early := ss.Samples[0]
		if early.AltKm < 330 || early.AltKm > 370 {
			t.Errorf("sat %d first sample at %.1f km, want near 350", ss.Catalog, early.AltKm)
		}
		// Final samples on station.
		last := ss.Samples[len(ss.Samples)-1]
		if last.AltKm < 545 || last.AltKm > 552 {
			t.Errorf("sat %d final altitude %.1f km, want ~550", ss.Catalog, last.AltKm)
		}
	}
	for _, info := range res.Sats {
		if info.Fate != PhaseOperational {
			t.Errorf("sat %d fate = %v, want operational", info.Catalog, info.Fate)
		}
	}
}

func TestStationKeepingHoldsDeadband(t *testing.T) {
	cfg := smallConfig(24 * 300)
	res, err := Run(context.Background(), cfg, quietIndex(cfg.Hours))
	if err != nil {
		t.Fatal(err)
	}
	// After day 180 everyone is on station; altitude must stay within the
	// deadband (+ noise).
	cutoff := simStart.Add(180 * 24 * time.Hour).Unix()
	for _, s := range res.Samples {
		if s.Epoch < cutoff {
			continue
		}
		if s.AltKm < float32(550-cfg.DeadbandKm-0.5) || s.AltKm > 551 {
			t.Fatalf("station-keeping breached: %.2f km at %v", s.AltKm, s.EpochTime())
		}
	}
}

func TestScriptedFailDecaysAndReenters(t *testing.T) {
	cfg := smallConfig(24 * 365)
	first := cfg.FirstCatalog
	cfg.Scripted = []ScriptedEvent{{
		Catalog: first, At: simStart.Add(200 * 24 * time.Hour), Action: ScriptFail,
	}}
	res, err := Run(context.Background(), cfg, quietIndex(cfg.Hours))
	if err != nil {
		t.Fatal(err)
	}
	info, ok := res.Info(first)
	if !ok {
		t.Fatal("scripted sat missing")
	}
	if info.Fate != PhaseReentered {
		t.Fatalf("fate = %v, want reentered", info.Fate)
	}
	// Re-entry from 550 km at ~4-6 km/day takes one to three months.
	decayDuration := info.FateAt.Sub(simStart.Add(200 * 24 * time.Hour))
	if decayDuration < 20*24*time.Hour || decayDuration > 120*24*time.Hour {
		t.Errorf("decay took %v", decayDuration)
	}
	// Other satellites are unaffected.
	for _, s := range res.Sats {
		if s.Catalog != first && s.Fate != PhaseOperational {
			t.Errorf("sat %d fate = %v", s.Catalog, s.Fate)
		}
	}
}

func TestScriptedSafeModeDipsAndRecovers(t *testing.T) {
	cfg := smallConfig(24 * 365)
	first := cfg.FirstCatalog
	eventAt := simStart.Add(250 * 24 * time.Hour)
	cfg.Scripted = []ScriptedEvent{{
		Catalog: first, At: eventAt, Action: ScriptSafeMode, DurationDays: 15, DragFactor: 3,
	}}
	res, err := Run(context.Background(), cfg, quietIndex(cfg.Hours))
	if err != nil {
		t.Fatal(err)
	}
	series := res.Series(first)
	// Altitude at the event, minimum afterwards, and at end of run.
	var before, minAfter, end float32 = 0, 1e9, 0
	for _, s := range series {
		at := s.EpochTime()
		switch {
		case at.Before(eventAt):
			before = s.AltKm
		case at.After(eventAt) && at.Before(eventAt.Add(30*24*time.Hour)):
			if s.AltKm < minAfter {
				minAfter = s.AltKm
			}
		}
		end = s.AltKm
	}
	dip := before - minAfter
	if dip < 2 || dip > 15 {
		t.Errorf("safe-mode dip = %.2f km, want a few km", dip)
	}
	if end < 545 {
		t.Errorf("did not recover: final altitude %.1f km", end)
	}
	info, _ := res.Info(first)
	if info.Fate != PhaseOperational {
		t.Errorf("fate = %v, want operational after recovery", info.Fate)
	}
}

func TestStormTriggersSafeModes(t *testing.T) {
	// With an aggressive probability, a severe storm must push part of the
	// fleet into safe mode and dip their altitudes.
	days := 120
	cfg := DefaultConfig()
	cfg.Start = simStart
	cfg.Hours = days * 24
	cfg.InitialFleet = 200
	cfg.GrossErrorProb = 0
	cfg.DecommissionPerYear = 0
	cfg.SafeModeProbPerStormHour = 0.05
	cfg.FailProbPerStormHour = 0
	peakHour := 40 * 24
	weather := stormIndex(cfg.Hours, peakHour, -250)
	res, err := Run(context.Background(), cfg, weather)
	if err != nil {
		t.Fatal(err)
	}
	// Count satellites whose altitude dipped >2 km below target within 30
	// days after the storm.
	dipped := 0
	for _, ss := range res.GroupByCatalog() {
		info, _ := res.Info(ss.Catalog)
		minAlt := float32(1e9)
		for _, s := range ss.Samples {
			h := int(s.Epoch-simStart.Unix()) / 3600
			if h > peakHour && h < peakHour+30*24 {
				if s.AltKm < minAlt {
					minAlt = s.AltKm
				}
			}
		}
		if minAlt < float32(info.TargetAltKm)-2 {
			dipped++
		}
	}
	if dipped < 10 {
		t.Errorf("only %d satellites dipped after a severe storm", dipped)
	}
}

func TestProactiveMitigationPreventsLosses(t *testing.T) {
	base := DefaultConfig()
	base.Start = simStart
	base.Hours = 30 * 24
	base.InitialFleet = 400
	base.DecommissionPerYear = 0
	base.GrossErrorProb = 0
	base.SafeModeProbPerStormHour = 0.01
	base.FailProbPerStormHour = 0.002
	weather := stormIndex(base.Hours, 10*24, -412)

	unprotected := base
	unprotected.ProactiveDragMitigation = false
	ru, err := Run(context.Background(), unprotected, weather)
	if err != nil {
		t.Fatal(err)
	}
	protected := base
	protected.ProactiveDragMitigation = true
	rp, err := Run(context.Background(), protected, weather)
	if err != nil {
		t.Fatal(err)
	}
	losses := func(r *Result) int {
		n := 0
		for _, s := range r.Sats {
			if s.Fate == PhaseDeorbiting || s.Fate == PhaseReentered {
				n++
			}
		}
		return n
	}
	lu, lp := losses(ru), losses(rp)
	if lp != 0 {
		t.Errorf("proactive run lost %d satellites, want 0", lp)
	}
	if lu == 0 {
		t.Error("unprotected run lost no satellites; storm response model inert")
	}
}

func TestTLECadence(t *testing.T) {
	cfg := smallConfig(24 * 200)
	res, err := Run(context.Background(), cfg, quietIndex(cfg.Hours))
	if err != nil {
		t.Fatal(err)
	}
	var gaps []float64
	for _, ss := range res.GroupByCatalog() {
		for i := 1; i < len(ss.Samples); i++ {
			gaps = append(gaps, float64(ss.Samples[i].Epoch-ss.Samples[i-1].Epoch)/3600)
		}
	}
	if len(gaps) == 0 {
		t.Fatal("no refresh gaps")
	}
	var sum, maxGap float64
	for _, g := range gaps {
		sum += g
		if g > maxGap {
			maxGap = g
		}
	}
	mean := sum / float64(len(gaps))
	// Paper: refresh between <1 h and 154 h, average ~12 h.
	if mean < 8 || mean > 16 {
		t.Errorf("mean refresh = %.1f h, want ~12", mean)
	}
	if maxGap > 155 {
		t.Errorf("max refresh = %.1f h, want <= 154", maxGap)
	}
}

func TestGrossTrackingErrors(t *testing.T) {
	cfg := smallConfig(24 * 300)
	cfg.Launches[0].Count = 50
	cfg.GrossErrorProb = 0.01
	res, err := Run(context.Background(), cfg, quietIndex(cfg.Hours))
	if err != nil {
		t.Fatal(err)
	}
	wild := 0
	for _, s := range res.Samples {
		if s.AltKm > 650 {
			wild++
		}
	}
	if wild == 0 {
		t.Fatal("no gross tracking errors emitted")
	}
	frac := float64(wild) / float64(len(res.Samples))
	if frac < 0.002 || frac > 0.05 {
		t.Errorf("gross error fraction = %v, want ~0.01", frac)
	}
}

func TestTrackedCount(t *testing.T) {
	cfg := smallConfig(24 * 400)
	first := cfg.FirstCatalog
	cfg.Scripted = []ScriptedEvent{{Catalog: first, At: simStart.Add(100 * 24 * time.Hour), Action: ScriptFail}}
	res, err := Run(context.Background(), cfg, quietIndex(cfg.Hours))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.TrackedCount(simStart.Add(-time.Hour)); got != 0 {
		t.Errorf("tracked before launch = %d", got)
	}
	if got := res.TrackedCount(simStart.Add(24 * time.Hour)); got != 10 {
		t.Errorf("tracked day 1 = %d, want 10", got)
	}
	// After the scripted satellite re-enters (~2-3 months post-failure).
	if got := res.TrackedCount(simStart.Add(399 * 24 * time.Hour)); got != 9 {
		t.Errorf("tracked at end = %d, want 9", got)
	}
}

func TestRAANRegressionVisible(t *testing.T) {
	cfg := smallConfig(24 * 100)
	res, err := Run(context.Background(), cfg, quietIndex(cfg.Hours))
	if err != nil {
		t.Fatal(err)
	}
	// RAAN of a 53-degree satellite must drift westward a few degrees/day.
	ss := res.GroupByCatalog()[0]
	if len(ss.Samples) < 10 {
		t.Fatal("too few samples")
	}
	// Accumulate unwrapped sample-to-sample drift (gaps are far below a
	// full revolution of the node).
	var drift float64
	for i := 1; i < len(ss.Samples); i++ {
		d := float64(ss.Samples[i].RAAN) - float64(ss.Samples[i-1].RAAN)
		if d > 180 {
			d -= 360
		} else if d < -180 {
			d += 360
		}
		drift += d
	}
	a, b := ss.Samples[0], ss.Samples[len(ss.Samples)-1]
	days := float64(b.Epoch-a.Epoch) / 86400
	rate := drift / days
	if rate > -3 || rate < -7 {
		t.Errorf("RAAN rate = %.2f deg/day, want ~-5", rate)
	}
}

func TestSamplesAreValidTLEs(t *testing.T) {
	cfg := smallConfig(24 * 60)
	res, err := Run(context.Background(), cfg, quietIndex(cfg.Hours))
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range res.Samples {
		if i > 200 {
			break
		}
		tl, err := s.TLE("TEST")
		if err != nil {
			t.Fatalf("sample %d: %v", i, err)
		}
		if _, _, err := tl.Format(); err != nil {
			t.Fatalf("sample %d does not format: %v", i, err)
		}
		// The TLE altitude must round-trip the sampled altitude.
		if diff := float64(tl.Altitude()) - float64(s.AltKm); diff > 0.01 || diff < -0.01 {
			t.Fatalf("sample %d altitude drifted %.4f km through TLE", i, diff)
		}
	}
}

func TestStormIndexHelper(t *testing.T) {
	x := stormIndex(100, 50, -200)
	v, ok := x.At(simStart.Add(50 * time.Hour))
	if !ok || v != -200 {
		t.Errorf("peak = %v, %v", v, ok)
	}
	if v, _ := x.At(simStart); v != -10 {
		t.Errorf("background = %v", v)
	}
}

func TestPhaseString(t *testing.T) {
	want := map[Phase]string{
		PhaseStaging: "staging", PhaseRaising: "raising", PhaseOperational: "operational",
		PhaseSafeMode: "safe-mode", PhaseDeorbiting: "deorbiting", PhaseReentered: "reentered",
		Phase(99): "Phase(99)",
	}
	for p, s := range want {
		if p.String() != s {
			t.Errorf("%d.String() = %q", int(p), p.String())
		}
	}
}

func TestPaperFleetIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("full fleet run in -short mode")
	}
	weather, err := spaceweather.Generate(spaceweather.Paper2020to2024())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), PaperFleet(42), weather)
	if err != nil {
		t.Fatal(err)
	}
	// Scale model: ~2000 satellites by May 2024.
	if n := len(res.Sats); n < 1500 || n > 2500 {
		t.Errorf("fleet size = %d", n)
	}

	// The Feb 2022 staging incident: exactly 38 of the 49-satellite batch
	// re-enter.
	reentered, batch := 0, 0
	for _, s := range res.Sats {
		if s.LaunchedAt.Equal(Feb2022LaunchTime) {
			batch++
			if s.Fate == PhaseReentered {
				reentered++
			}
		}
	}
	if batch != 49 {
		t.Errorf("Feb 2022 batch = %d, want 49", batch)
	}
	if reentered != 38 {
		t.Errorf("Feb 2022 re-entries = %d, want 38", reentered)
	}

	// Fig 3 satellites exist, are on the 550 km shell, and decay after their
	// scripted storms.
	for _, cat := range []int{Fig3SatDragSpike, Fig3SatQuietDecay, Fig3SatSharpDrop} {
		info, ok := res.Info(cat)
		if !ok {
			t.Errorf("#%d missing", cat)
			continue
		}
		if info.TargetAltKm != 550 {
			t.Errorf("#%d target = %v, want 550", cat, info.TargetAltKm)
		}
		if info.Fate != PhaseReentered && info.Fate != PhaseDeorbiting {
			t.Errorf("#%d fate = %v, want decayed", cat, info.Fate)
		}
	}

	// #44943 loses ~150 km within ~5 weeks of the 3 Mar 2024 storm.
	var before, after float32
	for _, s := range res.Series(Fig3SatSharpDrop) {
		at := s.EpochTime()
		if at.Before(Fig3StormBTime) && s.AltKm < 600 {
			before = s.AltKm
		}
		if after == 0 && at.After(Fig3StormBTime.Add(35*24*time.Hour)) {
			after = s.AltKm
		}
	}
	drop := before - after
	if drop < 100 || drop > 220 {
		t.Errorf("#44943 dropped %.0f km in 5 weeks, want ~150", drop)
	}

	// Background fleet: the vast majority stays operational (the paper's
	// effects are tail phenomena).
	operational := 0
	for _, s := range res.Sats {
		if s.Fate == PhaseOperational {
			operational++
		}
	}
	if frac := float64(operational) / float64(len(res.Sats)); frac < 0.75 {
		t.Errorf("operational fraction = %.2f", frac)
	}
}

func TestMay2024FleetIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("full fleet run in -short mode")
	}
	weather, err := spaceweather.Generate(spaceweather.May2024())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), May2024Fleet(7), weather)
	if err != nil {
		t.Fatal(err)
	}
	// No satellite loss through the super-storm (Starlink's FCC comment).
	for _, s := range res.Sats {
		if s.Fate == PhaseReentered {
			t.Fatalf("satellite %d re-entered during May 2024", s.Catalog)
		}
	}
	endOfMonth := res.Start.Add(30 * 24 * time.Hour)
	if got := res.TrackedCount(endOfMonth); got != 5900 {
		t.Errorf("tracked at end = %d, want 5900", got)
	}
	// Drag (B*) around the storm peak is several times the quiet level.
	var quietSum, stormSum float64
	var quietN, stormN int
	for _, s := range res.Samples {
		at := s.EpochTime()
		switch {
		case at.Before(spaceweather.May2024Peak.Add(-48 * time.Hour)):
			quietSum += float64(s.BStar)
			quietN++
		case at.After(spaceweather.May2024Peak.Add(-2*time.Hour)) && at.Before(spaceweather.May2024Peak.Add(8*time.Hour)):
			stormSum += float64(s.BStar)
			stormN++
		}
	}
	if quietN == 0 || stormN == 0 {
		t.Fatal("missing samples around the storm")
	}
	ratio := (stormSum / float64(stormN)) / (quietSum / float64(quietN))
	if ratio < 3 || ratio > 7 {
		t.Errorf("storm/quiet B* ratio = %.2f, want ~5", ratio)
	}
}

var _ = units.StormThreshold // keep the import for helper clarity

// TestWriteTLEsMatchesFormat pins WriteTLEs' text across its batch
// boundaries: per expressible sample, its name line when names are asked
// for and Format's two lines; nothing for a sample Sample.TLE refuses.
func TestWriteTLEsMatchesFormat(t *testing.T) {
	cfg := smallConfig(24 * 150)
	res, err := Run(context.Background(), cfg, quietIndex(cfg.Hours))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) <= 2*tleBatch {
		t.Fatalf("%d samples fill no two batches", len(res.Samples))
	}
	res.Samples[tleBatch].AltKm = -10000 // inside the Earth: no mean motion
	names := map[int32]string{}
	for _, s := range res.Sats {
		names[int32(s.Catalog)] = s.Name
	}
	for _, withNames := range []bool{false, true} {
		var got bytes.Buffer
		if err := res.WriteTLEs(&got, withNames); err != nil {
			t.Fatal(err)
		}
		var want strings.Builder
		skipped := 0
		for _, s := range res.Samples {
			name := ""
			if withNames {
				name = names[s.Catalog]
			}
			tl, err := s.TLE(name)
			if err != nil {
				skipped++
				continue
			}
			l1, l2, err := tl.Format()
			if err != nil {
				t.Fatal(err)
			}
			if name != "" {
				want.WriteString(name + "\n")
			}
			want.WriteString(l1 + "\n" + l2 + "\n")
		}
		if skipped != 1 {
			t.Fatalf("%d samples inexpressible, want 1", skipped)
		}
		if got.String() != want.String() {
			t.Fatalf("names=%v: WriteTLEs wrote %d bytes, Format %d, and they differ", withNames, got.Len(), want.Len())
		}
	}
}

// TestMissingDstHourIsQuiet: a missing hour inside the index (NaN, WDC's
// 9999) steps as the quiet default, exactly as an hour outside the index
// does. Passed on as NaN, its enhancement made every live altitude NaN for
// the rest of the run.
func TestMissingDstHourIsQuiet(t *testing.T) {
	cfg := smallConfig(30 * 24)
	cfg.Launches = nil
	cfg.InitialFleet = 20
	missing := stormIndex(cfg.Hours, 200, -150)
	quiet := stormIndex(cfg.Hours, 200, -150)
	missing.Values()[100] = math.NaN()
	quiet.Values()[100] = -10

	got, err := Run(context.Background(), cfg, missing)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(context.Background(), cfg, quiet)
	if err != nil {
		t.Fatal(err)
	}
	diffResults(t, "missing hour vs quiet hour", got, want)
	for _, s := range got.Samples {
		if math.IsNaN(float64(s.AltKm)) || math.IsNaN(float64(s.BStar)) {
			t.Fatalf("sample %+v carries NaN", s)
		}
	}
}

// TestPaperFleetAllocation is an exact memory gate on the simulator: a
// paper-fleet run allocates under 1.5× its archive's bytes, because the
// archive is sized from the launch schedule up front. Grown from zero by
// append, the same archive (3,012,426 samples, 144.6 MB) allocated 5.4×.
func TestPaperFleetAllocation(t *testing.T) {
	if testing.Short() {
		t.Skip("full fleet run in -short mode")
	}
	weather, err := spaceweather.Generate(spaceweather.Paper2020to2024())
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := Run(context.Background(), PaperFleet(42), weather)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	archive := float64(len(res.Samples)) * float64(unsafe.Sizeof(Sample{}))
	ratio := float64(after.TotalAlloc-before.TotalAlloc) / archive
	t.Logf("%d samples, %.1f MB archive, %.2f× allocated", len(res.Samples), archive/1e6, ratio)
	if ratio >= 1.5 {
		t.Fatalf("Run(PaperFleet(42)) allocated %.2f× its archive bytes, want < 1.5×", ratio)
	}
}
