package core

import (
	"context"
	"math"
	"slices"
	"testing"
	"time"

	"cosmicdance/internal/dst"
	"cosmicdance/internal/units"
)

// stormyWeather returns 120 days of quiet readings with one storm: a ramp to
// peak at day 30 noon and linear recovery, durations per the hours parameter.
func stormyWeather(days int, peak float64, stormHours int) *dst.Index {
	vals := make([]float64, days*24)
	for i := range vals {
		vals[i] = -10
	}
	onset := 30*24 + 12
	for k := 0; k < stormHours; k++ {
		vals[onset+k] = peak
	}
	return dst.FromValues(c0, vals)
}

// dippingTrack emits a track that dips dipKm below alt over the 10 days after
// eventDay and then recovers (a hump-shaped response).
func dippingTrack(b *Builder, cat int, days int, alt, dipKm float64, eventDay int) {
	for i := 0; i < days*2; i++ {
		at := c0.Add(time.Duration(i) * 12 * time.Hour)
		day := float64(i) / 2
		a := alt
		switch {
		case day >= float64(eventDay) && day < float64(eventDay+10):
			a = alt - dipKm*(day-float64(eventDay))/10
		case day >= float64(eventDay+10) && day < float64(eventDay+20):
			a = alt - dipKm*(1-(day-float64(eventDay+10))/10)
		}
		addObs(b, cat, at, a, 4e-4)
	}
}

// decayingTrack emits a track that starts permanent decay at eventDay.
func decayingTrack(b *Builder, cat int, days int, alt, ratePerDay float64, eventDay int) {
	for i := 0; i < days*2; i++ {
		at := c0.Add(time.Duration(i) * 12 * time.Hour)
		day := float64(i) / 2
		a := alt
		if day >= float64(eventDay) {
			a = alt - ratePerDay*(day-float64(eventDay))
		}
		if a < 180 {
			break
		}
		bstar := 4e-4
		if day >= float64(eventDay) {
			bstar = 4e-4 * (1 + (day-float64(eventDay))*0.2)
		}
		addObs(b, cat, at, a, bstar)
	}
}

func buildStormDataset(t *testing.T) (*Dataset, time.Time) {
	t.Helper()
	weather := stormyWeather(120, -120, 8)
	event := c0.Add(30*24*time.Hour + 12*time.Hour)
	b := NewBuilder(DefaultConfig(), weather)
	steadyTrack(b, 1, c0, 120, 550)      // unaffected
	dippingTrack(b, 2, 120, 550, 8, 30)  // dips 8 km, recovers
	dippingTrack(b, 3, 120, 550, 4, 30)  // dips 4 km, recovers
	decayingTrack(b, 4, 120, 550, 5, 30) // permanent decay after event
	decayingTrack(b, 5, 120, 550, 5, 10) // already decaying BEFORE event
	d, err := b.Build(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return d, event
}

func TestEventsSelection(t *testing.T) {
	d, _ := buildStormDataset(t)
	evs := d.Events(units.StormThreshold, 1, 0)
	if len(evs) != 1 {
		t.Fatalf("events = %d, want 1", len(evs))
	}
	if evs[0].Storm.Peak != -120 || evs[0].Storm.Hours != 8 {
		t.Errorf("event = %+v", evs[0].Storm)
	}
	// Intensity filter.
	if got := d.Events(-150, 1, 0); len(got) != 0 {
		t.Errorf("deep filter matched %d", len(got))
	}
	// Duration filters.
	if got := d.Events(units.StormThreshold, 9, 0); len(got) != 0 {
		t.Errorf("min-duration filter matched %d", len(got))
	}
	if got := d.Events(units.StormThreshold, 1, 7); len(got) != 0 {
		t.Errorf("max-duration filter matched %d", len(got))
	}
}

func TestEventsAbovePercentile(t *testing.T) {
	d, _ := buildStormDataset(t)
	evs, err := d.EventsAbovePercentile(95, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 1 {
		t.Fatalf("events above p95 = %d, want 1", len(evs))
	}
}

func TestQuietEpochs(t *testing.T) {
	d, _ := buildStormDataset(t)
	epochs, err := d.QuietEpochs(80, 15, 3, 7*24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if len(epochs) == 0 || len(epochs) > 3 {
		t.Fatalf("quiet epochs = %d", len(epochs))
	}
	// Every quiet window must be storm-free for its full 15 days.
	for _, e := range epochs {
		slice := d.Weather().Slice(e, e.Add(15*24*time.Hour))
		if min, _ := slice.Min(); min <= -50 {
			t.Errorf("quiet epoch %v contains a storm (min %v)", e, min)
		}
	}
	// Spacing respected.
	for i := 1; i < len(epochs); i++ {
		if epochs[i].Sub(epochs[i-1]) < 7*24*time.Hour {
			t.Error("spacing violated")
		}
	}
}

func TestQuietEpochsNoneAvailable(t *testing.T) {
	// A storm hour every 5 days: no 15-day quiet window exists.
	vals := make([]float64, 60*24)
	for i := range vals {
		vals[i] = -10
		if i%(5*24) == 60 {
			vals[i] = -80
		}
	}
	b := NewBuilder(DefaultConfig(), dst.FromValues(c0, vals))
	steadyTrack(b, 1, c0, 60, 550)
	d, err := b.Build(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.QuietEpochs(80, 15, 5, time.Hour); err == nil {
		t.Error("quiet epochs found in a permanently stormy index")
	}
}

func TestWindowHumpSelection(t *testing.T) {
	d, event := buildStormDataset(t)
	wa, err := d.Window(context.Background(), event, WindowOptions{Days: 30, RequireHumpShape: true})
	if err != nil {
		t.Fatal(err)
	}
	// Sats 2 and 3 (dip + recover) qualify. Sat 1 is flat (no hump), sat 4
	// decays permanently (end deviation high), sat 5 was already decaying.
	if len(wa.Curves) != 2 {
		t.Fatalf("curves = %d, want 2 (got catalogs %v)", len(wa.Curves), catalogsOf(wa))
	}
	if wa.SkippedDecaying != 1 {
		t.Errorf("skipped decaying = %d, want 1 (sat 5)", wa.SkippedDecaying)
	}
	if wa.SkippedShape < 2 {
		t.Errorf("skipped shape = %d, want >= 2 (sats 1 and 4)", wa.SkippedShape)
	}
	// The median curve peaks mid-window at a few km.
	maxMedian := 0.0
	for _, v := range wa.MedianKm {
		if !math.IsNaN(v) && v > maxMedian {
			maxMedian = v
		}
	}
	if maxMedian < 3 || maxMedian > 10 {
		t.Errorf("peak median deviation = %v km, want ~6", maxMedian)
	}
	// Day 0 starts near zero.
	if wa.MedianKm[0] > 2 {
		t.Errorf("day-0 median = %v", wa.MedianKm[0])
	}
}

func catalogsOf(wa *WindowAnalysis) []int {
	var out []int
	for _, c := range wa.Curves {
		out = append(out, c.Catalog)
	}
	return out
}

func TestWindowWithoutHumpKeepsFlatSats(t *testing.T) {
	d, event := buildStormDataset(t)
	wa, err := d.Window(context.Background(), event, WindowOptions{Days: 15})
	if err != nil {
		t.Fatal(err)
	}
	// Without the shape selection, everyone except the already-decaying sat
	// contributes.
	if len(wa.Curves) != 4 {
		t.Fatalf("curves = %d, want 4", len(wa.Curves))
	}
	if _, err := d.Window(context.Background(), event, WindowOptions{Days: 0}); err == nil {
		t.Error("Days=0 accepted")
	}
}

func TestAssociateAppliesDecayFilter(t *testing.T) {
	d, _ := buildStormDataset(t)
	events := d.Events(units.StormThreshold, 1, 0)
	devs := d.Associate(context.Background(), events, 30)
	// Sat 5 (already decaying) must be absent.
	for _, dv := range devs {
		if dv.Catalog == 5 {
			t.Fatal("already-decaying satellite associated")
		}
	}
	if len(devs) != 4 {
		t.Fatalf("associations = %d, want 4", len(devs))
	}
	byCat := map[int]Deviation{}
	for _, dv := range devs {
		byCat[dv.Catalog] = dv
	}
	// The permanent decayer shows the largest deviation (~150 km at 5 km/day
	// over 30 days).
	if byCat[4].MaxDevKm < 100 {
		t.Errorf("decayer deviation = %v, want > 100", byCat[4].MaxDevKm)
	}
	// The unaffected satellite moves by noise only.
	if byCat[1].MaxDevKm > 1 {
		t.Errorf("steady sat deviation = %v", byCat[1].MaxDevKm)
	}
	// The 8 km dipper lands in between.
	if byCat[2].MaxDevKm < 6 || byCat[2].MaxDevKm > 10 {
		t.Errorf("dipper deviation = %v, want ~8", byCat[2].MaxDevKm)
	}
	// Drag change: the decayer's B* rose.
	if byCat[4].MaxDrag <= 0 {
		t.Errorf("decayer drag change = %v", byCat[4].MaxDrag)
	}
}

// associateOracle is AssociateTrack's definition written as linear scans:
// the baseline is the last point at or before the event, and the window is
// every point with event <= epoch <= event + windowDays.
func associateOracle(cfg Config, ev Event, tr *Track, windowDays int) (Deviation, bool) {
	epoch := ev.Epoch()
	end := epoch.Add(time.Duration(windowDays) * 24 * time.Hour)
	baseAt := -1
	var window []TrackPoint
	for i, p := range tr.Points {
		if p.Epoch <= epoch.Unix() {
			baseAt = i
		}
		if p.Epoch >= epoch.Unix() && p.Epoch <= end.Unix() {
			window = append(window, p)
		}
	}
	if baseAt < 0 {
		return Deviation{}, false
	}
	base := tr.Points[baseAt]
	if epoch.Sub(base.Time()) > cfg.BaselineStaleness ||
		math.Abs(float64(base.AltKm)-tr.OperationalAltKm) > cfg.DecayFilterKm || len(window) == 0 {
		return Deviation{}, false
	}
	dv := Deviation{Event: epoch, Catalog: tr.Catalog}
	for _, p := range window {
		dv.MaxDevKm = math.Max(dv.MaxDevKm, math.Abs(float64(base.AltKm)-float64(p.AltKm)))
		dv.MaxDrag = math.Max(dv.MaxDrag, float64(p.BStar)-float64(base.BStar))
	}
	return dv, true
}

// TestAssociateMatchesPairwiseReference is the referee for the track-major
// fan-out and the single-search AssociateTrack. At widths 1, 2 and 4,
// Associate must equal a pairwise AssociateTrack loop in (event, track)
// order, and every pair must equal the linear-scan oracle. The events are
// out of time order and cover two events at one epoch, an event before
// every track's first point, events exactly on and between point epochs,
// and windows ending past the last point; a 0-day window holds only a point
// exactly at the event.
func TestAssociateMatchesPairwiseReference(t *testing.T) {
	weather := stormyWeather(70, -120, 8)
	at := func(days, hours float64) time.Time {
		return c0.Add(time.Duration((days*24 + hours) * float64(time.Hour)))
	}
	events := []Event{
		{Storm: dst.Storm{Start: at(40, 12)}}, // on a 12-hour point epoch
		{Storm: dst.Storm{Start: at(10, 3)}},  // between epochs
		{Storm: dst.Storm{Start: at(10, 3)}},  // the same epoch again
		{Storm: dst.Storm{Start: at(-5, 0)}},  // before every first point
		{Storm: dst.Storm{Start: at(58, 0)}},  // window past the last point
		{Storm: dst.Storm{Start: at(20, 0.5)}},
		{Storm: dst.Storm{Start: at(25, 7)}},  // on a 7-hour point epoch
		{Storm: dst.Storm{Start: at(59, 12)}}, // on the last point's epoch
	}
	for _, width := range []int{1, 2, 4} {
		cfg := DefaultConfig()
		cfg.Parallelism = width
		b := NewBuilder(cfg, weather)
		steadyTrack(b, 1, c0, 60, 550)
		dippingTrack(b, 2, 60, 550, 8, 30)
		decayingTrack(b, 3, 60, 550, 5, 20)
		steadyTrack(b, 4, at(15, 0), 30, 548) // starts after several events
		for i := 0; i < 60*24/7; i++ {        // a 7-hour cadence
			addObs(b, 5, at(0, float64(7*i)), 551-float64(i%5), 4e-4*float64(1+i%3))
		}
		d, err := b.Build(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for _, windowDays := range []int{0, 1, 30} {
			var want []Deviation
			for _, ev := range events {
				for _, tr := range d.Tracks() {
					dv, ok := AssociateTrack(d.Config(), ev, tr, windowDays)
					odv, ook := associateOracle(d.Config(), ev, tr, windowDays)
					if ok != ook || dv != odv {
						t.Fatalf("width %d, event %v, track %d: AssociateTrack = %+v, %v; oracle %+v, %v",
							width, ev.Epoch(), tr.Catalog, dv, ok, odv, ook)
					}
					if ok {
						want = append(want, dv)
					}
				}
			}
			got := d.Associate(context.Background(), events, windowDays)
			if !slices.Equal(got, want) {
				t.Fatalf("width %d, window %d: Associate differs from the pairwise loop:\n got %+v\nwant %+v",
					width, windowDays, got, want)
			}
			if n := len(got); windowDays == 30 && (n == 0 || n == len(events)*len(d.Tracks())) {
				t.Fatalf("%d associations in the 30-day case: the fixture exercises no filter", n)
			}
		}
	}
}

func TestAssociateQuietIsCalm(t *testing.T) {
	d, _ := buildStormDataset(t)
	epochs, err := d.QuietEpochs(80, 15, 2, 10*24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	devs := d.AssociateQuiet(context.Background(), epochs, 15)
	if len(devs) == 0 {
		t.Fatal("no quiet associations")
	}
	cdf, err := DeviationCDF(devs)
	if err != nil {
		t.Fatal(err)
	}
	// Quiet epochs that precede the storm include sats that will decay later
	// (within the window) — accept a tail but the bulk must be tiny.
	if cdf.Quantile(0.5) > 2 {
		t.Errorf("quiet median deviation = %v", cdf.Quantile(0.5))
	}
}

func TestDeviationAndDragCDFs(t *testing.T) {
	devs := []Deviation{
		{MaxDevKm: 1, MaxDrag: 0.0001},
		{MaxDevKm: 10, MaxDrag: 0.001},
		{MaxDevKm: 163, MaxDrag: 0.01},
	}
	dc, err := DeviationCDF(devs)
	if err != nil {
		t.Fatal(err)
	}
	if dc.Max() != 163 || dc.N() != 3 {
		t.Errorf("deviation CDF = max %v n %d", dc.Max(), dc.N())
	}
	gc, err := DragChangeCDF(devs)
	if err != nil {
		t.Fatal(err)
	}
	if gc.Max() != 0.01 {
		t.Errorf("drag CDF max = %v", gc.Max())
	}
	if _, err := DeviationCDF(nil); err == nil {
		t.Error("empty deviations accepted")
	}
}

func TestSuperStormReport(t *testing.T) {
	// Build a 10-day window with a big storm on day 5 and drag response.
	days := 10
	vals := make([]float64, days*24)
	for i := range vals {
		vals[i] = -10
	}
	for k := 0; k < 12; k++ {
		vals[5*24+k] = -400
	}
	weather := dst.FromValues(c0, vals)
	b := NewBuilder(DefaultConfig(), weather)
	for cat := 1; cat <= 20; cat++ {
		for i := 0; i < days*2; i++ {
			at := c0.Add(time.Duration(i) * 12 * time.Hour)
			bstar := 4e-4
			if i/2 == 5 { // storm day: 5x drag
				bstar = 2e-3
			}
			addObs(b, cat, at, 550, bstar)
		}
	}
	d, err := b.Build(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := d.SuperStorm(c0, c0.Add(time.Duration(days)*24*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Drag) != days || len(rep.Tracked) != days {
		t.Fatalf("days = %d/%d", len(rep.Drag), len(rep.Tracked))
	}
	if rep.PeakDragRatio < 4 || rep.PeakDragRatio > 6 {
		t.Errorf("peak drag ratio = %v, want ~5", rep.PeakDragRatio)
	}
	if rep.MinTrackedRatio != 1 {
		t.Errorf("tracked ratio = %v, want 1 (no loss)", rep.MinTrackedRatio)
	}
	if len(rep.Dst) != days*24 {
		t.Errorf("dst trace = %d hours", len(rep.Dst))
	}
	// Validation.
	if _, err := d.SuperStorm(c0, c0); err == nil {
		t.Error("empty window accepted")
	}
	if _, err := d.SuperStorm(c0, c0.Add(24*time.Hour)); err == nil {
		t.Error("1-day window accepted")
	}
}

func TestTimeSeries(t *testing.T) {
	d, event := buildStormDataset(t)
	ts, err := d.TimeSeries(4, event.Add(-10*24*time.Hour), event.Add(20*24*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if len(ts.Points) == 0 {
		t.Fatal("no points")
	}
	// Dst context is attached.
	sawStorm := false
	for _, p := range ts.Points {
		if p.Dst <= -100 {
			sawStorm = true
		}
	}
	if !sawStorm {
		t.Error("storm hours not visible in merged series")
	}
	// Altitude declines across the window for the decayer.
	if ts.Points[0].AltKm <= ts.Points[len(ts.Points)-1].AltKm {
		t.Error("decay not visible")
	}
	if _, err := d.TimeSeries(99, c0, c0.Add(time.Hour)); err == nil {
		t.Error("unknown catalog accepted")
	}
	if _, err := d.TimeSeries(4, c0.Add(-100*24*time.Hour), c0.Add(-99*24*time.Hour)); err == nil {
		t.Error("empty window accepted")
	}
}

func TestMergeCloseEvents(t *testing.T) {
	mk := func(hoursFromStart int, peak units.NanoTesla, dur int) Event {
		return Event{Storm: dst.Storm{
			Start: c0.Add(time.Duration(hoursFromStart) * time.Hour),
			Peak:  peak, Hours: dur,
			PeakAt: c0.Add(time.Duration(hoursFromStart+1) * time.Hour),
		}}
	}
	events := []Event{
		mk(0, -80, 3),
		mk(24, -150, 5), // within 3 days of the first: merged, deeper peak kept
		mk(40, -60, 2),  // still within 3 days of the FIRST kept event: merged
		mk(200, -90, 4), // far away: kept
	}
	merged := MergeCloseEvents(events, 72*time.Hour)
	if len(merged) != 2 {
		t.Fatalf("merged = %d events, want 2", len(merged))
	}
	if merged[0].Storm.Peak != -150 {
		t.Errorf("merged peak = %v, want -150", merged[0].Storm.Peak)
	}
	// The merged event's span covers the last folded storm.
	if merged[0].Storm.End().Before(c0.Add(42 * time.Hour)) {
		t.Errorf("merged end = %v", merged[0].Storm.End())
	}
	if !merged[1].Storm.Start.Equal(c0.Add(200 * time.Hour)) {
		t.Errorf("second event = %+v", merged[1].Storm)
	}
	if got := MergeCloseEvents(nil, time.Hour); got != nil {
		t.Errorf("nil events = %v", got)
	}
	// Merging reduces association double counting.
	d, _ := buildStormDataset(t)
	evs := d.Events(units.StormThreshold, 1, 0)
	if len(MergeCloseEvents(evs, 24*time.Hour)) > len(evs) {
		t.Error("merge grew the event list")
	}
}
