package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"cosmicdance/internal/dst"
	"cosmicdance/internal/parallel"
	"cosmicdance/internal/stats"
	"cosmicdance/internal/units"
)

// Event is a solar event the pipeline associates trajectory changes with.
type Event struct {
	Storm dst.Storm
}

// Epoch is the reference instant for happens-closely-after windows: the
// storm's onset.
func (e Event) Epoch() time.Time { return e.Storm.Start }

// Events returns the storms in the dataset with peak intensity at or below
// maxPeak (i.e. |peak| >= |maxPeak|) and duration within [minHours,
// maxHours] (maxHours <= 0 means unbounded) — the event-selection knobs Figs
// 5 and 6 sweep.
func (d *Dataset) Events(maxPeak units.NanoTesla, minHours, maxHours int) []Event {
	return WeatherEvents(d.weather, maxPeak, minHours, maxHours)
}

// WeatherEvents is Events without a materialized Dataset — event selection
// depends only on the weather, which is what lets the chunked streaming
// pipeline pick its events once and analyse tracks chunk by chunk.
func WeatherEvents(weather *dst.Index, maxPeak units.NanoTesla, minHours, maxHours int) []Event {
	var out []Event
	for _, s := range weather.Storms(units.StormThreshold) {
		if s.Peak > maxPeak {
			continue
		}
		if s.Hours < minHours {
			continue
		}
		if maxHours > 0 && s.Hours > maxHours {
			continue
		}
		out = append(out, Event{Storm: s})
	}
	return out
}

// EventsAbovePercentile selects storms whose peak intensity exceeds the
// dataset's p-th intensity percentile (e.g. 95 for Fig 5b, 99 for Fig 6).
func (d *Dataset) EventsAbovePercentile(p float64, minHours, maxHours int) ([]Event, error) {
	return WeatherEventsAbovePercentile(d.weather, p, minHours, maxHours)
}

// WeatherEventsAbovePercentile is EventsAbovePercentile without a
// materialized Dataset.
func WeatherEventsAbovePercentile(weather *dst.Index, p float64, minHours, maxHours int) ([]Event, error) {
	threshold, err := weather.IntensityPercentile(p)
	if err != nil {
		return nil, err
	}
	if threshold > units.StormThreshold {
		threshold = units.StormThreshold
	}
	return WeatherEvents(weather, threshold, minHours, maxHours), nil
}

// QuietEpochs returns up to count instants, spaced at least spacing apart,
// such that no hour within the following windowDays exceeds the p-th
// intensity percentile — the "no major storm observed" control epochs of
// Fig 4(b) and Fig 5(a).
func (d *Dataset) QuietEpochs(p float64, windowDays, count int, spacing time.Duration) ([]time.Time, error) {
	threshold, err := d.weather.IntensityPercentile(p)
	if err != nil {
		return nil, err
	}
	var out []time.Time
	window := windowDays * 24
	var lastPicked time.Time
	// Precompute a running "next loud hour" scan for O(n) selection.
	loudAfter := make([]int, d.weather.Len()+1)
	loudAfter[d.weather.Len()] = math.MaxInt
	for i := d.weather.Len() - 1; i >= 0; i-- {
		// An hour is "loud" only when strictly more intense than the
		// threshold; an hour exactly at the p-th percentile is not above it.
		if units.NanoTesla(d.weather.Values()[i]) < threshold {
			loudAfter[i] = i
		} else {
			loudAfter[i] = loudAfter[i+1]
		}
	}
	for i := 0; i+window <= d.weather.Len(); i++ {
		if loudAfter[i] < i+window {
			continue
		}
		t := d.weather.TimeAt(i)
		if !lastPicked.IsZero() && t.Sub(lastPicked) < spacing {
			continue
		}
		out = append(out, t)
		lastPicked = t
		if count > 0 && len(out) >= count {
			break
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("core: no quiet epochs below the %.0fth intensity percentile with a %d-day window", p, windowDays)
	}
	return out, nil
}

// SatCurve is one satellite's deviation-vs-time curve after an event.
type SatCurve struct {
	Catalog int
	// DevKm[i] is the deviation from the satellite's long-term operational
	// altitude (positive = below it) on day i after the event; NaN where no
	// observation exists.
	DevKm []float64
}

// WindowAnalysis is the Fig 4 product: per-day deviation aggregates across
// the affected satellites in the days after an event.
type WindowAnalysis struct {
	Event    time.Time
	Days     int
	Curves   []SatCurve
	MedianKm []float64 // per-day median across satellites
	P95Km    []float64 // per-day 95th percentile
	// Skipped counts satellites excluded per the paper's rules.
	SkippedDecaying int // already decaying at the event (5 km rule)
	SkippedStale    int // no fresh observation immediately before the event
	SkippedShape    int // hump-shape selection (Fig 4a) not satisfied
}

// WindowOptions tunes a window analysis.
type WindowOptions struct {
	Days int
	// RequireHumpShape applies Fig 4(a)'s selection: the median deviation
	// over the window must exceed both the deviation immediately after the
	// event and the deviation at the end of the window (this also excludes
	// satellites that decay permanently).
	RequireHumpShape bool
	// MinPeakKm, when positive, drops satellites whose largest deviation in
	// the window stays below this floor — station-keeping jitter would
	// otherwise swamp the genuinely affected population.
	MinPeakKm float64
}

// windowOutcome classifies one track's fate within a window analysis.
type windowOutcome int8

const (
	windowSelected windowOutcome = iota
	windowStale
	windowDecaying
	windowShape
)

// windowTrack evaluates one track against a window analysis — the per-track
// unit of work the Window fan-out distributes.
func (d *Dataset) windowTrack(tr *Track, event, end time.Time, opts WindowOptions) (SatCurve, windowOutcome) {
	base, ok := tr.At(event)
	if !ok || event.Sub(base.Time()) > d.cfg.BaselineStaleness {
		return SatCurve{}, windowStale
	}
	// The paper's already-decaying filter.
	if math.Abs(float64(base.AltKm)-tr.OperationalAltKm) > d.cfg.DecayFilterKm {
		return SatCurve{}, windowDecaying
	}
	pts := tr.Window(event, end)
	if len(pts) == 0 {
		return SatCurve{}, windowStale
	}
	dev := make([]float64, opts.Days)
	for i := range dev {
		dev[i] = math.NaN()
	}
	for _, p := range pts {
		day := int(p.Epoch-event.Unix()) / 86400
		if day < 0 || day >= opts.Days {
			continue
		}
		v := tr.OperationalAltKm - float64(p.AltKm)
		if math.IsNaN(dev[day]) || math.Abs(v) > math.Abs(dev[day]) {
			dev[day] = v
		}
	}
	if opts.MinPeakKm > 0 && peakAbs(dev) < opts.MinPeakKm {
		return SatCurve{}, windowShape
	}
	if opts.RequireHumpShape && !humpShaped(dev) {
		return SatCurve{}, windowShape
	}
	return SatCurve{Catalog: tr.Catalog, DevKm: dev}, windowSelected
}

// Window computes the deviation curves for the days following an event epoch.
// Tracks are evaluated independently on the worker pool and merged in track
// order, so the analysis is identical at every Parallelism setting.
func (d *Dataset) Window(ctx context.Context, event time.Time, opts WindowOptions) (*WindowAnalysis, error) {
	if opts.Days <= 0 {
		return nil, fmt.Errorf("core: window days must be positive")
	}
	wa := &WindowAnalysis{Event: event, Days: opts.Days}
	end := event.Add(time.Duration(opts.Days) * 24 * time.Hour)

	type outcome struct {
		curve SatCurve
		kind  windowOutcome
	}
	outcomes, err := parallel.Map(ctx, d.cfg.Parallelism, len(d.tracks),
		func(i int) (outcome, error) {
			curve, kind := d.windowTrack(d.tracks[i], event, end, opts)
			return outcome{curve, kind}, nil
		})
	if err != nil {
		return nil, err
	}
	for _, o := range outcomes {
		switch o.kind {
		case windowSelected:
			wa.Curves = append(wa.Curves, o.curve)
		case windowStale:
			wa.SkippedStale++
		case windowDecaying:
			wa.SkippedDecaying++
		case windowShape:
			wa.SkippedShape++
		}
	}

	wa.MedianKm = make([]float64, opts.Days)
	wa.P95Km = make([]float64, opts.Days)
	var scratch []float64
	for day := 0; day < opts.Days; day++ {
		scratch = scratch[:0]
		for _, c := range wa.Curves {
			if !math.IsNaN(c.DevKm[day]) {
				scratch = append(scratch, math.Abs(c.DevKm[day]))
			}
		}
		if len(scratch) == 0 {
			wa.MedianKm[day] = math.NaN()
			wa.P95Km[day] = math.NaN()
			continue
		}
		cdf, err := stats.NewCDF(scratch)
		if err != nil {
			return nil, err
		}
		wa.MedianKm[day], _ = cdf.Percentile(50)
		wa.P95Km[day], _ = cdf.Percentile(95)
	}
	return wa, nil
}

// peakAbs returns the largest |deviation| in the curve (0 if all NaN).
func peakAbs(dev []float64) float64 {
	peak := 0.0
	for _, v := range dev {
		if !math.IsNaN(v) && math.Abs(v) > peak {
			peak = math.Abs(v)
		}
	}
	return peak
}

// humpShaped reports whether the deviation curve rises and then falls: the
// window median must exceed both the deviation right after the event and the
// deviation at the end (the paper's Fig 4a selection).
func humpShaped(dev []float64) bool {
	first, last := math.NaN(), math.NaN()
	var present []float64
	for _, v := range dev {
		if math.IsNaN(v) {
			continue
		}
		if math.IsNaN(first) {
			first = v
		}
		last = v
		present = append(present, math.Abs(v))
	}
	if len(present) < 3 {
		return false
	}
	med, err := stats.Percentile(present, 50)
	if err != nil {
		return false
	}
	return med > math.Abs(first) && med > math.Abs(last)
}

// Deviation is one (event, satellite) association outcome.
type Deviation struct {
	Event    time.Time
	Catalog  int
	MaxDevKm float64 // largest altitude change within the window (km)
	MaxDrag  float64 // largest B* increase within the window (1/ER)
}

// Associate computes, for every given event and every eligible satellite,
// the maximum altitude deviation and drag increase within the
// happens-closely-after window — the raw material of Figs 5 and 6.
//
// The fan-out unit is a track: each task sweeps every event over one track
// while its points are in cache, and writes each (event, track) outcome to
// its own index-addressed slot. The merge reads the slots in (event, track)
// order, so the deviation list is identical at every Parallelism setting.
func (d *Dataset) Associate(ctx context.Context, events []Event, windowDays int) []Deviation {
	nt := len(d.tracks)
	if len(events) == 0 || nt == 0 {
		return nil
	}
	type pairResult struct {
		dev Deviation
		ok  bool
	}
	results := make([]pairResult, len(events)*nt)
	err := parallel.ForEach(ctx, d.cfg.Parallelism, nt, func(t int) error {
		tr := d.tracks[t]
		for e, ev := range events {
			dev, ok := AssociateTrack(d.cfg, ev, tr, windowDays)
			results[e*nt+t] = pairResult{dev, ok}
		}
		return nil
	})
	if err != nil {
		// The track sweep never errs; only a worker panic lands here, and
		// re-panicking preserves the pre-parallel contract of this API.
		panic(err)
	}
	var out []Deviation
	for _, r := range results {
		if r.ok {
			out = append(out, r.dev)
		}
	}
	return out
}

// AssociateTrack evaluates one (event, track) pair without a materialized
// Dataset — association touches only the track, the event, and the config,
// which is what lets the chunked streaming pipeline associate each chunk's
// tracks as they arrive. Results across chunks, taken in (event, track)
// order per chunk and track-major across chunks, reproduce Associate's
// ordering per track.
//
// One binary search finds the baseline (the last point at or before the
// event); the window [event, event+windowDays] starts at or just after it,
// so a forward scan from there finds its end.
func AssociateTrack(cfg Config, ev Event, tr *Track, windowDays int) (Deviation, bool) {
	epoch := ev.Epoch()
	ts := epoch.Unix()
	i := tr.after(ts)
	if i == 0 {
		return Deviation{}, false
	}
	base := tr.Points[i-1]
	if epoch.Sub(base.Time()) > cfg.BaselineStaleness {
		return Deviation{}, false
	}
	if math.Abs(float64(base.AltKm)-tr.OperationalAltKm) > cfg.DecayFilterKm {
		return Deviation{}, false // already decaying before the event
	}
	lo := i
	for lo > 0 && tr.Points[lo-1].Epoch == ts {
		lo--
	}
	end := epoch.Add(time.Duration(windowDays) * 24 * time.Hour).Unix()
	maxDev, maxDrag, n := 0.0, 0.0, 0
	for _, p := range tr.Points[lo:] {
		if p.Epoch > end {
			break
		}
		n++
		dev := math.Abs(float64(base.AltKm) - float64(p.AltKm))
		if dev > maxDev {
			maxDev = dev
		}
		drag := float64(p.BStar) - float64(base.BStar)
		if drag > maxDrag {
			maxDrag = drag
		}
	}
	if n == 0 {
		return Deviation{}, false
	}
	return Deviation{Event: epoch, Catalog: tr.Catalog, MaxDevKm: maxDev, MaxDrag: maxDrag}, true
}

// AssociateQuiet runs the same association against quiet control epochs
// (Fig 5a's "epoch set with no storms around").
func (d *Dataset) AssociateQuiet(ctx context.Context, epochs []time.Time, windowDays int) []Deviation {
	events := make([]Event, len(epochs))
	for i, t := range epochs {
		events[i] = Event{Storm: dst.Storm{Start: t}}
	}
	return d.Associate(ctx, events, windowDays)
}

// DeviationCDF folds associations into the altitude-change CDF of Fig 5/6.
func DeviationCDF(devs []Deviation) (*stats.CDF, error) {
	vals := make([]float64, len(devs))
	for i, dv := range devs {
		vals[i] = dv.MaxDevKm
	}
	return stats.NewCDF(vals)
}

// DragChangeCDF folds associations into the drag-change CDF of Fig 5c/6c.
func DragChangeCDF(devs []Deviation) (*stats.CDF, error) {
	vals := make([]float64, len(devs))
	for i, dv := range devs {
		vals[i] = dv.MaxDrag
	}
	return stats.NewCDF(vals)
}
