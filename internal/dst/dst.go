// Package dst handles the Disturbance storm time (Dst) index: the hourly
// geomagnetic-field measurement published by the WDC for Geomagnetism, Kyoto,
// that CosmicDance uses as its solar-activity signal. It provides a codec for
// the WDC exchange record format, an hourly index container, and the storm
// detection used throughout the paper's analyses.
package dst

import (
	"math"
	"time"

	"cosmicdance/internal/stats"
	"cosmicdance/internal/timeseries"
	"cosmicdance/internal/units"
)

// Index is a contiguous hourly Dst series.
type Index struct {
	hourly *timeseries.Hourly
}

// NewIndex wraps an hourly series as a Dst index.
func NewIndex(h *timeseries.Hourly) *Index { return &Index{hourly: h} }

// FromValues builds an index over raw hourly readings starting at start.
func FromValues(start time.Time, values []float64) *Index {
	return &Index{hourly: timeseries.FromValues(start, values)}
}

// Hourly exposes the underlying series.
func (x *Index) Hourly() *timeseries.Hourly { return x.hourly }

// Len returns the number of hourly readings.
func (x *Index) Len() int { return x.hourly.Len() }

// Start returns the timestamp of the first reading.
func (x *Index) Start() time.Time { return x.hourly.Start }

// End returns the timestamp one hour past the last reading.
func (x *Index) End() time.Time { return x.hourly.End() }

// At returns the reading covering t.
func (x *Index) At(t time.Time) (units.NanoTesla, bool) {
	v, ok := x.hourly.ValueAt(t)
	return units.NanoTesla(v), ok
}

// Slice returns the sub-index covering [from, to).
func (x *Index) Slice(from, to time.Time) *Index {
	return &Index{hourly: x.hourly.Slice(from, to)}
}

// Min returns the most negative reading (peak storm intensity) and its time,
// the first such hour on a tie. Missing hours (NaN) are skipped; an index
// with no reading present returns 0 and the zero time, as an empty one does.
func (x *Index) Min() (units.NanoTesla, time.Time) {
	best, at := 0.0, -1
	for i, v := range x.hourly.Values() {
		if !math.IsNaN(v) && (at < 0 || v < best) {
			best, at = v, i
		}
	}
	if at < 0 {
		return 0, time.Time{}
	}
	return units.NanoTesla(best), x.hourly.TimeAt(at)
}

// IntensityPercentile returns the Dst level whose *intensity* (|negative
// excursion|) is at the p-th percentile. The paper's "99th-ptile intensity:
// −63 nT" means 99% of hours are less intense (less negative) than −63 nT, so
// this is the (100−p)-th percentile of the raw signed values. Missing hours
// (NaN) are not ranked: the percentile is over the hours present, and
// stats.ErrEmpty when none is.
func (x *Index) IntensityPercentile(p float64) (units.NanoTesla, error) {
	vals := x.hourly.Values()
	present := make([]float64, 0, len(vals))
	for _, v := range vals {
		if !math.IsNaN(v) {
			present = append(present, v)
		}
	}
	v, err := stats.Percentile(present, 100-p)
	if err != nil {
		return 0, err
	}
	return units.NanoTesla(v), nil
}

// HoursInClass counts readings in each G-scale class.
func (x *Index) HoursInClass() map[units.GScale]int {
	out := make(map[units.GScale]int)
	for _, v := range x.hourly.Values() {
		if math.IsNaN(v) {
			continue
		}
		out[units.ClassifyDst(units.NanoTesla(v))]++
	}
	return out
}

// Storm is one maximal run of hours at or below a detection threshold.
type Storm struct {
	Start  time.Time
	Hours  int             // contiguous hours at or below threshold
	Peak   units.NanoTesla // most negative reading in the run
	PeakAt time.Time
}

// End returns the first hour after the storm.
func (s Storm) End() time.Time { return s.Start.Add(time.Duration(s.Hours) * time.Hour) }

// Duration returns the storm length.
func (s Storm) Duration() time.Duration { return time.Duration(s.Hours) * time.Hour }

// Category classifies the storm by its peak intensity.
func (s Storm) Category() units.GScale { return units.ClassifyDst(s.Peak) }

// Storms returns every maximal run of consecutive hours with Dst <=
// threshold, in time order. NaN readings (missing data) terminate runs.
func (x *Index) Storms(threshold units.NanoTesla) []Storm {
	var out []Storm
	vals := x.hourly.Values()
	inRun := false
	var cur Storm
	for i, v := range vals {
		below := !math.IsNaN(v) && units.NanoTesla(v) <= threshold
		switch {
		case below && !inRun:
			inRun = true
			cur = Storm{Start: x.hourly.TimeAt(i), Hours: 1, Peak: units.NanoTesla(v), PeakAt: x.hourly.TimeAt(i)}
		case below && inRun:
			cur.Hours++
			if units.NanoTesla(v) < cur.Peak {
				cur.Peak = units.NanoTesla(v)
				cur.PeakAt = x.hourly.TimeAt(i)
			}
		case !below && inRun:
			inRun = false
			out = append(out, cur)
		}
	}
	if inRun {
		out = append(out, cur)
	}
	return out
}

// StormsByCategory groups detected storms by their G-scale class.
func (x *Index) StormsByCategory(threshold units.NanoTesla) map[units.GScale][]Storm {
	out := make(map[units.GScale][]Storm)
	for _, s := range x.Storms(threshold) {
		out[s.Category()] = append(out[s.Category()], s)
	}
	return out
}

// BandRuns returns every maximal run of consecutive hours whose reading lies
// within (lo, hi] — e.g. the moderate band is (-200, -100]. This is the
// duration notion behind Fig 2: the paper's "severe storm lasted 3 contiguous
// hours" counts exactly the hours at severe depth.
func (x *Index) BandRuns(lo, hi units.NanoTesla) []Storm {
	var out []Storm
	vals := x.hourly.Values()
	inRun := false
	var cur Storm
	for i, v := range vals {
		in := !math.IsNaN(v) && units.NanoTesla(v) > lo && units.NanoTesla(v) <= hi
		switch {
		case in && !inRun:
			inRun = true
			cur = Storm{Start: x.hourly.TimeAt(i), Hours: 1, Peak: units.NanoTesla(v), PeakAt: x.hourly.TimeAt(i)}
		case in && inRun:
			cur.Hours++
			if units.NanoTesla(v) < cur.Peak {
				cur.Peak = units.NanoTesla(v)
				cur.PeakAt = x.hourly.TimeAt(i)
			}
		case !in && inRun:
			inRun = false
			out = append(out, cur)
		}
	}
	if inRun {
		out = append(out, cur)
	}
	return out
}

// CategoryBand returns the Dst band (lo, hi] of a G-scale class under the
// paper's operative classification. ok is false for GQuiet and unknown
// classes.
func CategoryBand(c units.GScale) (lo, hi units.NanoTesla, ok bool) {
	switch c {
	case units.G1Minor:
		return -100, -50, true
	case units.G2Moderate:
		return -200, -100, true
	case units.G4Severe:
		return -350, -200, true
	case units.G5Extreme:
		return -100000, -350, true
	default:
		return 0, 0, false
	}
}

// CategoryRuns returns the contiguous runs of hours at the depth of one
// category (Fig 2's storm-duration population for that category).
func (x *Index) CategoryRuns(c units.GScale) []Storm {
	lo, hi, ok := CategoryBand(c)
	if !ok {
		return nil
	}
	return x.BandRuns(lo, hi)
}

// DurationSummary reports the distribution of storm durations (in hours) for
// one category, the quantity behind Fig 2.
func DurationSummary(storms []Storm) (stats.Summary, error) {
	durations := make([]float64, len(storms))
	for i, s := range storms {
		durations[i] = float64(s.Hours)
	}
	return stats.Summarize(durations)
}

// QuietWindows returns maximal runs of at least minHours consecutive hours
// whose intensity stays above (less negative than) threshold — the "no major
// storm observed" epochs used as the control in Fig 4(b) and Fig 5(a).
func (x *Index) QuietWindows(threshold units.NanoTesla, minHours int) []Storm {
	var out []Storm
	vals := x.hourly.Values()
	runStart := -1
	flush := func(end int) {
		if runStart >= 0 && end-runStart >= minHours {
			out = append(out, Storm{Start: x.hourly.TimeAt(runStart), Hours: end - runStart})
		}
		runStart = -1
	}
	for i, v := range vals {
		quiet := !math.IsNaN(v) && units.NanoTesla(v) > threshold
		if quiet && runStart < 0 {
			runStart = i
		}
		if !quiet {
			flush(i)
		}
	}
	flush(len(vals))
	return out
}
