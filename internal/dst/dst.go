// Package dst handles the Disturbance storm time (Dst) index: the hourly
// geomagnetic-field measurement published by the WDC for Geomagnetism, Kyoto,
// that CosmicDance uses as its solar-activity signal. It provides a codec for
// the WDC exchange record format, an hourly index container, and the storm
// detection used throughout the paper's analyses.
package dst

import (
	"errors"
	"fmt"
	"math"
	"time"

	"cosmicdance/internal/stats"
	"cosmicdance/internal/units"
)

// Index is a contiguous hourly Dst series: one reading per hour from its
// start hour (UTC), NaN for a missing hour.
type Index struct {
	start  time.Time
	values []float64
}

// ErrMisaligned is returned when Append is given an index that does not
// start where the index it extends ends.
var ErrMisaligned = errors.New("dst: hourly indexes are not hour-aligned")

// FromValues builds an index over raw hourly readings starting at start,
// truncated to the hour (UTC). values is not copied.
func FromValues(start time.Time, values []float64) *Index {
	return &Index{start: start.UTC().Truncate(time.Hour), values: values}
}

// Len returns the number of hourly readings.
func (x *Index) Len() int { return len(x.values) }

// Start returns the timestamp of the first reading.
func (x *Index) Start() time.Time { return x.start }

// End returns the timestamp one hour past the last reading.
func (x *Index) End() time.Time { return x.TimeAt(len(x.values)) }

// Values returns the readings. Callers must not resize it.
func (x *Index) Values() []float64 { return x.values }

// TimeAt returns the timestamp of reading i.
func (x *Index) TimeAt(i int) time.Time { return x.start.Add(time.Duration(i) * time.Hour) }

// hour returns the slot for t, and whether t falls inside the index.
func (x *Index) hour(t time.Time) (int, bool) {
	i := int(t.UTC().Sub(x.start) / time.Hour)
	return i, i >= 0 && i < len(x.values)
}

// At returns the reading covering t.
func (x *Index) At(t time.Time) (units.NanoTesla, bool) {
	i, ok := x.hour(t)
	if !ok {
		return 0, false
	}
	return units.NanoTesla(x.values[i]), true
}

// Slice returns the sub-index covering [from, to), both bounds clamped to
// the index's extent. It shares x's readings.
func (x *Index) Slice(from, to time.Time) *Index {
	lo, _ := x.hour(from)
	hi, _ := x.hour(to)
	lo = max(lo, 0)
	hi = min(hi, len(x.values))
	if lo >= hi {
		return &Index{start: x.TimeAt(lo)}
	}
	return &Index{start: x.TimeAt(lo), values: x.values[lo:hi]}
}

// Append extends x with the readings of next, which must start exactly
// where x ends; an empty x takes next's start. This is how incremental Dst
// fetches are stitched together.
func (x *Index) Append(next *Index) error {
	if next.Len() == 0 {
		return nil
	}
	if x.Len() == 0 {
		x.start = next.start
	} else if !next.start.Equal(x.End()) {
		return fmt.Errorf("%w: have end %v, append start %v", ErrMisaligned, x.End(), next.start)
	}
	x.values = append(x.values, next.values...)
	return nil
}

// Min returns the most negative reading (peak storm intensity) and its time,
// the first such hour on a tie. Missing hours (NaN) are skipped; an index
// with no reading present returns 0 and the zero time, as an empty one does.
func (x *Index) Min() (units.NanoTesla, time.Time) {
	best, at := 0.0, -1
	for i, v := range x.values {
		if !math.IsNaN(v) && (at < 0 || v < best) {
			best, at = v, i
		}
	}
	if at < 0 {
		return 0, time.Time{}
	}
	return units.NanoTesla(best), x.TimeAt(at)
}

// IntensityPercentile returns the Dst level whose *intensity* (|negative
// excursion|) is at the p-th percentile. The paper's "99th-ptile intensity:
// −63 nT" means 99% of hours are less intense (less negative) than −63 nT, so
// this is the (100−p)-th percentile of the raw signed values. Missing hours
// (NaN) are not ranked: the percentile is over the hours present, and
// stats.ErrEmpty when none is.
func (x *Index) IntensityPercentile(p float64) (units.NanoTesla, error) {
	present := make([]float64, 0, len(x.values))
	for _, v := range x.values {
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
	for _, v := range x.values {
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
	return x.runs(func(v units.NanoTesla) bool { return v <= threshold })
}

// BandRuns returns every maximal run of consecutive hours whose reading lies
// within (lo, hi] — e.g. the moderate band is (-200, -100]. This is the
// duration notion behind Fig 2: the paper's "severe storm lasted 3 contiguous
// hours" counts exactly the hours at severe depth.
func (x *Index) BandRuns(lo, hi units.NanoTesla) []Storm {
	return x.runs(func(v units.NanoTesla) bool { return v > lo && v <= hi })
}

// runs returns every maximal run of consecutive hours whose reading
// satisfies in, in time order, with each run's most negative reading (the
// first on a tie) as its peak. A NaN reading ends a run without being
// passed to in.
func (x *Index) runs(in func(units.NanoTesla) bool) []Storm {
	var out []Storm
	inRun := false
	var cur Storm
	for i, v := range x.values {
		hit := !math.IsNaN(v) && in(units.NanoTesla(v))
		switch {
		case hit && !inRun:
			inRun = true
			cur = Storm{Start: x.TimeAt(i), Hours: 1, Peak: units.NanoTesla(v), PeakAt: x.TimeAt(i)}
		case hit && inRun:
			cur.Hours++
			if units.NanoTesla(v) < cur.Peak {
				cur.Peak = units.NanoTesla(v)
				cur.PeakAt = x.TimeAt(i)
			}
		case !hit && inRun:
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
