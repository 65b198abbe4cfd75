package core

import (
	"fmt"
	"math"
	"time"

	"cosmicdance/internal/stats"
	"cosmicdance/internal/units"
)

// DailyDrag aggregates one day of fleet-wide drag observations (Fig 7's
// middle panel).
type DailyDrag struct {
	Day     time.Time
	Median  float64
	Mean    float64
	P95     float64
	Samples int
}

// TimedValue is one timestamped value of a SuperStormReport series.
type TimedValue struct {
	At    time.Time
	Value float64
}

// SuperStormReport is the Fig 7 product: the storm signal, the fleet's drag
// response, and the tracked-satellite count over a window.
type SuperStormReport struct {
	From, To time.Time
	// Dst is the hourly intensity over the window.
	Dst []TimedValue
	// Drag holds per-day fleet drag aggregates.
	Drag []DailyDrag
	// Tracked holds per-day counts of distinct satellites with at least one
	// observation in the trailing 72 hours (a TLE-visibility proxy for "still
	// tracked").
	Tracked []TimedValue
	// PeakDragRatio is max(daily median B*) / quiet-baseline median B*.
	PeakDragRatio float64
	// MinTrackedRatio is min(daily tracked) / max(daily tracked): 1.0 means
	// no satellite loss was visible.
	MinTrackedRatio float64
}

// SuperStorm builds the Fig 7 analysis over [from, to).
func (d *Dataset) SuperStorm(from, to time.Time) (*SuperStormReport, error) {
	if !to.After(from) {
		return nil, fmt.Errorf("core: empty super-storm window")
	}
	days := int(to.Sub(from) / (24 * time.Hour))
	if days < 2 {
		return nil, fmt.Errorf("core: super-storm window must span at least 2 days")
	}
	rep := &SuperStormReport{From: from, To: to}

	// Hourly Dst trace.
	slice := d.weather.Slice(from, to)
	for i, v := range slice.Values() {
		rep.Dst = append(rep.Dst, TimedValue{At: slice.TimeAt(i), Value: v})
	}

	// Daily fleet drag and tracked counts.
	var scratch []float64
	for day := 0; day < days; day++ {
		dayStart := from.Add(time.Duration(day) * 24 * time.Hour)
		dayEnd := dayStart.Add(24 * time.Hour)
		scratch = scratch[:0]
		for _, tr := range d.tracks {
			for _, p := range tr.Window(dayStart, dayEnd) {
				scratch = append(scratch, float64(p.BStar))
			}
		}
		dd := DailyDrag{Day: dayStart, Samples: len(scratch)}
		if len(scratch) > 0 {
			cdf, err := stats.NewCDF(scratch)
			if err != nil {
				return nil, err
			}
			dd.Median, _ = cdf.Percentile(50)
			dd.P95, _ = cdf.Percentile(95)
			dd.Mean, _ = stats.Mean(scratch)
		}
		rep.Drag = append(rep.Drag, dd)

		tracked := 0
		lookback := dayEnd.Add(-72 * time.Hour)
		for _, tr := range d.tracks {
			if len(tr.Window(lookback, dayEnd)) > 0 {
				tracked++
			}
		}
		rep.Tracked = append(rep.Tracked, TimedValue{At: dayStart, Value: float64(tracked)})
	}

	// Peak drag ratio vs the quietest day.
	quiet, peak := math.Inf(1), 0.0
	for _, dd := range rep.Drag {
		if dd.Samples == 0 {
			continue
		}
		if dd.Median < quiet {
			quiet = dd.Median
		}
		if dd.Median > peak {
			peak = dd.Median
		}
	}
	if quiet > 0 && !math.IsInf(quiet, 1) {
		rep.PeakDragRatio = peak / quiet
	}

	minT, maxT := math.Inf(1), 0.0
	for _, s := range rep.Tracked {
		if s.Value < minT {
			minT = s.Value
		}
		if s.Value > maxT {
			maxT = s.Value
		}
	}
	if maxT > 0 {
		rep.MinTrackedRatio = minT / maxT
	}
	return rep, nil
}

// SatTimeSeries is Fig 3's per-satellite panel: the Dst context merged with
// one satellite's drag and altitude history.
type SatTimeSeries struct {
	Catalog int
	Points  []SatTimePoint
}

// SatTimePoint is one merged row.
type SatTimePoint struct {
	At    time.Time
	Dst   units.NanoTesla
	AltKm float64
	BStar float64
}

// TimeSeries extracts the merged Fig 3 view for one satellite over a window.
func (d *Dataset) TimeSeries(catalog int, from, to time.Time) (*SatTimeSeries, error) {
	tr := d.Track(catalog)
	if tr == nil {
		return nil, fmt.Errorf("core: no track for catalog %d", catalog)
	}
	pts := tr.Window(from, to)
	if len(pts) == 0 {
		return nil, fmt.Errorf("core: catalog %d has no observations in window", catalog)
	}
	out := &SatTimeSeries{Catalog: catalog}
	for _, p := range pts {
		row := SatTimePoint{At: p.Time(), AltKm: float64(p.AltKm), BStar: float64(p.BStar)}
		if v, ok := d.weather.At(row.At); ok {
			row.Dst = v
		}
		out.Points = append(out.Points, row)
	}
	return out, nil
}
