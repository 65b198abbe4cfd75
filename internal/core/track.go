package core

import (
	"sort"
	"time"

	"cosmicdance/internal/stats"
)

// TrackPoint is one cleaned trajectory observation.
type TrackPoint struct {
	Epoch int64 // unix seconds
	AltKm float32
	BStar float32
	Incl  float32
}

// Time returns the observation epoch.
func (p TrackPoint) Time() time.Time { return time.Unix(p.Epoch, 0).UTC() }

// Track is one satellite's cleaned trajectory history.
type Track struct {
	Catalog int
	// Points is the cleaned, epoch-ascending history: gross errors and the
	// orbit-raising prefix removed.
	Points []TrackPoint
	// OperationalAltKm is the satellite's long-term operational altitude
	// (the paper's "median long-term altitude"), estimated from the densest
	// altitude band of the cleaned track.
	OperationalAltKm float64
	// RaisingRemoved counts points dropped as the orbit-raising prefix.
	RaisingRemoved int
}

// At returns the last point at or before t. ok is false when the track has
// no observation yet.
func (tr *Track) At(t time.Time) (TrackPoint, bool) {
	i := tr.after(t.Unix())
	if i == 0 {
		return TrackPoint{}, false
	}
	return tr.Points[i-1], true
}

// Window returns the points with from <= epoch <= to.
func (tr *Track) Window(from, to time.Time) []TrackPoint {
	lo, hi := tr.from(from.Unix()), tr.after(to.Unix())
	if lo >= hi {
		return nil
	}
	return tr.Points[lo:hi]
}

// after returns the index of the first point with Epoch > ts. The binary
// search is written out: sort.Search's closure call per probe cost more
// than the comparison it wraps.
func (tr *Track) after(ts int64) int {
	lo, hi := 0, len(tr.Points)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if tr.Points[m].Epoch > ts {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo
}

// from returns the index of the first point with Epoch >= ts.
func (tr *Track) from(ts int64) int {
	lo, hi := 0, len(tr.Points)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if tr.Points[m].Epoch >= ts {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo
}

// Span returns the first and last epochs; ok is false for empty tracks.
func (tr *Track) Span() (first, last time.Time, ok bool) {
	if len(tr.Points) == 0 {
		return time.Time{}, time.Time{}, false
	}
	return tr.Points[0].Time(), tr.Points[len(tr.Points)-1].Time(), true
}

// operationalAltitude estimates the long-term operational altitude: the
// median of points within ±bandKm of the 75th-percentile altitude. The upper
// quartile is robust against decay tails (which drag the plain median down)
// while the ±band median is robust against the few gross errors that survive
// the sanity cut.
func operationalAltitude(points []TrackPoint, bandKm float64) float64 {
	if len(points) == 0 {
		return 0
	}
	alts := make([]float64, len(points))
	for i, p := range points {
		alts[i] = float64(p.AltKm)
	}
	// CleanTrack's callers cut gross errors first, so no NaN and no zero
	// reaches this sort: the kernel's order is sort.Float64s's, bit for bit.
	stats.SortFloat64s(alts)
	p75 := alts[(len(alts)*3)/4]
	lo := sort.SearchFloat64s(alts, p75-bandKm)
	hi := sort.SearchFloat64s(alts, p75+bandKm)
	band := alts[lo:hi]
	if len(band) == 0 {
		return p75
	}
	return band[len(band)/2]
}
