// Package timeseries provides the time-ordered containers CosmicDance uses
// for hourly data (the Dst index) and for timestamped samples.
package timeseries

import (
	"errors"
	"fmt"
	"time"
)

// Sample is one timestamped observation.
type Sample struct {
	At    time.Time
	Value float64
}

// Hourly is a dense series with exactly one value per hour starting at Start
// (which is truncated to the hour, UTC). It is the natural container for the
// WDC Kyoto Dst index.
type Hourly struct {
	Start  time.Time
	values []float64
}

// NewHourly allocates an hourly series of n hours starting at start.
func NewHourly(start time.Time, n int) *Hourly {
	return &Hourly{Start: start.UTC().Truncate(time.Hour), values: make([]float64, n)}
}

// FromValues wraps an existing value slice (not copied).
func FromValues(start time.Time, values []float64) *Hourly {
	return &Hourly{Start: start.UTC().Truncate(time.Hour), values: values}
}

// Len returns the number of hours in the series.
func (h *Hourly) Len() int { return len(h.values) }

// End returns the timestamp one hour past the final sample.
func (h *Hourly) End() time.Time { return h.Start.Add(time.Duration(len(h.values)) * time.Hour) }

// Values returns the backing values. Callers must not resize it.
func (h *Hourly) Values() []float64 { return h.values }

// TimeAt returns the timestamp of index i.
func (h *Hourly) TimeAt(i int) time.Time { return h.Start.Add(time.Duration(i) * time.Hour) }

// Index returns the slot for t, and whether t falls inside the series.
func (h *Hourly) Index(t time.Time) (int, bool) {
	i := int(t.UTC().Sub(h.Start) / time.Hour)
	return i, i >= 0 && i < len(h.values)
}

// ValueAt returns the reading covering time t.
func (h *Hourly) ValueAt(t time.Time) (float64, bool) {
	i, ok := h.Index(t)
	if !ok {
		return 0, false
	}
	return h.values[i], true
}

// Set stores v at index i.
func (h *Hourly) Set(i int, v float64) { h.values[i] = v }

// Slice returns the hourly sub-series covering [from, to). Both bounds are
// clamped to the series extent.
func (h *Hourly) Slice(from, to time.Time) *Hourly {
	lo, _ := h.Index(from)
	hi, _ := h.Index(to)
	if lo < 0 {
		lo = 0
	}
	if hi > len(h.values) {
		hi = len(h.values)
	}
	if lo >= hi {
		return &Hourly{Start: h.Start.Add(time.Duration(lo) * time.Hour)}
	}
	return &Hourly{Start: h.TimeAt(lo), values: h.values[lo:hi]}
}

// ErrMisaligned is returned when two hourly series cannot be merged because
// their hour grids differ.
var ErrMisaligned = errors.New("timeseries: hourly series are not hour-aligned")

// Append extends h with the contents of other, which must start exactly where
// h ends. This is how incremental Dst fetches are stitched together.
func (h *Hourly) Append(other *Hourly) error {
	if other.Len() == 0 {
		return nil
	}
	if h.Len() == 0 {
		h.Start = other.Start
		h.values = append(h.values, other.values...)
		return nil
	}
	if !other.Start.Equal(h.End()) {
		return fmt.Errorf("%w: have end %v, append start %v", ErrMisaligned, h.End(), other.Start)
	}
	h.values = append(h.values, other.values...)
	return nil
}
