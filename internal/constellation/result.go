package constellation

import (
	"fmt"
	"io"
	"sort"
	"time"

	"cosmicdance/internal/tle"
)

// SatSeries is one satellite's time-ordered tracking history.
type SatSeries struct {
	Catalog int
	Samples []Sample // ascending by epoch
}

// GroupByCatalog reorganizes the archive into per-satellite histories
// (ascending epochs). The samples are copied once; the Result is unchanged.
func (r *Result) GroupByCatalog() []SatSeries {
	counts := make(map[int32]int)
	for i := range r.Samples {
		counts[r.Samples[i].Catalog]++
	}
	cats := make([]int32, 0, len(counts))
	for c := range counts {
		cats = append(cats, c)
	}
	sort.Slice(cats, func(i, j int) bool { return cats[i] < cats[j] })

	offset := make(map[int32]int, len(cats))
	total := 0
	for _, c := range cats {
		offset[c] = total
		total += counts[c]
	}
	flat := make([]Sample, total)
	cursor := make(map[int32]int, len(cats))
	for _, s := range r.Samples {
		i := offset[s.Catalog] + cursor[s.Catalog]
		flat[i] = s
		cursor[s.Catalog]++
	}
	out := make([]SatSeries, len(cats))
	for i, c := range cats {
		series := flat[offset[c] : offset[c]+counts[c]]
		// Result.Samples is emitted in simulation-time order, so each
		// per-satellite run is already ascending; sort defensively only if
		// needed.
		if !sort.SliceIsSorted(series, func(a, b int) bool { return series[a].Epoch < series[b].Epoch }) {
			sort.Slice(series, func(a, b int) bool { return series[a].Epoch < series[b].Epoch })
		}
		out[i] = SatSeries{Catalog: int(c), Samples: series}
	}
	return out
}

// Series returns one satellite's history, or nil if it was never sampled.
func (r *Result) Series(catalog int) []Sample {
	var out []Sample
	for _, s := range r.Samples {
		if int(s.Catalog) == catalog {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Epoch < out[b].Epoch })
	return out
}

// Info returns the ground truth for one satellite.
func (r *Result) Info(catalog int) (SatInfo, bool) {
	for i := range r.Sats {
		if r.Sats[i].Catalog == catalog {
			return r.Sats[i], true
		}
	}
	return SatInfo{}, false
}

// TrackedCount returns how many satellites are being tracked at the given
// time: launched on or before it and not yet re-entered.
func (r *Result) TrackedCount(at time.Time) int {
	n := 0
	for i := range r.Sats {
		s := &r.Sats[i]
		if s.LaunchedAt.After(at) {
			continue
		}
		if s.Fate == PhaseReentered && !s.FateAt.IsZero() && s.FateAt.Before(at) {
			continue
		}
		n++
	}
	return n
}

// tleBatch is how many element sets WriteTLEs hands tle.Write at a time,
// so an archive (about 3M samples for the paper fleet) never exists as TLEs
// all at once.
const tleBatch = 1024

// WriteTLEs streams the archive as a textual 3LE catalog, the format the
// simulated Space-Track service serves, through tle.Write in batches of
// tleBatch sets. Samples whose altitude gives no TLE mean motion (an orbit
// radius at or below zero) are skipped; gross tracking errors near or
// beyond GEO remain expressible.
func (r *Result) WriteTLEs(w io.Writer, withNames bool) error {
	names := make(map[int32]string)
	if withNames {
		for i := range r.Sats {
			names[int32(r.Sats[i].Catalog)] = r.Sats[i].Name
		}
	}
	batch := make([]*tle.TLE, 0, tleBatch)
	for i, s := range r.Samples {
		if t, err := s.TLE(names[s.Catalog]); err == nil {
			batch = append(batch, t)
		}
		if len(batch) == tleBatch || i == len(r.Samples)-1 {
			if err := tle.Write(w, batch); err != nil {
				return fmt.Errorf("constellation: writing TLEs: %w", err)
			}
			batch = batch[:0]
		}
	}
	return nil
}
