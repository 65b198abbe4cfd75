package incremental

import (
	"fmt"
	"math"
	"slices"
	"time"

	"cosmicdance/internal/core"
)

// EngineState is the engine's complete resumable state in columnar form:
// the weather stream, the cleaning-funnel counters, and the per-catalog
// observation histories flattened into parallel columns (the shape the
// artifact codec packs section by section). Everything derived — cleaned
// tracks, the storm machine, events, deviations, onsets — is deliberately
// absent: FromState replays the streams to re-derive it, so a snapshot can
// never disagree with the data it carries.
type EngineState struct {
	// WxStart is the Unix second of the first Dst hour (0 when Wx is empty).
	WxStart int64
	// Wx is the ingested hourly Dst stream.
	Wx []float64
	// TotalObservations, GrossErrors and Duplicates are the funnel counters
	// for rows that did not land in the histories.
	TotalObservations int
	GrossErrors       int
	Duplicates        int
	// RawAlts is every ingested altitude in ingest order.
	RawAlts []float64
	// Cats lists the catalogs with at least one valid observation,
	// ascending; ObsCounts[i] is catalog Cats[i]'s history length.
	Cats      []int
	ObsCounts []int
	// Epochs/Alts/BStars/Incls are the concatenated per-catalog histories,
	// catalog-major, epoch-ascending within a catalog.
	Epochs []int64
	Alts   []float64
	BStars []float64
	Incls  []float64
	// Seq and Version resume the delta stream and the staleness check.
	Seq     uint64
	Version uint64
}

// State snapshots the engine. The returned state shares nothing with the
// engine — further ingests do not disturb it.
func (e *Engine) State() EngineState {
	st := EngineState{
		Wx:                slices.Clone(e.wx),
		TotalObservations: e.totalObs,
		GrossErrors:       e.grossErr,
		Duplicates:        e.dupRows,
		RawAlts:           slices.Clone(e.rawAlts),
		Cats:              slices.Clone(e.cats),
		ObsCounts:         make([]int, len(e.cats)),
		Seq:               e.seq,
		Version:           e.version,
	}
	if len(e.wx) > 0 {
		st.WxStart = e.wxStart.Unix()
	}
	n := 0
	for _, cat := range e.cats {
		n += len(e.tracks[cat].obs)
	}
	st.Epochs = make([]int64, 0, n)
	st.Alts = make([]float64, 0, n)
	st.BStars = make([]float64, 0, n)
	st.Incls = make([]float64, 0, n)
	for i, cat := range e.cats {
		obs := e.tracks[cat].obs
		st.ObsCounts[i] = len(obs)
		for _, o := range obs {
			st.Epochs = append(st.Epochs, o.Epoch)
			st.Alts = append(st.Alts, o.AltKm)
			st.BStars = append(st.BStars, o.BStar)
			st.Incls = append(st.Incls, o.Incl)
		}
	}
	return st
}

// FromState restores an engine from a snapshot by replaying it. After
// checking the columnar invariants, and failing closed on any violation, it
// feeds the snapshot's Dst stream and histories through IngestDst and
// IngestObservations on an engine with no delta sink, so the storm machine,
// events, tracks, onsets and the association join are exactly what a live
// engine derives from the same streams. It then takes the funnel counters,
// the raw-altitude column, Seq and Version from the snapshot: the replay is
// silent, and the restored feed resumes at Seq exactly where the
// snapshotted one stopped.
func FromState(cfg Config, st EngineState) (*Engine, error) {
	if len(st.Cats) != len(st.ObsCounts) {
		return nil, fmt.Errorf("incremental: state has %d catalogs but %d history lengths", len(st.Cats), len(st.ObsCounts))
	}
	n := 0
	for i, c := range st.ObsCounts {
		if c <= 0 || c > len(st.Epochs)-n {
			return nil, fmt.Errorf("incremental: state catalog %d has history length %d, %d rows left", st.Cats[i], c, len(st.Epochs)-n)
		}
		n += c
	}
	if len(st.Epochs) != n || len(st.Alts) != n || len(st.BStars) != n || len(st.Incls) != n {
		return nil, fmt.Errorf("incremental: state history columns disagree: %d counted, %d/%d/%d/%d stored",
			n, len(st.Epochs), len(st.Alts), len(st.BStars), len(st.Incls))
	}
	if len(st.RawAlts) != st.TotalObservations {
		return nil, fmt.Errorf("incremental: state has %d raw altitudes for %d observations", len(st.RawAlts), st.TotalObservations)
	}
	// Both counters are bounded by the total before they are summed, so the
	// sum cannot wrap.
	if st.GrossErrors < 0 || st.Duplicates < 0 || st.GrossErrors > st.TotalObservations || st.Duplicates > st.TotalObservations ||
		st.TotalObservations != n+st.GrossErrors+st.Duplicates {
		return nil, fmt.Errorf("incremental: state funnel disagrees: %d total, %d rows + %d gross + %d duplicates",
			st.TotalObservations, n, st.GrossErrors, st.Duplicates)
	}
	if len(st.Wx) == 0 && st.WxStart != 0 {
		return nil, fmt.Errorf("incremental: state has a weather start %d but no weather", st.WxStart)
	}
	for i, v := range st.Wx {
		if math.IsInf(v, 0) {
			return nil, fmt.Errorf("incremental: state Dst hour %d is %v", i, v)
		}
	}
	batch := make([]core.Observation, n)
	off := 0
	for i, cat := range st.Cats {
		if i > 0 && cat <= st.Cats[i-1] {
			return nil, fmt.Errorf("incremental: state catalogs out of order at %d (%d after %d)", i, cat, st.Cats[i-1])
		}
		for j := off; j < off+st.ObsCounts[i]; j++ {
			o := core.Observation{Catalog: cat, Epoch: st.Epochs[j], AltKm: st.Alts[j], BStar: st.BStars[j], Incl: st.Incls[j]}
			if cfg.Core.GrossError(o.AltKm) {
				return nil, fmt.Errorf("incremental: state catalog %d carries gross-error altitude %.3f", cat, o.AltKm)
			}
			if j > off && o.Epoch <= batch[j-1].Epoch {
				return nil, fmt.Errorf("incremental: state catalog %d history not strictly epoch-ascending", cat)
			}
			batch[j] = o
		}
		off += st.ObsCounts[i]
	}

	e := New(cfg)
	if len(st.Wx) > 0 {
		if _, err := e.IngestDst(time.Unix(st.WxStart, 0).UTC(), st.Wx); err != nil {
			return nil, err
		}
	}
	e.IngestObservations(batch)
	e.totalObs = st.TotalObservations
	e.grossErr = st.GrossErrors
	e.dupRows = st.Duplicates
	e.rawAlts = slices.Clone(st.RawAlts)
	e.seq = st.Seq
	e.version = st.Version
	return e, nil
}
