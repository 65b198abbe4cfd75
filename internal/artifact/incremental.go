package artifact

import (
	"io"

	"cosmicdance/internal/incremental"
)

// --- incremental engine state (incremental.EngineState) ---
//
// Sections: 0 = meta (weather start, funnel counters, stream cursors),
// 1 = hourly Dst column, 2 = raw-altitude column,
// 3/4 = catalog + history-length columns, 5..8 = the concatenated
// per-catalog histories (epoch, altitude, B*, inclination).
//
// Only raw streams are packed: the snapshot stores what was ingested, and
// DecodeEngineState re-derives everything else through incremental.FromState,
// so a snapshot can never carry analysis that disagrees with its data.

// EncodeEngineState writes a live-engine snapshot.
func EncodeEngineState(w io.Writer, st *incremental.EngineState) error {
	sw := newSectionWriter(w, KindIncremental)

	var meta recordBuf
	meta.i64(st.WxStart)
	meta.i64(int64(st.TotalObservations))
	meta.i64(int64(st.GrossErrors))
	meta.i64(int64(st.Duplicates))
	meta.i64(int64(st.Seq))
	meta.i64(int64(st.Version))
	sw.section(0, meta.buf)

	sw.section(1, f64Column(st.Wx))
	sw.section(2, f64Column(st.RawAlts))
	sw.section(3, i64Column(st.Cats))
	sw.section(4, i64Column(st.ObsCounts))
	sw.section(5, i64Column(st.Epochs))
	sw.section(6, f64Column(st.Alts))
	sw.section(7, f64Column(st.BStars))
	sw.section(8, f64Column(st.Incls))
	return sw.close()
}

// DecodeEngineState reads a live-engine snapshot, failing closed on any
// damage. The caller hands the result to incremental.FromState, which
// enforces the cross-column invariants (history lengths, epoch order, the
// cleaning-funnel identity) and fails closed in turn.
func DecodeEngineState(r io.Reader) (*incremental.EngineState, error) {
	sr := newSectionReader(r, KindIncremental)
	meta := sr.record(0)
	st := &incremental.EngineState{WxStart: meta.i64()}
	total := meta.i64()
	gross := meta.i64()
	dups := meta.i64()
	st.Seq = uint64(meta.i64())
	st.Version = uint64(meta.i64())
	meta.done()
	if total < 0 || gross < 0 || dups < 0 {
		sr.fail(ErrCorrupt, "negative funnel counter in engine state")
	}
	st.TotalObservations = int(total)
	st.GrossErrors = int(gross)
	st.Duplicates = int(dups)
	st.Wx = sr.f64s(1, anyLen)
	st.RawAlts = sr.f64s(2, anyLen)
	st.Cats = i64s[int](sr, 3, anyLen)
	st.ObsCounts = i64s[int](sr, 4, anyLen)
	st.Epochs = i64s[int64](sr, 5, anyLen)
	st.Alts = sr.f64s(6, anyLen)
	st.BStars = sr.f64s(7, anyLen)
	st.Incls = sr.f64s(8, anyLen)
	if err := sr.close(); err != nil {
		return nil, err
	}
	return st, nil
}
