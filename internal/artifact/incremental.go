package artifact

import (
	"fmt"
	"io"
	"time"

	"cosmicdance/internal/incremental"
	"cosmicdance/internal/trigger"
	"cosmicdance/internal/units"
)

// --- incremental engine state (incremental.EngineState) ---
//
// Sections: 0 = meta (weather start, funnel counters, stream cursors, the
// trigger machine position), 1 = hourly Dst column, 2 = raw-altitude column,
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
	meta.u32(boolU32(st.Trigger.Active))
	meta.f64(float64(st.Trigger.Peak))
	meta.i64(int64(st.Trigger.Category))
	meta.i64(st.Trigger.ClearedAt.Unix())
	meta.u32(boolU32(st.Trigger.HasCleared))
	sw.section(0, meta.buf)

	sw.section(1, packF64(st.Wx))
	sw.section(2, packF64(st.RawAlts))
	sw.section(3, packI64(intsToI64(st.Cats)))
	sw.section(4, packI64(intsToI64(st.ObsCounts)))
	sw.section(5, packI64(st.Epochs))
	sw.section(6, packF64(st.Alts))
	sw.section(7, packF64(st.BStars))
	sw.section(8, packF64(st.Incls))
	return sw.close()
}

// DecodeEngineState reads a live-engine snapshot, failing closed on any
// damage. The caller hands the result to incremental.FromState, which
// enforces the cross-column invariants (history lengths, epoch order, the
// cleaning-funnel identity) and fails closed in turn.
func DecodeEngineState(r io.Reader) (*incremental.EngineState, error) {
	sr, err := newSectionReader(r, KindIncremental)
	if err != nil {
		return nil, err
	}
	meta, err := sr.section(0)
	if err != nil {
		return nil, err
	}
	p := &recordParser{buf: meta}
	st := &incremental.EngineState{}
	var total, gross, dups, seq, version int64
	var trigActive, trigCleared uint32
	var trigPeak float64
	var trigCategory, trigClearedAt int64
	fields := []struct {
		i64 *int64
		u32 *uint32
		f64 *float64
	}{
		{i64: &st.WxStart},
		{i64: &total},
		{i64: &gross},
		{i64: &dups},
		{i64: &seq},
		{i64: &version},
		{u32: &trigActive},
		{f64: &trigPeak},
		{i64: &trigCategory},
		{i64: &trigClearedAt},
		{u32: &trigCleared},
	}
	for _, f := range fields {
		switch {
		case f.i64 != nil:
			*f.i64, err = p.i64()
		case f.u32 != nil:
			*f.u32, err = p.u32()
		default:
			*f.f64, err = p.f64()
		}
		if err != nil {
			return nil, err
		}
	}
	if err := p.done(); err != nil {
		return nil, err
	}
	if total < 0 || gross < 0 || dups < 0 {
		return nil, fmt.Errorf("%w: negative funnel counter in engine state", ErrCorrupt)
	}
	// Strict canonical form: a flag is 0 or 1. Any other value would decode
	// as true and re-encode as 1, breaking bit-identity.
	if trigActive > 1 || trigCleared > 1 {
		return nil, fmt.Errorf("%w: non-canonical trigger flag in engine state", ErrCorrupt)
	}
	st.TotalObservations = int(total)
	st.GrossErrors = int(gross)
	st.Duplicates = int(dups)
	st.Seq = uint64(seq)
	st.Version = uint64(version)
	st.Trigger = trigger.State{
		Active:     trigActive != 0,
		Peak:       units.NanoTesla(trigPeak),
		Category:   units.GScale(trigCategory),
		ClearedAt:  time.Unix(trigClearedAt, 0).UTC(),
		HasCleared: trigCleared != 0,
	}

	if st.Wx, err = readF64Section(sr, 1); err != nil {
		return nil, err
	}
	if st.RawAlts, err = readF64Section(sr, 2); err != nil {
		return nil, err
	}
	cats, err := readI64Section(sr, 3)
	if err != nil {
		return nil, err
	}
	counts, err := readI64Section(sr, 4)
	if err != nil {
		return nil, err
	}
	st.Cats = i64ToInts(cats)
	st.ObsCounts = i64ToInts(counts)
	if st.Epochs, err = readI64Section(sr, 5); err != nil {
		return nil, err
	}
	if st.Alts, err = readF64Section(sr, 6); err != nil {
		return nil, err
	}
	if st.BStars, err = readF64Section(sr, 7); err != nil {
		return nil, err
	}
	if st.Incls, err = readF64Section(sr, 8); err != nil {
		return nil, err
	}
	if err := sr.closeTrailer(); err != nil {
		return nil, err
	}
	return st, nil
}

func readF64Section(sr *sectionReader, id uint32) ([]float64, error) {
	payload, err := sr.section(id)
	if err != nil {
		return nil, err
	}
	return unpackF64(payload)
}

func readI64Section(sr *sectionReader, id uint32) ([]int64, error) {
	payload, err := sr.section(id)
	if err != nil {
		return nil, err
	}
	return unpackI64(payload)
}

func boolU32(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

func intsToI64(vals []int) []int64 {
	out := make([]int64, len(vals))
	for i, v := range vals {
		out[i] = int64(v)
	}
	return out
}

func i64ToInts(vals []int64) []int {
	out := make([]int, len(vals))
	for i, v := range vals {
		out[i] = int(v)
	}
	return out
}
