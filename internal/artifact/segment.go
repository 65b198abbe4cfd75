package artifact

import (
	"fmt"
	"io"

	"cosmicdance/internal/core"
)

// --- segment (core.ChunkPartial) ---
//
// A segment is one chunk's share of a dataset build, stored through the
// same section/CRC container as every other snapshot kind. It carries no
// weather (the pipeline holds one weather series for every chunk) and no
// cleaned altitudes (they are derivable from the track points, so storing
// them would only create a corruption channel).
//
// A segment is exactly one partial body (writePartial): sections 0 = meta
// (chunk index, counts, cleaning stats), 1 = track directory, 2..5 = one
// column per TrackPoint field over all tracks concatenated, 6 = raw
// altitudes in canonical total order. A dataset snapshot carries the same
// body after its weather sections.
//
// The reader enforces canonical form — strictly catalog-ascending non-empty
// tracks, raw altitudes in canonical order — so any decoded body re-encodes
// to the identical bytes and a forged or damaged one can never smuggle a
// non-canonical partial into an assembly.

// EncodeSegment writes one chunk partial as a segment snapshot.
func EncodeSegment(w io.Writer, chunk int, p *core.ChunkPartial) error {
	sw := newSectionWriter(w, KindSegment)
	writePartial(sw, 0, chunk, p)
	return sw.close()
}

// DecodeSegment reads a segment snapshot, failing closed on any damage or
// non-canonical content. It returns the chunk index the segment was encoded
// for alongside the partial.
func DecodeSegment(r io.Reader) (int, *core.ChunkPartial, error) {
	sr, err := newSectionReader(r, KindSegment)
	if err != nil {
		return 0, nil, err
	}
	chunk, p, err := readPartial(sr, 0)
	if err != nil {
		return 0, nil, err
	}
	if err := sr.closeTrailer(); err != nil {
		return 0, nil, err
	}
	return chunk, p, nil
}

// writePartial writes p, tagged with its chunk index, as the seven partial
// sections starting at id base.
func writePartial(sw *sectionWriter, base uint32, chunk int, p *core.ChunkPartial) {
	nPoints := 0
	for _, tr := range p.Tracks {
		nPoints += len(tr.Points)
	}

	var meta recordBuf
	meta.i64(int64(chunk))
	meta.u32(uint32(len(p.Tracks)))
	meta.i64(int64(nPoints))
	meta.i64(int64(len(p.RawAlts)))
	meta.i64(int64(p.Stats.TotalObservations))
	meta.i64(int64(p.Stats.GrossErrors))
	meta.i64(int64(p.Stats.RaisingRemoved))
	meta.i64(int64(p.Stats.NonOperational))
	meta.i64(int64(p.Stats.Duplicates))
	sw.section(base, meta.buf)

	var dir recordBuf
	for _, tr := range p.Tracks {
		dir.u32(uint32(tr.Catalog))
		dir.u32(uint32(len(tr.Points)))
		dir.f64(tr.OperationalAltKm)
		dir.u32(uint32(tr.RaisingRemoved))
	}
	sw.section(base+1, dir.buf)

	epochs := make([]int64, nPoints)
	alts := make([]float32, nPoints)
	bstars := make([]float32, nPoints)
	incls := make([]float32, nPoints)
	i := 0
	for _, tr := range p.Tracks {
		for _, pt := range tr.Points {
			epochs[i] = pt.Epoch
			alts[i] = pt.AltKm
			bstars[i] = pt.BStar
			incls[i] = pt.Incl
			i++
		}
	}
	sw.section(base+2, packI64(epochs))
	sw.section(base+3, packF32(alts))
	sw.section(base+4, packF32(bstars))
	sw.section(base+5, packF32(incls))
	sw.section(base+6, packF64(p.RawAlts))
}

// readPartial reads the partial body writePartial wrote at base, returning
// its chunk index and the partial. It fails closed on any damage or
// non-canonical content.
func readPartial(sr *sectionReader, base uint32) (int, *core.ChunkPartial, error) {
	meta, err := sr.section(base)
	if err != nil {
		return 0, nil, err
	}
	mp := &recordParser{buf: meta}
	chunk, err := mp.i64()
	if err != nil {
		return 0, nil, err
	}
	nTracks, err := mp.u32()
	if err != nil {
		return 0, nil, err
	}
	var counts [2]int64 // points, raw
	for k := range counts {
		if counts[k], err = mp.i64(); err != nil {
			return 0, nil, err
		}
	}
	var statFields [5]int64
	for k := range statFields {
		if statFields[k], err = mp.i64(); err != nil {
			return 0, nil, err
		}
	}
	if err := mp.done(); err != nil {
		return 0, nil, err
	}
	nPoints, nRaw := counts[0], counts[1]
	if chunk < 0 || chunk > 1<<31 || nTracks > 1<<24 || nPoints < 0 || nPoints > 1<<31 || nRaw < 0 || nRaw > 1<<31 {
		return 0, nil, fmt.Errorf("%w: partial claims chunk %d, %d tracks, %d points", ErrCorrupt, chunk, nTracks, nPoints)
	}
	p := &core.ChunkPartial{Stats: core.CleaningStats{
		TotalObservations: int(statFields[0]),
		GrossErrors:       int(statFields[1]),
		RaisingRemoved:    int(statFields[2]),
		NonOperational:    int(statFields[3]),
		Duplicates:        int(statFields[4]),
	}}

	dirPayload, err := sr.section(base + 1)
	if err != nil {
		return 0, nil, err
	}
	dp := &recordParser{buf: dirPayload}
	type dirEntry struct {
		catalog, nPoints, raisingRemoved uint32
		opAlt                            float64
	}
	dir := make([]dirEntry, nTracks)
	total := int64(0)
	prevCat := int64(-1)
	for i := range dir {
		if dir[i].catalog, err = dp.u32(); err != nil {
			return 0, nil, err
		}
		if dir[i].nPoints, err = dp.u32(); err != nil {
			return 0, nil, err
		}
		if dir[i].opAlt, err = dp.f64(); err != nil {
			return 0, nil, err
		}
		if dir[i].raisingRemoved, err = dp.u32(); err != nil {
			return 0, nil, err
		}
		if int64(dir[i].catalog) <= prevCat {
			return 0, nil, fmt.Errorf("%w: partial tracks out of catalog order", ErrCorrupt)
		}
		if dir[i].nPoints == 0 {
			return 0, nil, fmt.Errorf("%w: partial track %d is empty", ErrCorrupt, dir[i].catalog)
		}
		prevCat = int64(dir[i].catalog)
		total += int64(dir[i].nPoints)
	}
	if err := dp.done(); err != nil {
		return 0, nil, err
	}
	if total != nPoints {
		return 0, nil, fmt.Errorf("%w: partial directory sums to %d points, meta claims %d", ErrCorrupt, total, nPoints)
	}

	epochs, err := readI64Col(sr, base+2, int(nPoints))
	if err != nil {
		return 0, nil, err
	}
	alts, err := readF32Col(sr, base+3, int(nPoints))
	if err != nil {
		return 0, nil, err
	}
	bstars, err := readF32Col(sr, base+4, int(nPoints))
	if err != nil {
		return 0, nil, err
	}
	incls, err := readF32Col(sr, base+5, int(nPoints))
	if err != nil {
		return 0, nil, err
	}
	rawPayload, err := sr.section(base + 6)
	if err != nil {
		return 0, nil, err
	}
	if p.RawAlts, err = unpackF64(rawPayload); err != nil {
		return 0, nil, err
	}
	if len(p.RawAlts) != int(nRaw) {
		return 0, nil, fmt.Errorf("%w: partial raw-altitude column disagrees with meta", ErrCorrupt)
	}
	if !core.RawAltsCanonical(p.RawAlts) {
		return 0, nil, fmt.Errorf("%w: partial raw altitudes not in canonical order", ErrCorrupt)
	}

	// One flat point arena, sliced per track: a single allocation for the
	// whole body.
	points := make([]core.TrackPoint, nPoints)
	for i := range points {
		points[i] = core.TrackPoint{Epoch: epochs[i], AltKm: alts[i], BStar: bstars[i], Incl: incls[i]}
	}
	p.Tracks = make([]*core.Track, nTracks)
	off := 0
	for i, de := range dir {
		p.Tracks[i] = &core.Track{
			Catalog:          int(de.catalog),
			Points:           points[off : off+int(de.nPoints) : off+int(de.nPoints)],
			OperationalAltKm: de.opAlt,
			RaisingRemoved:   int(de.raisingRemoved),
		}
		off += int(de.nPoints)
	}
	return int(chunk), p, nil
}
