package artifact

import (
	"bytes"
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
	sr := newSectionReader(r, KindSegment)
	chunk, p := readPartial(sr, 0)
	if err := sr.close(); err != nil {
		return 0, nil, err
	}
	return chunk, p, nil
}

// dirEntryBytes is the size of one track directory entry: catalog, point
// count, operational altitude and raising-removed count.
const dirEntryBytes = 20

// segmentBytes is the exact length of p's segment: the container header and
// trailer, seven framed sections, the meta record, a directory entry per
// track, the four column values per point and one float64 per raw
// altitude. It sizes a segment's buffer before the first byte is written.
func segmentBytes(p *core.ChunkPartial) int {
	const (
		container  = 12 + 4          // header, trailer
		framing    = 7 * (4 + 8 + 4) // each section's id, length and CRC
		metaBytes  = 8 + 4 + 7*8     // chunk, track count, seven int64 counts
		pointBytes = 8 + 3*4         // epoch, three float32 columns
	)
	n := container + framing + metaBytes + dirEntryBytes*len(p.Tracks) + 8*len(p.RawAlts)
	for _, tr := range p.Tracks {
		n += pointBytes * len(tr.Points)
	}
	return n
}

// segmentBlob encodes p's segment into one buffer of its exact size.
func segmentBlob(chunk int, p *core.ChunkPartial) ([]byte, error) {
	buf := bytes.NewBuffer(make([]byte, 0, segmentBytes(p)))
	err := EncodeSegment(buf, chunk, p)
	return buf.Bytes(), err
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

	// The five columns share one buffer, filled straight from the records
	// one column at a time, so an encode holds a single column beside the
	// bytes it has written; readPartial likewise holds one payload at a
	// time. Holding every column at once raised the peak RSS of chunked
	// runs, whose heaps are a few MB, through the collector's pacing.
	col := make([]byte, 8*max(nPoints, len(p.RawAlts)))
	for k, width := range [4]int{8, 4, 4, 4} {
		i := 0
		for _, tr := range p.Tracks {
			for _, pt := range tr.Points {
				switch k {
				case 0:
					le.PutUint64(col[8*i:], uint64(pt.Epoch))
				case 1:
					putF32(col, i, pt.AltKm)
				case 2:
					putF32(col, i, pt.BStar)
				default:
					putF32(col, i, pt.Incl)
				}
				i++
			}
		}
		sw.section(base+2+uint32(k), col[:width*nPoints])
	}
	for i, v := range p.RawAlts {
		putF64(col, i, v)
	}
	sw.section(base+6, col[:8*len(p.RawAlts)])
}

// readPartial reads the partial body writePartial wrote at base, returning
// its chunk index and the partial, or a nil partial once sr has failed. It
// fails closed on any damage or non-canonical content.
func readPartial(sr *sectionReader, base uint32) (int, *core.ChunkPartial) {
	meta := sr.record(base)
	chunk := meta.i64()
	nTracks := meta.u32()
	nPoints := meta.i64()
	nRaw := meta.i64()
	var stats [5]int64
	for k := range stats {
		stats[k] = meta.i64()
	}
	meta.done()
	if chunk < 0 || chunk > 1<<31 || nTracks > 1<<24 || nPoints < 0 || nPoints > 1<<31 || nRaw < 0 || nRaw > 1<<31 {
		sr.fail(ErrCorrupt, "partial claims chunk %d, %d tracks, %d points", chunk, nTracks, nPoints)
	}
	// Every count sizes an allocation only once the section it counts has
	// arrived whole: the directory holds exactly nTracks entries and each
	// column exactly nPoints (or nRaw) values.
	dir := sr.column(base+1, dirEntryBytes, int(nTracks))
	// One flat point arena, sliced per track: a single allocation for the
	// whole body, sized once the epoch column has arrived. Each column is
	// decoded into it as it arrives, so the body holds one column payload
	// at a time beside the arena.
	epochs := sr.column(base+2, 8, int(nPoints))
	if sr.err != nil {
		return 0, nil
	}
	points := make([]core.TrackPoint, nPoints)
	for i := range points {
		points[i].Epoch = int64(le.Uint64(epochs[8*i:]))
	}
	alts := sr.column(base+3, 4, int(nPoints))
	for i := range len(alts) / 4 {
		points[i].AltKm = getF32(alts, i)
	}
	bstars := sr.column(base+4, 4, int(nPoints))
	for i := range len(bstars) / 4 {
		points[i].BStar = getF32(bstars, i)
	}
	incls := sr.column(base+5, 4, int(nPoints))
	for i := range len(incls) / 4 {
		points[i].Incl = getF32(incls, i)
	}
	p := &core.ChunkPartial{
		RawAlts: f64s(sr.column(base+6, 8, int(nRaw))),
		Stats: core.CleaningStats{
			TotalObservations: int(stats[0]),
			GrossErrors:       int(stats[1]),
			RaisingRemoved:    int(stats[2]),
			NonOperational:    int(stats[3]),
			Duplicates:        int(stats[4]),
		},
	}
	if !core.RawAltsCanonical(p.RawAlts) {
		sr.fail(ErrCorrupt, "partial raw altitudes not in canonical order")
	}
	// Canonical form: strictly catalog-ascending tracks, none empty, whose
	// point counts sum to nPoints.
	entries := recordParser{sr: sr, buf: dir}
	p.Tracks = make([]*core.Track, nTracks)
	off := 0
	for i := range p.Tracks {
		tr := &core.Track{Catalog: int(entries.u32())}
		n := int(entries.u32())
		tr.OperationalAltKm = entries.f64()
		tr.RaisingRemoved = int(entries.u32())
		if (i > 0 && tr.Catalog <= p.Tracks[i-1].Catalog) || n == 0 || n > len(points)-off {
			sr.fail(ErrCorrupt, "partial track %d (catalog %d, %d points) is out of catalog order, empty or past the %d points left",
				i, tr.Catalog, n, len(points)-off)
			return 0, nil
		}
		tr.Points = points[off : off+n : off+n]
		p.Tracks[i] = tr
		off += n
	}
	if off != len(points) {
		sr.fail(ErrCorrupt, "partial directory sums to %d points, meta claims %d", off, nPoints)
		return 0, nil
	}
	return int(chunk), p
}
