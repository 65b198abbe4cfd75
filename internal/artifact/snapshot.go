package artifact

import (
	"fmt"
	"io"
	"slices"
	"time"

	"cosmicdance/internal/constellation"
	"cosmicdance/internal/core"
	"cosmicdance/internal/dst"
)

// --- weather (dst.Index) ---
//
// Sections: 0 = meta (start, length), 1 = hourly readings as a float64-bits
// column. A dataset snapshot opens with the same two sections.

// EncodeWeather writes an hourly Dst series snapshot.
func EncodeWeather(w io.Writer, x *dst.Index) error {
	sw := newSectionWriter(w, KindWeather)
	writeWeather(sw, x)
	return sw.close()
}

// DecodeWeather reads a weather snapshot, failing closed on any damage.
func DecodeWeather(r io.Reader) (*dst.Index, error) {
	sr := newSectionReader(r, KindWeather)
	x := readWeather(sr)
	if err := sr.close(); err != nil {
		return nil, err
	}
	return x, nil
}

// writeWeather writes the two weather sections, ids 0 and 1.
func writeWeather(sw *sectionWriter, x *dst.Index) {
	var meta recordBuf
	meta.i64(x.Start().Unix())
	meta.u32(uint32(x.Len()))
	sw.section(0, meta.buf)
	sw.section(1, f64Column(x.Values()))
}

// readWeather reads the two weather sections writeWeather wrote. It returns
// nil once sr has failed.
func readWeather(sr *sectionReader) *dst.Index {
	meta := sr.record(0)
	startUnix := meta.i64()
	n := int(meta.u32())
	meta.done()
	values := sr.f64s(1, n)
	if n == 0 {
		sr.fail(ErrCorrupt, "empty weather series")
	}
	if sr.err != nil {
		return nil
	}
	return dst.FromValues(time.Unix(startUnix, 0).UTC(), values)
}

// --- archive (constellation.Result) ---
//
// Sections: 0 = meta, 1 = per-satellite ground-truth table, 2..10 = one
// column per Sample field (catalog, epoch, then the seven float32 elements).

// minSatBytes is the smallest satellite record in an archive's table: the
// fixed fields around an empty name.
const minSatBytes = 68

// sampleBytes is the size of one sample across the archive's nine sample
// columns: catalog, epoch and seven float32 elements.
const sampleBytes = 4 + 8 + 7*4

// EncodeArchive writes a constellation-run snapshot.
func EncodeArchive(w io.Writer, res *constellation.Result) error {
	sw := newSectionWriter(w, KindArchive)

	var meta recordBuf
	meta.i64(res.Start.Unix())
	meta.u32(uint32(res.Hours))
	meta.u32(uint32(len(res.Sats)))
	meta.i64(int64(len(res.Samples)))
	sw.section(0, meta.buf)

	var sats recordBuf
	for i := range res.Sats {
		s := &res.Sats[i]
		sats.u32(uint32(s.Catalog))
		sats.str(s.Name)
		sats.u32(uint32(s.Shell))
		// Launch times carry sub-second jitter (the initial fleet is spread
		// across its anchor window at nanosecond precision), so seconds alone
		// would not round-trip bit-exactly.
		sats.i64(s.LaunchedAt.Unix())
		sats.u32(uint32(s.LaunchedAt.Nanosecond()))
		sats.f64(s.StagingAltKm)
		sats.f64(s.TargetAltKm)
		sats.f64(s.DragFactor)
		sats.u32(uint32(s.Fate))
		if s.FateAt.IsZero() {
			sats.u32(0)
			sats.i64(0)
			sats.u32(0)
		} else {
			sats.u32(1)
			sats.i64(s.FateAt.Unix())
			sats.u32(uint32(s.FateAt.Nanosecond()))
		}
	}
	sw.section(1, sats.buf)

	n := len(res.Samples)
	cats := make([]byte, 4*n)
	epochs := make([]byte, 8*n)
	var elems [7][]byte
	for k := range elems {
		elems[k] = make([]byte, 4*n)
	}
	for i := range res.Samples {
		s := &res.Samples[i]
		le.PutUint32(cats[4*i:], uint32(s.Catalog))
		le.PutUint64(epochs[8*i:], uint64(s.Epoch))
		putF32(elems[0], i, s.AltKm)
		putF32(elems[1], i, s.BStar)
		putF32(elems[2], i, s.Inclination)
		putF32(elems[3], i, s.RAAN)
		putF32(elems[4], i, s.Eccentricity)
		putF32(elems[5], i, s.ArgPerigee)
		putF32(elems[6], i, s.MeanAnomaly)
	}
	sw.section(2, cats)
	sw.section(3, epochs)
	for k, col := range elems {
		sw.section(uint32(4+k), col)
	}
	return sw.close()
}

// DecodeArchive reads an archive snapshot, failing closed on any damage.
func DecodeArchive(r io.Reader) (*constellation.Result, error) {
	sr := newSectionReader(r, KindArchive)
	meta := sr.record(0)
	startUnix := meta.i64()
	hours := meta.u32()
	nSats := meta.u32()
	nSamples := meta.i64()
	meta.done()
	if nSats > 1<<24 || nSamples < 0 || nSamples > 1<<31 {
		sr.fail(ErrCorrupt, "archive claims %d satellites, %d samples", nSats, nSamples)
	}
	res := &constellation.Result{Start: time.Unix(startUnix, 0).UTC(), Hours: int(hours)}

	// The table must have arrived and hold nSats records before nSats sizes
	// anything.
	sats := sr.record(1)
	if len(sats.buf) < minSatBytes*int(nSats) {
		sr.fail(ErrCorrupt, "satellite table of %d bytes cannot hold %d satellites", len(sats.buf), nSats)
	}
	if sr.err != nil {
		return nil, sr.err
	}
	res.Sats = make([]constellation.SatInfo, nSats)
	for i := range res.Sats {
		s := &res.Sats[i]
		s.Catalog = int(sats.u32())
		s.Name = sats.str()
		s.Shell = int(sats.u32())
		launched := sats.i64()
		launchedNs := sats.u32()
		s.StagingAltKm = sats.f64()
		s.TargetAltKm = sats.f64()
		s.DragFactor = sats.f64()
		s.Fate = constellation.Phase(sats.u32())
		hasFate := sats.u32()
		fateAt := sats.i64()
		fateAtNs := sats.u32()
		if launchedNs >= 1e9 || fateAtNs >= 1e9 {
			sr.fail(ErrCorrupt, "satellite timestamp nanoseconds out of range")
		}
		// Strict canonical form: the fate flag is 0 or 1, and an absent fate
		// has zeroed timestamp fields. Anything else would decode to a value
		// that re-encodes differently, breaking bit-identity.
		if hasFate > 1 || (hasFate == 0 && (fateAt != 0 || fateAtNs != 0)) {
			sr.fail(ErrCorrupt, "non-canonical satellite fate record")
		}
		s.LaunchedAt = time.Unix(launched, int64(launchedNs)).UTC()
		if hasFate != 0 {
			s.FateAt = time.Unix(fateAt, int64(fateAtNs)).UTC()
		}
	}
	sats.done()

	// The catalog column appends the samples, sized up front only from a
	// source that holds all nine sample columns, and the other eight fill
	// them in place.
	n := sr.columnLen(2, 4, int(nSamples))
	samples := make([]constellation.Sample, 0, sr.capFor(n, sampleBytes*uint64(nSamples)))
	sr.columnValues(2, 4, n, func(_ int, vals []byte) {
		i := len(samples)
		samples = slices.Grow(samples, len(vals)/4)[:i+len(vals)/4]
		for k := range samples[i:] {
			samples[i+k] = constellation.Sample{Catalog: int32(le.Uint32(vals[4*k:]))}
		}
	})
	s := samples
	sr.column(3, 8, n, func(i int, vals []byte) {
		for k := range len(vals) / 8 {
			s[i+k].Epoch = int64(le.Uint64(vals[8*k:]))
		}
	})
	for k := range 7 {
		sr.column(uint32(4+k), 4, n, func(i int, vals []byte) {
			for j := range len(vals) / 4 {
				v, sm := getF32(vals, j), &s[i+j]
				switch k {
				case 0:
					sm.AltKm = v
				case 1:
					sm.BStar = v
				case 2:
					sm.Inclination = v
				case 3:
					sm.RAAN = v
				case 4:
					sm.Eccentricity = v
				case 5:
					sm.ArgPerigee = v
				default:
					sm.MeanAnomaly = v
				}
			}
		})
	}
	if err := sr.close(); err != nil {
		return nil, err
	}
	res.Samples = samples
	return res, nil
}

// --- dataset (core.Dataset) ---
//
// A dataset snapshot is the weather series (sections 0–1, as in a weather
// snapshot) followed by the whole dataset as one partial body with chunk
// index 0 (sections 2–8, as in a segment). It is self-contained: a decoded
// dataset needs nothing but the pipeline Config, which the cache key pins to
// the one that built it. Decoding folds the body through the same
// PartialAssembler every other dataset comes from, so the cleaned
// altitudes are rederived rather than stored.

// datasetPartialBase is the section id of a dataset snapshot's partial body,
// right after the two weather sections.
const datasetPartialBase = 2

// EncodeDataset writes a built-dataset snapshot.
func EncodeDataset(w io.Writer, d *core.Dataset) error {
	sw := newSectionWriter(w, KindDataset)
	writeWeather(sw, d.Weather())
	writePartial(sw, datasetPartialBase, 0, d.Partial())
	return sw.close()
}

// DecodeDataset reads a dataset snapshot and reassembles it under the given
// pipeline parameters (the runtime Parallelism knob rides on cfg, never on
// the snapshot). It fails closed on any damage.
func DecodeDataset(r io.Reader, cfg core.Config) (*core.Dataset, error) {
	sr := newSectionReader(r, KindDataset)
	weather := readWeather(sr)
	chunk, p := readPartial(sr, datasetPartialBase)
	if chunk != 0 {
		sr.fail(ErrCorrupt, "dataset body carries chunk index %d, want 0", chunk)
	}
	if err := sr.close(); err != nil {
		return nil, err
	}
	asm := core.NewPartialAssembler(cfg, weather)
	if err := asm.Add(p); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	d, err := asm.Finish()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return d, nil
}
