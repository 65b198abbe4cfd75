package artifact

import (
	"fmt"
	"io"
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
	sr, err := newSectionReader(r, KindWeather)
	if err != nil {
		return nil, err
	}
	x, err := readWeather(sr)
	if err != nil {
		return nil, err
	}
	if err := sr.closeTrailer(); err != nil {
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
	sw.section(1, packF64(x.Hourly().Values()))
}

// readWeather reads the two weather sections writeWeather wrote, failing
// closed on any damage.
func readWeather(sr *sectionReader) (*dst.Index, error) {
	meta, err := sr.section(0)
	if err != nil {
		return nil, err
	}
	p := &recordParser{buf: meta}
	startUnix, err := p.i64()
	if err != nil {
		return nil, err
	}
	n, err := p.u32()
	if err != nil {
		return nil, err
	}
	if err := p.done(); err != nil {
		return nil, err
	}
	col, err := sr.section(1)
	if err != nil {
		return nil, err
	}
	values, err := unpackF64(col)
	if err != nil {
		return nil, err
	}
	if len(values) != int(n) {
		return nil, fmt.Errorf("%w: weather claims %d hours, column has %d", ErrCorrupt, n, len(values))
	}
	if len(values) == 0 {
		return nil, fmt.Errorf("%w: empty weather series", ErrCorrupt)
	}
	return dst.FromValues(time.Unix(startUnix, 0).UTC(), values), nil
}

// --- archive (constellation.Result) ---
//
// Sections: 0 = meta, 1 = per-satellite ground-truth table, 2..10 = one
// column per Sample field (catalog, epoch, then the seven float32 elements).

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
	cats := make([]int32, n)
	epochs := make([]int64, n)
	cols := [7][]float32{}
	for k := range cols {
		cols[k] = make([]float32, n)
	}
	for i := range res.Samples {
		s := &res.Samples[i]
		cats[i] = s.Catalog
		epochs[i] = s.Epoch
		cols[0][i] = s.AltKm
		cols[1][i] = s.BStar
		cols[2][i] = s.Inclination
		cols[3][i] = s.RAAN
		cols[4][i] = s.Eccentricity
		cols[5][i] = s.ArgPerigee
		cols[6][i] = s.MeanAnomaly
	}
	sw.section(2, packI32(cats))
	sw.section(3, packI64(epochs))
	for k := range cols {
		sw.section(uint32(4+k), packF32(cols[k]))
	}
	return sw.close()
}

// DecodeArchive reads an archive snapshot, failing closed on any damage.
func DecodeArchive(r io.Reader) (*constellation.Result, error) {
	sr, err := newSectionReader(r, KindArchive)
	if err != nil {
		return nil, err
	}
	meta, err := sr.section(0)
	if err != nil {
		return nil, err
	}
	p := &recordParser{buf: meta}
	startUnix, err := p.i64()
	if err != nil {
		return nil, err
	}
	hours, err := p.u32()
	if err != nil {
		return nil, err
	}
	nSats, err := p.u32()
	if err != nil {
		return nil, err
	}
	nSamples, err := p.i64()
	if err != nil {
		return nil, err
	}
	if err := p.done(); err != nil {
		return nil, err
	}
	if nSats > 1<<24 || nSamples < 0 || nSamples > 1<<31 {
		return nil, fmt.Errorf("%w: archive claims %d satellites, %d samples", ErrCorrupt, nSats, nSamples)
	}
	res := &constellation.Result{Start: time.Unix(startUnix, 0).UTC(), Hours: int(hours)}

	satsPayload, err := sr.section(1)
	if err != nil {
		return nil, err
	}
	sp := &recordParser{buf: satsPayload}
	res.Sats = make([]constellation.SatInfo, nSats)
	for i := range res.Sats {
		s := &res.Sats[i]
		var cat, shell, launchedNs, fate, hasFate, fateAtNs uint32
		var launched, fateAt int64
		if cat, err = sp.u32(); err != nil {
			return nil, err
		}
		if s.Name, err = sp.str(); err != nil {
			return nil, err
		}
		if shell, err = sp.u32(); err != nil {
			return nil, err
		}
		if launched, err = sp.i64(); err != nil {
			return nil, err
		}
		if launchedNs, err = sp.u32(); err != nil {
			return nil, err
		}
		if s.StagingAltKm, err = sp.f64(); err != nil {
			return nil, err
		}
		if s.TargetAltKm, err = sp.f64(); err != nil {
			return nil, err
		}
		if s.DragFactor, err = sp.f64(); err != nil {
			return nil, err
		}
		if fate, err = sp.u32(); err != nil {
			return nil, err
		}
		if hasFate, err = sp.u32(); err != nil {
			return nil, err
		}
		if fateAt, err = sp.i64(); err != nil {
			return nil, err
		}
		if fateAtNs, err = sp.u32(); err != nil {
			return nil, err
		}
		if launchedNs >= 1e9 || fateAtNs >= 1e9 {
			return nil, fmt.Errorf("%w: satellite timestamp nanoseconds out of range", ErrCorrupt)
		}
		// Strict canonical form: the fate flag is 0 or 1, and an absent fate
		// has zeroed timestamp fields. Anything else would decode to a value
		// that re-encodes differently, breaking bit-identity.
		if hasFate > 1 || (hasFate == 0 && (fateAt != 0 || fateAtNs != 0)) {
			return nil, fmt.Errorf("%w: non-canonical satellite fate record", ErrCorrupt)
		}
		s.Catalog = int(cat)
		s.Shell = int(shell)
		s.LaunchedAt = time.Unix(launched, int64(launchedNs)).UTC()
		s.Fate = constellation.Phase(fate)
		if hasFate != 0 {
			s.FateAt = time.Unix(fateAt, int64(fateAtNs)).UTC()
		}
	}
	if err := sp.done(); err != nil {
		return nil, err
	}

	catCol, err := readI32Col(sr, 2, int(nSamples))
	if err != nil {
		return nil, err
	}
	epochCol, err := readI64Col(sr, 3, int(nSamples))
	if err != nil {
		return nil, err
	}
	var cols [7][]float32
	for k := range cols {
		if cols[k], err = readF32Col(sr, uint32(4+k), int(nSamples)); err != nil {
			return nil, err
		}
	}
	if err := sr.closeTrailer(); err != nil {
		return nil, err
	}
	res.Samples = make([]constellation.Sample, nSamples)
	for i := range res.Samples {
		res.Samples[i] = constellation.Sample{
			Catalog:      catCol[i],
			Epoch:        epochCol[i],
			AltKm:        cols[0][i],
			BStar:        cols[1][i],
			Inclination:  cols[2][i],
			RAAN:         cols[3][i],
			Eccentricity: cols[4][i],
			ArgPerigee:   cols[5][i],
			MeanAnomaly:  cols[6][i],
		}
	}
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
	sr, err := newSectionReader(r, KindDataset)
	if err != nil {
		return nil, err
	}
	weather, err := readWeather(sr)
	if err != nil {
		return nil, err
	}
	chunk, p, err := readPartial(sr, datasetPartialBase)
	if err != nil {
		return nil, err
	}
	if chunk != 0 {
		return nil, fmt.Errorf("%w: dataset body carries chunk index %d, want 0", ErrCorrupt, chunk)
	}
	if err := sr.closeTrailer(); err != nil {
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

// --- shared column readers ---

func readI32Col(sr *sectionReader, id uint32, want int) ([]int32, error) {
	payload, err := sr.section(id)
	if err != nil {
		return nil, err
	}
	col, err := unpackI32(payload)
	if err != nil {
		return nil, err
	}
	if len(col) != want {
		return nil, fmt.Errorf("%w: section %d has %d values, want %d", ErrCorrupt, id, len(col), want)
	}
	return col, nil
}

func readI64Col(sr *sectionReader, id uint32, want int) ([]int64, error) {
	payload, err := sr.section(id)
	if err != nil {
		return nil, err
	}
	col, err := unpackI64(payload)
	if err != nil {
		return nil, err
	}
	if len(col) != want {
		return nil, fmt.Errorf("%w: section %d has %d values, want %d", ErrCorrupt, id, len(col), want)
	}
	return col, nil
}

func readF32Col(sr *sectionReader, id uint32, want int) ([]float32, error) {
	payload, err := sr.section(id)
	if err != nil {
		return nil, err
	}
	col, err := unpackF32(payload)
	if err != nil {
		return nil, err
	}
	if len(col) != want {
		return nil, fmt.Errorf("%w: section %d has %d values, want %d", ErrCorrupt, id, len(col), want)
	}
	return col, nil
}
