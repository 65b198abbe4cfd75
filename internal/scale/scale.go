// Package scale is the mega-constellation scale harness: it drives the
// chunked streaming pipeline end to end over a multi-constellation fleet
// (Starlink Gen1/Gen2, Kuiper, OneWeb shells) and reduces the stream to a
// compact, deterministic Report without ever materializing the full dataset.
//
// The report is the scale-out proof in two directions at once:
//
//   - Equivalence: every line of the report (counts, extrema, and a SHA-256
//     digest over the per-track analysis results in catalog order) is
//     byte-identical at every chunk size, worker width, and segment store —
//     the verify gate diffs report outputs across configurations.
//   - Flat memory: the harness holds one chunk partial at a time, so peak
//     RSS is governed by chunk size × worker window, not fleet size. The
//     scale sweep pins sats/sec and peak RSS at 6k/30k/100k satellites.
package scale

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"time"

	"cosmicdance/internal/artifact"
	"cosmicdance/internal/constellation"
	"cosmicdance/internal/core"
	"cosmicdance/internal/spaceweather"
)

// Analysis knobs pinned by the harness. Fixed values keep every report
// comparable across runs and machines; they mirror the CLI defaults.
const (
	// eventPercentile selects high-intensity events, as in the paper's §5.
	eventPercentile = 95
	// windowDays is the happens-closely-after association window.
	windowDays = 30
	// minDropKm qualifies a terminal decline as a permanent decay onset.
	minDropKm = 20
)

// Spec sizes a scale run. The (Sats, Days, Seed) triple fully determines the
// report; ChunkSize, Parallelism and CacheDir only shape how the run
// executes.
type Spec struct {
	// Sats is the fleet size spread across the mega-constellation shells.
	Sats int
	// Days is the simulated window length.
	Days int
	// Seed drives weather and fleet generation.
	Seed int64
	// ChunkSize is the satellites-per-chunk partition (default
	// artifact.DefaultChunkSize).
	ChunkSize int
	// Parallelism is the chunk-level worker width (0 = one per CPU).
	Parallelism int
	// CacheDir, when set, attaches a persistent artifact cache so segments
	// become incremental resume points.
	CacheDir string
}

// WeatherConfig returns the run's space-weather scenario: the calibrated
// background climatology with a May-2024-class super-storm (−412 nT peak)
// striking a quarter of the way into the window, so even a two-day run has a
// guaranteed high-intensity event to associate against.
func WeatherConfig(spec Spec) spaceweather.Config {
	start := time.Date(2024, 5, 1, 0, 0, 0, 0, time.UTC)
	peakAt := start.Add(time.Duration(spec.Days*6) * time.Hour)
	return spaceweather.Config{
		Start:              start,
		Hours:              spec.Days * 24,
		Seed:               spec.Seed,
		QuietMean:          -11,
		QuietStd:           7,
		QuietRho:           0.9,
		MildPerYear:        36,
		ModeratePerYear:    3.0,
		MildExcessMean:     13,
		ModerateExcessMean: 20,
		CycleAmplitude:     0.8,
		CyclePeak:          time.Date(2024, 10, 1, 0, 0, 0, 0, time.UTC),
		Storms: []spaceweather.StormSpec{
			{Peak: -400, PeakAt: peakAt, MainPhaseHours: 5, RecoveryTau: 10, Commencement: 25},
		},
		Overrides: []spaceweather.Override{{At: peakAt, Value: -412}},
	}
}

// FleetConfig returns the run's constellation: Sats satellites spread across
// all twelve mega-constellation shells.
func FleetConfig(spec Spec) constellation.Config {
	cfg := constellation.MegaFleet(spec.Seed, spec.Sats, time.Date(2024, 5, 1, 0, 0, 0, 0, time.UTC), spec.Days)
	cfg.Parallelism = spec.Parallelism
	return cfg
}

// CoreConfig returns the run's cleaning config. The gross-error ceiling is
// raised above the default because the OneWeb shells operate at 1200 km.
func CoreConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.MaxValidAltKm = 1400
	return cfg
}

// Report is the deterministic reduction of a scale run. Every field depends
// only on (Sats, Days, Seed) — never on chunk size, worker width, or the
// segment store — which is what WriteText's output gates on.
type Report struct {
	Sats, Days int
	Seed       int64

	Tracks int
	Points int64
	Stats  core.CleaningStats

	Events     int
	Deviations int
	MaxDevKm   float64
	Onsets     int
	MaxDropKm  float64

	// RawCount/RawSumBits/RawMin/RawMax summarize the raw-altitude column
	// order-insensitively (per-chunk canonical order depends on the
	// partition, so only commutative aggregates are comparable here).
	RawCount   int64
	RawSumBits uint64
	RawMin     float64
	RawMax     float64

	// Digest is a SHA-256 over every track's points, onset, and deviations
	// in catalog order — the strong form of the equivalence claim.
	Digest string
}

// digest feeds fixed-width little-endian values to the report's SHA-256 so
// it depends only on the analyzed values. It owns the 8-byte buffer: a
// local one escapes through hash.Hash.Write and is heap-allocated per value.
type digest struct {
	h   hash.Hash
	buf [8]byte
}

func (d *digest) i64(v int64) {
	binary.LittleEndian.PutUint64(d.buf[:], uint64(v))
	d.h.Write(d.buf[:])
}

func (d *digest) f64(v float64) { d.i64(int64(math.Float64bits(v))) }
func (d *digest) f32(v float32) { d.i64(int64(math.Float32bits(v))) }

// Run executes a scale run: weather → chunked fleet simulation → per-chunk
// cleaning → streaming per-track analysis, holding one chunk partial at a
// time.
func Run(ctx context.Context, spec Spec) (*Report, error) {
	if spec.Sats <= 0 {
		return nil, fmt.Errorf("scale: Sats must be positive, got %d", spec.Sats)
	}
	if spec.Days <= 0 {
		return nil, fmt.Errorf("scale: Days must be positive, got %d", spec.Days)
	}

	var cache *artifact.Cache
	if spec.CacheDir != "" {
		var err error
		if cache, err = artifact.Open(spec.CacheDir); err != nil {
			return nil, err
		}
	}
	pipe := artifact.NewPipeline(cache)

	wcfg, fcfg, ccfg := WeatherConfig(spec), FleetConfig(spec), CoreConfig()
	weather, err := pipe.Weather(ctx, wcfg)
	if err != nil {
		return nil, err
	}
	events, err := core.WeatherEventsAbovePercentile(weather, eventPercentile, 1, 0)
	if err != nil {
		return nil, err
	}

	rep := &Report{
		Sats: spec.Sats, Days: spec.Days, Seed: spec.Seed,
		Events: len(events),
		RawMin: math.Inf(1), RawMax: math.Inf(-1),
	}
	dg := &digest{h: sha256.New()}
	err = pipe.EachSegment(ctx, wcfg, fcfg, ccfg, spec.ChunkSize, func(_ int, p *core.ChunkPartial) error {
		rep.reduce(dg, ccfg, events, p)
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep.Digest = hex.EncodeToString(dg.h.Sum(nil))
	return rep, nil
}

// reduce folds one chunk partial into the report. Chunks arrive in catalog
// order and every quantity here is per-track (or order-insensitive for the
// raw column), so the reduction is invariant under the chunk partition.
func (r *Report) reduce(dg *digest, ccfg core.Config, events []core.Event, p *core.ChunkPartial) {
	for _, tr := range p.Tracks {
		r.Tracks++
		r.Points += int64(len(tr.Points))
		dg.i64(int64(tr.Catalog))
		dg.i64(int64(len(tr.Points)))
		dg.f64(tr.OperationalAltKm)
		dg.i64(int64(tr.RaisingRemoved))
		for _, pt := range tr.Points {
			dg.i64(pt.Epoch)
			dg.f32(pt.AltKm)
			dg.f32(pt.BStar)
			dg.f32(pt.Incl)
		}
		if on, ok := core.TrackDecayOnset(tr, ccfg.DecayFilterKm, minDropKm); ok {
			r.Onsets++
			r.MaxDropKm = math.Max(r.MaxDropKm, on.DropKm)
			dg.i64(on.At.Unix())
			dg.f64(on.DropKm)
			dg.f64(on.RateKmPerDay)
		}
		for _, ev := range events {
			dv, ok := core.AssociateTrack(ccfg, ev, tr, windowDays)
			if !ok {
				continue
			}
			r.Deviations++
			r.MaxDevKm = math.Max(r.MaxDevKm, dv.MaxDevKm)
			dg.i64(dv.Event.Unix())
			dg.f64(dv.MaxDevKm)
			dg.f64(dv.MaxDrag)
		}
	}
	for _, v := range p.RawAlts {
		r.RawCount++
		r.RawSumBits += math.Float64bits(v)
		r.RawMin = math.Min(r.RawMin, v)
		r.RawMax = math.Max(r.RawMax, v)
	}
	r.Stats.TotalObservations += p.Stats.TotalObservations
	r.Stats.GrossErrors += p.Stats.GrossErrors
	r.Stats.RaisingRemoved += p.Stats.RaisingRemoved
	r.Stats.NonOperational += p.Stats.NonOperational
	r.Stats.Duplicates += p.Stats.Duplicates
}
