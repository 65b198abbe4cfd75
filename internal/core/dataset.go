package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

	"cosmicdance/internal/constellation"
	"cosmicdance/internal/dst"
	"cosmicdance/internal/obs"
	"cosmicdance/internal/parallel"
	"cosmicdance/internal/stats"
	"cosmicdance/internal/tle"
)

// Build telemetry mirrors CleaningStats onto process-wide counters so the
// cleaning funnel (paper §3, Fig 10) is visible in /metrics and -trace runs
// without plumbing the stats out by hand.
var (
	metricBuilds       = obs.Default().Counter("core_dataset_builds_total")
	metricObservations = obs.Default().Counter("core_observations_total")
	metricGrossErrors  = obs.Default().Counter("core_rows_removed_total", "reason", "gross_error")
	metricDuplicates   = obs.Default().Counter("core_rows_removed_total", "reason", "duplicate")
	metricRaising      = obs.Default().Counter("core_rows_removed_total", "reason", "raising")
	metricNonOp        = obs.Default().Counter("core_tracks_dropped_total", "reason", "non_operational")
	metricTracks       = obs.Default().Counter("core_tracks_total")
)

// CleaningStats records what the data-cleaning stage removed, mirroring the
// paper's §3 "Cleaning the data" discussion and Fig 10.
type CleaningStats struct {
	TotalObservations int
	GrossErrors       int // altitude outside [MinValidAltKm, MaxValidAltKm], or NaN
	RaisingRemoved    int // orbit-raising prefix points
	NonOperational    int // tracks that never reached an operational shell
	Duplicates        int // repeated (catalog, epoch) observations dropped
}

// Dataset is the merged, cleaned, time-ordered representation CosmicDance
// analyses: the hourly Dst index plus one cleaned Track per satellite.
type Dataset struct {
	cfg     Config
	weather *dst.Index
	tracks  []*Track
	byCat   map[int]*Track
	// rawAlts holds every ingested altitude before cleaning (Fig 10a) in
	// canonical total order (see canonicalizeRawAlts).
	rawAlts []float64
	stats   CleaningStats
}

// Observation is the ingest-format-independent record: one satellite state
// row, whatever the transport (parsed TLE, simulator sample, or a live feed
// batch folded into the incremental engine).
type Observation struct {
	Catalog int
	Epoch   int64 // Unix seconds
	AltKm   float64
	BStar   float64
	Incl    float64
}

// Builder accumulates observations before cleaning.
type Builder struct {
	cfg     Config
	weather *dst.Index
	obs     []Observation
}

// NewBuilder starts a dataset build with the given parameters and solar
// activity index.
func NewBuilder(cfg Config, weather *dst.Index) *Builder {
	return &Builder{cfg: cfg, weather: weather}
}

// AddTLEs ingests parsed element sets (the live-data path).
func (b *Builder) AddTLEs(sets []*tle.TLE) {
	b.obs = slices.Grow(b.obs, len(sets))
	for _, t := range sets {
		b.obs = append(b.obs, ObservationFromTLE(t))
	}
}

// AddSamples ingests simulator samples (the compact path for large archives;
// identical semantics to AddTLEs).
func (b *Builder) AddSamples(samples []constellation.Sample) {
	b.obs = slices.Grow(b.obs, len(samples))
	for _, s := range samples {
		b.obs = append(b.obs, ObservationFromSample(s))
	}
}

// AddObservations ingests pre-converted records (the incremental engine's
// replay path; identical semantics to AddTLEs).
func (b *Builder) AddObservations(obs []Observation) {
	b.obs = append(b.obs, obs...)
}

// ObservationFromTLE converts a parsed element set to the ingest record,
// with exactly AddTLEs' field semantics.
func ObservationFromTLE(t *tle.TLE) Observation {
	return Observation{
		Catalog: t.CatalogNumber,
		Epoch:   t.Epoch.Unix(),
		AltKm:   float64(t.Altitude()),
		BStar:   t.BStar,
		Incl:    float64(t.Inclination),
	}
}

// ObservationFromSample converts a simulator sample to the ingest record,
// with exactly AddSamples' field semantics.
func ObservationFromSample(s constellation.Sample) Observation {
	return Observation{
		Catalog: int(s.Catalog),
		Epoch:   s.Epoch,
		AltKm:   float64(s.AltKm),
		BStar:   float64(s.BStar),
		Incl:    float64(s.Inclination),
	}
}

// Build cleans the archive and assembles the dataset:
//
//  1. altitude sanity cut (tracking errors, Fig 10a→10b),
//  2. per-satellite orbit-raising prefix removal,
//  3. operational-altitude estimation (tracks that never reach a shell are
//     excluded from storm analyses).
//
// The already-decaying filter is applied per event during analysis, not here,
// because it depends on the event time.
func (b *Builder) Build(ctx context.Context) (*Dataset, error) {
	if b.weather == nil || b.weather.Len() == 0 {
		return nil, fmt.Errorf("core: no solar activity data")
	}
	if len(b.obs) == 0 {
		return nil, fmt.Errorf("core: no trajectory observations")
	}
	// The monolithic build is the chunked build with one chunk: one partial
	// over all observations, folded through the same assembler. Sharing the
	// path is what makes chunked-vs-unchunked equivalence structural rather
	// than coincidental.
	p, err := buildPartial(ctx, b.cfg, b.obs)
	if err != nil {
		return nil, err
	}
	a := NewPartialAssembler(b.cfg, b.weather)
	if err := a.Add(p); err != nil {
		return nil, err
	}
	return a.Finish()
}

// buildPartial is the cleaning core shared by Build and BuildChunkPartial:
// gross-error cut, per-catalog grouping, and the per-track clean fan-out.
func buildPartial(ctx context.Context, cfg Config, obs []Observation) (*ChunkPartial, error) {
	p := &ChunkPartial{}
	p.Stats.TotalObservations = len(obs)
	p.RawAlts = make([]float64, 0, len(obs))

	// Group by catalog into one flat arena. A counting pass sizes a single
	// backing slice and per-catalog windows into it, replacing the old
	// map-of-growing-slices (per-catalog append reallocations dominated the
	// build's allocation profile at archive scale). Within a catalog the
	// ingest order is preserved exactly, so the grouping is byte-for-byte
	// the same as the map version.
	counts := make(map[int]int)
	valid := 0
	for _, o := range obs {
		p.RawAlts = append(p.RawAlts, o.AltKm)
		if cfg.GrossError(o.AltKm) {
			p.Stats.GrossErrors++
			continue
		}
		counts[o.Catalog]++
		valid++
	}
	canonicalizeRawAlts(p.RawAlts)

	cats := make([]int, 0, len(counts))
	for c := range counts {
		cats = append(cats, c)
	}
	sort.Ints(cats)

	arena := make([]Observation, valid)
	cursor := make(map[int]int, len(cats)) // catalog → next free arena slot
	off := 0
	for _, c := range cats {
		cursor[c] = off
		off += counts[c]
	}
	byCat := make(map[int][]Observation, len(cats))
	for _, o := range obs {
		if cfg.GrossError(o.AltKm) {
			continue
		}
		i := cursor[o.Catalog]
		arena[i] = o
		cursor[o.Catalog] = i + 1
	}
	off = 0
	for _, c := range cats {
		byCat[c] = arena[off : off+counts[c] : off+counts[c]]
		off += counts[c]
	}

	// Per-track parse/clean/dedupe fan-out: every catalog is independent, so
	// the cleaning pass runs on the worker pool and the results are merged
	// below in catalog order — the output is identical at every width.
	cleaned, err := parallel.Map(ctx, cfg.Parallelism, len(cats),
		func(i int) (CleanedTrack, error) {
			return CleanTrack(cats[i], byCat[cats[i]], cfg), nil
		})
	if err != nil {
		return nil, err
	}

	// Order-stable merge: catalog-ascending, exactly as the sequential loop
	// appended. Sized up front so the merge itself never reallocates.
	nTracks := 0
	for _, res := range cleaned {
		if res.Track != nil {
			nTracks++
		}
	}
	p.Tracks = make([]*Track, 0, nTracks)
	for _, res := range cleaned {
		p.Stats.Duplicates += res.Duplicates
		if res.Track == nil {
			p.Stats.NonOperational++
			continue
		}
		p.Stats.RaisingRemoved += res.Track.RaisingRemoved
		p.Tracks = append(p.Tracks, res.Track)
	}
	return p, nil
}

// CleanedTrack is one catalog's cleaning outcome: a track (nil when the
// satellite never reached an operational shell) plus the number of repeated
// epochs dropped.
type CleanedTrack struct {
	Track      *Track
	Duplicates int
}

// CleanTrack sorts, dedupes and cleans one satellite's observations — the
// per-track unit of work the Build fan-out distributes, exported so the
// incremental engine recomputes exactly the batch cleaning when a track's
// watermark advances. It sorts obs in place (stable, by epoch).
func CleanTrack(cat int, obs []Observation, cfg Config) CleanedTrack {
	// Stable sort + drop repeated epochs (keep first): flaky archives
	// replay element sets, and a duplicated observation must not change
	// the analysis relative to a clean ingest of the same data. The
	// comparator-typed sort avoids the interface boxing sort.SliceStable
	// pays per element; stability pins the same order either way.
	slices.SortStableFunc(obs, func(a, b Observation) int {
		switch {
		case a.Epoch < b.Epoch:
			return -1
		case a.Epoch > b.Epoch:
			return 1
		default:
			return 0
		}
	})
	var res CleanedTrack
	points := make([]TrackPoint, 0, len(obs))
	for i, o := range obs {
		if i > 0 && o.Epoch == obs[i-1].Epoch {
			res.Duplicates++
			continue
		}
		points = append(points, TrackPoint{Epoch: o.Epoch, AltKm: float32(o.AltKm), BStar: float32(o.BStar), Incl: float32(o.Incl)})
	}
	opAlt := operationalAltitude(points, 10)
	if opAlt < cfg.MinOperationalAltKm {
		// Never reached a shell (lost during staging, or launch debris).
		return res
	}
	// Remove the orbit-raising prefix: everything before the first point
	// within RaisingMarginKm of the operational altitude.
	cut := 0
	for cut < len(points) && float64(points[cut].AltKm) < opAlt-cfg.RaisingMarginKm {
		cut++
	}
	if cut == len(points) {
		return res
	}
	res.Track = &Track{
		Catalog:          cat,
		Points:           points[cut:],
		OperationalAltKm: opAlt,
		RaisingRemoved:   cut,
	}
	return res
}

// Weather returns the Dst index.
func (d *Dataset) Weather() *dst.Index { return d.weather }

// Config returns the pipeline parameters.
func (d *Dataset) Config() Config { return d.cfg }

// Tracks returns the cleaned per-satellite tracks (catalog-ascending).
func (d *Dataset) Tracks() []*Track { return d.tracks }

// Track returns one satellite's track, or nil.
func (d *Dataset) Track(catalog int) *Track { return d.byCat[catalog] }

// Cleaning returns what the cleaning stage removed.
func (d *Dataset) Cleaning() CleaningStats { return d.stats }

// RawAltitudeCDF is Fig 10(a): the altitude distribution across all ingested
// TLEs before cleaning, long error tail included. The canonical raw column is
// already in the CDF's sort order unless it holds NaNs, which the total order
// puts at its ends, so the CDF wraps it read-only.
func (d *Dataset) RawAltitudeCDF() (*stats.CDF, error) {
	if nanAtEnd(d.rawAlts) {
		return stats.NewCDF(d.rawAlts)
	}
	return stats.NewSortedCDF(d.rawAlts)
}

// CleanAltitudeCDF is Fig 10(b): after removing tracking errors and
// orbit-raising windows. It sorts the track points' float32 altitudes by
// their 32-bit order keys, which is the order of their float64 values.
func (d *Dataset) CleanAltitudeCDF() (*stats.CDF, error) {
	n := 0
	for _, tr := range d.tracks {
		n += len(tr.Points)
	}
	keys := make([]uint32, 0, n)
	for _, tr := range d.tracks {
		for _, p := range tr.Points {
			keys = append(keys, stats.Float32Key(p.AltKm))
		}
	}
	stats.SortKeys(keys)
	alts := make([]float64, len(keys))
	for i, k := range keys {
		alts[i] = float64(stats.Float32FromKey(k))
	}
	if nanAtEnd(alts) {
		stats.SortFloat64s(alts) // the total order puts +NaN last
	}
	return stats.NewSortedCDF(alts)
}

// nanAtEnd reports whether a slice in IEEE total order holds NaNs, which
// that order places at its ends.
func nanAtEnd(sorted []float64) bool {
	n := len(sorted)
	return n > 0 && (math.IsNaN(sorted[0]) || math.IsNaN(sorted[n-1]))
}
