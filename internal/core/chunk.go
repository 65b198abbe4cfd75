package core

import (
	"context"
	"fmt"
	"slices"

	"cosmicdance/internal/constellation"
	"cosmicdance/internal/dst"
	"cosmicdance/internal/stats"
)

// Chunked dataset builds: a fleet too large to clean in one pass is built as
// a sequence of ChunkPartials — one per satellite chunk, each covering a
// contiguous catalog range — and folded back together by a PartialAssembler.
// Build itself is one partial fed through the same assembler, so the chunked
// and monolithic paths share every line of cleaning logic and produce
// identical datasets by construction. Partials are self-contained value
// bags (no weather, no config) precisely so they can be written to disk via
// the artifact segment codec and re-read later.

// ChunkPartial is one chunk's share of a dataset build: the cleaned tracks
// for its catalog range plus the cleaning-funnel bookkeeping. The cleaned
// altitudes are not carried: they are exactly the surviving track points'
// altitudes, which Fig 10(b) sorts on demand.
type ChunkPartial struct {
	// Tracks are the chunk's cleaned tracks, catalog-ascending.
	Tracks []*Track
	// RawAlts are every ingested altitude (gross errors included) in
	// canonical total order (see canonicalizeRawAlts).
	RawAlts []float64
	// Stats is the chunk's share of the cleaning funnel.
	Stats CleaningStats
}

// BuildChunkPartial cleans one chunk's samples into a partial. The samples
// must cover a contiguous catalog range so partials can later be assembled
// in catalog order.
func BuildChunkPartial(ctx context.Context, cfg Config, samples []constellation.Sample) (*ChunkPartial, error) {
	b := Builder{cfg: cfg}
	b.AddSamples(samples)
	return buildPartial(ctx, cfg, b.obs)
}

// canonicalizeRawAlts sorts raw altitudes into the canonical dataset order:
// ascending by the IEEE-754 total order (stats.Float64Key), which is a total
// order even in the presence of NaNs and signed zeros. Ingest order is a
// chunking artifact — two decompositions of the same archive ingest the
// same multiset of altitudes in different orders — so the dataset stores the
// order-free canonical form and stays byte-identical across decompositions.
// Without NaNs this is also stats.SortFloat64s's order, so Fig 10(a) wraps
// the column as its CDF without sorting again.
//
// The sort runs over the uint64 order keys with the stats radix kernel, not
// over the floats with a comparator: the key map is a bijection, so sorting
// keys and mapping back yields the same permutation at a fraction of the
// cost. The already-canonical fast path makes re-canonicalizing a single
// sorted partial — the monolithic Build, which feeds one pre-sorted partial
// through the assembler — O(n) instead of a second full sort.
func canonicalizeRawAlts(alts []float64) {
	if RawAltsCanonical(alts) {
		return
	}
	keys := make([]uint64, len(alts))
	for i, v := range alts {
		keys[i] = stats.Float64Key(v)
	}
	stats.SortKeys(keys)
	for i, k := range keys {
		alts[i] = stats.Float64FromKey(k)
	}
}

// RawAltsCanonical reports whether alts is in the canonical raw-altitude
// order, ascending by IEEE-754 total order — the artifact decoders' cheap
// structural check that guarantees canonical re-encode.
func RawAltsCanonical(alts []float64) bool {
	if len(alts) == 0 {
		return true
	}
	// Carry the previous key: every cache load runs this check twice over
	// the whole column (in the decoder, then in Finish).
	prev := stats.Float64Key(alts[0])
	for _, v := range alts[1:] {
		k := stats.Float64Key(v)
		if prev > k {
			return false
		}
		prev = k
	}
	return true
}

// Partial returns the dataset's build state as one ChunkPartial: the tracks,
// the raw altitudes in canonical order, and the cleaning stats. Feeding it
// through a PartialAssembler with the same Config and weather reproduces the
// dataset exactly, which is how the artifact codec persists a dataset. The
// partial shares the dataset's slices; callers must not modify them.
func (d *Dataset) Partial() *ChunkPartial {
	return &ChunkPartial{Tracks: d.tracks, RawAlts: d.rawAlts, Stats: d.stats}
}

// PartialAssembler folds ChunkPartials, added in catalog order, into one
// Dataset. It holds the already-cleaned tracks — the O(fleet) product — but
// never the raw observations, so the peak working set of a chunked build is
// O(chunk) above the final dataset size.
type PartialAssembler struct {
	cfg     Config
	weather *dst.Index
	tracks  []*Track
	rawAlts []float64
	stats   CleaningStats
	lastCat int
}

// NewPartialAssembler starts an assembly with the given parameters and solar
// activity index.
func NewPartialAssembler(cfg Config, weather *dst.Index) *PartialAssembler {
	return &PartialAssembler{cfg: cfg, weather: weather}
}

// Add folds one partial in. Partials must arrive in catalog order (chunk
// order) with disjoint catalog ranges — exactly how the chunk planner slices
// a fleet. The first partial's raw-altitude column is kept, not copied, so
// a lone partial's column becomes the dataset's, and Finish canonicalizes
// it in place; later partials are appended to it.
func (a *PartialAssembler) Add(p *ChunkPartial) error {
	if len(p.Tracks) > 0 {
		first := p.Tracks[0].Catalog
		if len(a.tracks) > 0 && first <= a.lastCat {
			return fmt.Errorf("core: partial out of order: catalog %d after %d", first, a.lastCat)
		}
		a.lastCat = p.Tracks[len(p.Tracks)-1].Catalog
	}
	a.tracks = append(a.tracks, p.Tracks...)
	if a.rawAlts == nil {
		a.rawAlts = slices.Clip(p.RawAlts)
	} else {
		a.rawAlts = append(a.rawAlts, p.RawAlts...)
	}
	a.stats.TotalObservations += p.Stats.TotalObservations
	a.stats.GrossErrors += p.Stats.GrossErrors
	a.stats.RaisingRemoved += p.Stats.RaisingRemoved
	a.stats.NonOperational += p.Stats.NonOperational
	a.stats.Duplicates += p.Stats.Duplicates
	return nil
}

// Finish validates and seals the assembly into a Dataset. The result is
// identical to Build over the concatenated observations.
func (a *PartialAssembler) Finish() (*Dataset, error) {
	if a.weather == nil || a.weather.Len() == 0 {
		return nil, fmt.Errorf("core: no solar activity data")
	}
	if a.stats.TotalObservations == 0 {
		return nil, fmt.Errorf("core: no trajectory observations")
	}
	if len(a.tracks) == 0 {
		return nil, fmt.Errorf("core: no operational tracks survived cleaning")
	}
	// Per-partial RawAlts are canonical; the concatenation of sorted runs
	// needs one more pass to be globally canonical.
	canonicalizeRawAlts(a.rawAlts)

	d := &Dataset{
		cfg:     a.cfg,
		weather: a.weather,
		tracks:  a.tracks,
		byCat:   make(map[int]*Track, len(a.tracks)),
		rawAlts: a.rawAlts,
		stats:   a.stats,
	}
	for _, tr := range a.tracks {
		d.byCat[tr.Catalog] = tr
	}
	metricBuilds.Inc()
	metricObservations.Add(int64(d.stats.TotalObservations))
	metricGrossErrors.Add(int64(d.stats.GrossErrors))
	metricDuplicates.Add(int64(d.stats.Duplicates))
	metricRaising.Add(int64(d.stats.RaisingRemoved))
	metricNonOp.Add(int64(d.stats.NonOperational))
	metricTracks.Add(int64(len(d.tracks)))
	return d, nil
}
