// Package incremental is the O(delta) counterpart of the batch pipeline: an
// append-only engine where per-track watermarks gate recomputation. New
// observations fold into per-catalog sorted histories and re-clean only the
// touched tracks; Dst hours step dst's run scan, the storm machine, one
// reading at a time; association maintains the (event, track) join as a
// materialized map and emits delta events (new/updated deviations,
// decay-onset open/close) instead of re-deriving the full join.
//
// The headline invariant is prefix-replay equivalence: after ingesting any
// prefix of an observation/Dst event stream — in any interleaving, with any
// batching, duplicates included — the engine's materialized Dataset,
// deviation list and decay-onset set are byte-identical to the batch pipeline
// run over the same prefix. The equivalence is structural, not coincidental:
// cleaning reuses core.CleanTrack, association reuses core.AssociateTrack,
// onset detection reuses core.TrackDecayOnset, and materialization feeds one
// ChunkPartial through the same PartialAssembler as Build. Storms are
// dst.Storms because the engine steps the scanner dst.Storms loops over, and
// every storm is an event from its first hour, as core.WeatherEvents selects
// at the storm threshold. Restoring a snapshot (FromState) is a prefix replay
// through the same ingest paths.
package incremental

import (
	"fmt"
	"slices"
	"time"

	"cosmicdance/internal/constellation"
	"cosmicdance/internal/core"
	"cosmicdance/internal/dst"
	"cosmicdance/internal/obs"
	"cosmicdance/internal/tle"
	"cosmicdance/internal/units"
)

// Ingest telemetry: the watermark advance rate and the delta-event fan-out
// are the two quantities that tell an operator whether the incremental plane
// is keeping up with the feed.
var (
	metricBatches   = obs.Default().Counter("incremental_ingest_batches_total")
	metricRows      = obs.Default().Counter("incremental_observations_total")
	metricDstHours  = obs.Default().Counter("incremental_dst_hours_total")
	metricRefreshes = obs.Default().Counter("incremental_tracks_refreshed_total")
	metricDeltas    = obs.Default().Counter("incremental_delta_events_total")
)

// Config parameterizes the engine. Its events are its storms: every run of
// Dst hours at or below the storm threshold is an event from its first hour.
// Selection is fixed-threshold rather than percentile-based because a
// percentile over the whole weather history changes with every appended
// hour, which would make every Dst ingest O(world).
type Config struct {
	// Core is the batch pipeline configuration the engine must agree with.
	Core core.Config
	// WindowDays is the happens-closely-after association window in days.
	WindowDays int
	// MinDropKm is the decay-onset detection floor (core.TrackDecayOnset).
	MinDropKm float64
}

// DefaultConfig is the paper's configuration: 30-day association windows,
// 5 km onset floor.
func DefaultConfig() Config {
	return Config{
		Core:       core.DefaultConfig(),
		WindowDays: 30,
		MinDropKm:  5,
	}
}

// Kind labels a delta event.
type Kind string

// Delta kinds, in the order a consumer typically sees them: track lifecycle,
// storm machine transitions, association and onset maintenance.
const (
	KindTrackNew        Kind = "track_new"        // catalog first survived cleaning
	KindTrackDrop       Kind = "track_drop"       // catalog no longer survives cleaning
	KindStormOpen       Kind = "storm_open"       // Dst crossed the storm threshold
	KindStormClose      Kind = "storm_close"      // Dst recovered; storm frozen
	KindEventOpen       Kind = "event_open"       // storm opened as an event
	KindDeviationNew    Kind = "deviation_new"    // (event, track) pair joined
	KindDeviationUpdate Kind = "deviation_update" // pair's deviation changed
	KindDeviationClear  Kind = "deviation_clear"  // pair no longer qualifies
	KindOnsetOpen       Kind = "onset_open"       // permanent decay detected
	KindOnsetUpdate     Kind = "onset_update"     // decay rate/drop changed
	KindOnsetClear      Kind = "onset_clear"      // decay no longer detected (re-boost)
)

// Delta is one incremental state transition, the unit of the live feed.
// Times are Unix seconds so the wire form is deterministic. Trace, when
// present, is the trace ID (16-hex form) of the ingest request that provoked
// the transition, so a feed consumer can join a delta back to the /ingest
// POST — and its admission decision — that caused it.
type Delta struct {
	Seq     uint64  `json:"seq"`
	Kind    Kind    `json:"kind"`
	Catalog int     `json:"catalog,omitempty"`
	Event   int64   `json:"event,omitempty"` // storm start (event identity)
	At      int64   `json:"at,omitempty"`    // instant of the transition
	Hours   int     `json:"hours,omitempty"`
	PeakNT  float64 `json:"peak_nt,omitempty"`
	DevKm   float64 `json:"dev_km,omitempty"`
	DragER  float64 `json:"drag_er,omitempty"`
	RateKmD float64 `json:"rate_km_day,omitempty"`
	DropKm  float64 `json:"drop_km,omitempty"`
	Trace   string  `json:"trace,omitempty"`
}

// IngestStats reports what one ingest batch did.
type IngestStats struct {
	Applied     int `json:"applied"`
	Duplicates  int `json:"duplicates"`
	GrossErrors int `json:"gross_errors,omitempty"`
}

// trackState is one catalog's incremental state: the full epoch-sorted,
// epoch-unique observation history (the per-track watermark is its frontier),
// the current cleaned track (nil while the satellite has not survived
// cleaning), and the materialized association row.
type trackState struct {
	obs   []core.Observation
	track *core.Track
	devs  map[int64]core.Deviation // event start (unix) → deviation
}

// Engine is the incremental pipeline state. It is not safe for concurrent
// use — Feed wraps it with a lock and the HTTP surface.
type Engine struct {
	cfg Config

	// Weather stream and the storm machine: dst's run scan, stepped one
	// hour at a time, so the storms are exactly dst.Storms over the stream.
	// The scan starts with the stream, at the first Dst ingest.
	wxStart time.Time
	wx      []float64
	scan    dst.RunScan
	storms  []dst.Storm // closed storms, time-ascending
	events  []time.Time // storm starts, the open storm's included, time-ascending

	// Track state.
	cats      []int // catalogs with >= 1 valid observation, ascending
	tracks    map[int]*trackState
	rawAlts   []float64 // every ingested altitude, ingest order
	totalObs  int
	grossErr  int
	dupRows   int
	opCount   int // catalogs whose track survives cleaning
	devCount  int
	onsets    map[int]core.DecayOnset
	lastEpoch int64 // newest observation epoch seen (unix)

	seq     uint64
	version uint64
	onDelta func(Delta)
	// batchTrace tags every delta emitted while the current traced ingest
	// batch runs. It is transient call-scoped context, never part of the
	// engine's replayable state: a prefix replay without traces emits the
	// same deltas minus the tag.
	batchTrace string

	matVersion uint64
	matData    *core.Dataset
}

// New builds an empty engine.
func New(cfg Config) *Engine {
	return &Engine{
		cfg:    cfg,
		tracks: make(map[int]*trackState),
		onsets: make(map[int]core.DecayOnset),
	}
}

// OnDelta registers the delta-event sink (at most one; the Feed fans out).
func (e *Engine) OnDelta(fn func(Delta)) { e.onDelta = fn }

// Version increments on every ingest batch that changed state — the cheap
// staleness check behind conditional GETs of the risk view.
func (e *Engine) Version() uint64 { return e.version }

// Seq returns the sequence number of the last emitted delta.
func (e *Engine) Seq() uint64 { return e.seq }

// WeatherWatermark returns the exclusive frontier of the ingested Dst
// stream: the first hour not yet covered (zero before any Dst ingest).
func (e *Engine) WeatherWatermark() time.Time {
	if len(e.wx) == 0 {
		return time.Time{}
	}
	return e.wxStart.Add(time.Duration(len(e.wx)) * time.Hour)
}

// LastObservationEpoch returns the newest observation epoch ingested, in
// Unix seconds (0 before any observation).
func (e *Engine) LastObservationEpoch() int64 { return e.lastEpoch }

func (e *Engine) emit(d Delta) {
	e.seq++
	d.Seq = e.seq
	d.Trace = e.batchTrace
	metricDeltas.Inc()
	if e.onDelta != nil {
		e.onDelta(d)
	}
}

// IngestTLEs folds parsed element sets into the engine.
func (e *Engine) IngestTLEs(sets []*tle.TLE) IngestStats {
	batch := make([]core.Observation, len(sets))
	for i, t := range sets {
		batch[i] = core.ObservationFromTLE(t)
	}
	return e.IngestObservations(batch)
}

// IngestTLEsTraced is IngestTLEs carrying the originating request's trace
// ID: every delta the batch provokes names the /ingest POST that caused it.
// A zero trace is plain IngestTLEs.
func (e *Engine) IngestTLEsTraced(sets []*tle.TLE, trace obs.TraceID) IngestStats {
	if trace != 0 {
		e.batchTrace = trace.String()
		defer func() { e.batchTrace = "" }()
	}
	return e.IngestTLEs(sets)
}

// IngestSamples folds simulator samples into the engine (the bulk seeding
// path; identical semantics to IngestTLEs).
func (e *Engine) IngestSamples(samples []constellation.Sample) IngestStats {
	batch := make([]core.Observation, len(samples))
	for i, s := range samples {
		batch[i] = core.ObservationFromSample(s)
	}
	return e.IngestObservations(batch)
}

// IngestObservations folds a batch of observations into the engine and
// advances the touched tracks' watermarks: cost is O(batch + touched tracks
// re-cleaned), never O(world). Rows may arrive in any order and may repeat —
// a (catalog, epoch) already ingested is dropped exactly as the batch
// dedupe's keep-first rule would drop it.
func (e *Engine) IngestObservations(batch []core.Observation) IngestStats {
	var st IngestStats
	touched := make(map[int]struct{})
	for _, o := range batch {
		e.totalObs++
		e.rawAlts = append(e.rawAlts, o.AltKm)
		if e.cfg.Core.GrossError(o.AltKm) {
			e.grossErr++
			st.GrossErrors++
			continue
		}
		ts := e.tracks[o.Catalog]
		if ts == nil {
			ts = &trackState{devs: make(map[int64]core.Deviation)}
			e.tracks[o.Catalog] = ts
			at, _ := slices.BinarySearch(e.cats, o.Catalog)
			e.cats = slices.Insert(e.cats, at, o.Catalog)
		}
		at, dup := slices.BinarySearchFunc(ts.obs, o.Epoch, func(x core.Observation, epoch int64) int {
			switch {
			case x.Epoch < epoch:
				return -1
			case x.Epoch > epoch:
				return 1
			default:
				return 0
			}
		})
		if dup {
			// The batch pipeline stable-sorts by epoch and keeps the first
			// row in ingest order; the row already stored is that first row.
			e.dupRows++
			st.Duplicates++
			continue
		}
		ts.obs = slices.Insert(ts.obs, at, o)
		if o.Epoch > e.lastEpoch {
			e.lastEpoch = o.Epoch
		}
		touched[o.Catalog] = struct{}{}
		st.Applied++
	}
	dirty := make([]int, 0, len(touched))
	for c := range touched {
		dirty = append(dirty, c)
	}
	slices.Sort(dirty)
	for _, c := range dirty {
		e.refreshTrack(c)
	}
	if len(batch) > 0 {
		e.version++
	}
	metricBatches.Inc()
	metricRows.Add(int64(len(batch)))
	metricRefreshes.Add(int64(len(dirty)))
	return st
}

// IngestDst appends hourly Dst readings starting at start. The stream must
// stay contiguous: start must be hour-aligned with the stream and leave no
// gap. Hours at or before the weather watermark are the dedupe window — they
// were already folded in and are dropped, so replaying an overlapping batch
// is idempotent.
func (e *Engine) IngestDst(start time.Time, vals []float64) (IngestStats, error) {
	var st IngestStats
	if len(vals) == 0 {
		return st, nil
	}
	if len(e.wx) == 0 {
		e.wxStart = start
		e.scan = dst.NewStormScan(start, units.StormThreshold)
	} else {
		off := start.Sub(e.wxStart)
		if off%time.Hour != 0 {
			return st, fmt.Errorf("incremental: dst batch at %s is not hour-aligned with the stream start %s", start.Format(time.RFC3339), e.wxStart.Format(time.RFC3339))
		}
		idx := int(off / time.Hour)
		if idx < 0 {
			return st, fmt.Errorf("incremental: dst batch at %s starts before the stream start %s", start.Format(time.RFC3339), e.wxStart.Format(time.RFC3339))
		}
		if idx > len(e.wx) {
			return st, fmt.Errorf("incremental: dst batch at %s leaves a %d-hour gap at the watermark", start.Format(time.RFC3339), idx-len(e.wx))
		}
		skip := len(e.wx) - idx
		if skip >= len(vals) {
			st.Duplicates = len(vals)
			return st, nil
		}
		st.Duplicates = skip
		vals = vals[skip:]
	}
	for _, v := range vals {
		at := e.wxStart.Add(time.Duration(len(e.wx)) * time.Hour)
		e.wx = append(e.wx, v)
		e.feedHour(at, v)
		st.Applied++
	}
	e.version++
	metricDstHours.Add(int64(st.Applied))
	return st, nil
}

// feedHour steps the storm machine by one reading and emits its
// transitions. A storm's first hour opens it as an event too, and runs the
// engine's only O(world) sweep: the association of the new event against
// every track. It is rare (once per storm) and is exactly the work the batch
// pipeline redoes for every event on every rebuild. A closed storm is frozen.
func (e *Engine) feedHour(at time.Time, v float64) {
	ended := e.scan.Step(v)
	run, open := e.scan.Run()
	switch {
	case ended:
		e.storms = append(e.storms, run)
		e.emit(Delta{Kind: KindStormClose, Event: run.Start.Unix(), At: at.Unix(), Hours: run.Hours, PeakNT: float64(run.Peak)})
	case open && run.Hours == 1:
		e.emit(Delta{Kind: KindStormOpen, Event: run.Start.Unix(), At: at.Unix(), Hours: 1, PeakNT: float64(run.Peak)})
		e.events = append(e.events, run.Start)
		e.emit(Delta{Kind: KindEventOpen, Event: run.Start.Unix(), Hours: 1, PeakNT: float64(run.Peak)})
		ev := core.Event{Storm: dst.Storm{Start: run.Start}}
		for _, cat := range e.cats {
			e.refreshPair(ev, cat)
		}
	}
}

// refreshTrack re-cleans one catalog after its watermark advanced, then
// reconciles its decay onset and its row of the association join. Cost is
// O(track history + events), independent of the fleet size.
func (e *Engine) refreshTrack(cat int) {
	ts := e.tracks[cat]
	res := core.CleanTrack(cat, ts.obs, e.cfg.Core)
	had := ts.track != nil
	ts.track = res.Track
	switch {
	case ts.track != nil && !had:
		e.opCount++
		e.emit(Delta{Kind: KindTrackNew, Catalog: cat})
	case ts.track == nil && had:
		e.opCount--
		e.emit(Delta{Kind: KindTrackDrop, Catalog: cat})
	}

	var on core.DecayOnset
	ok := false
	if ts.track != nil {
		on, ok = core.TrackDecayOnset(ts.track, e.cfg.Core.DecayFilterKm, e.cfg.MinDropKm)
	}
	old, had2 := e.onsets[cat]
	switch {
	case ok && !had2:
		e.onsets[cat] = on
		e.emit(Delta{Kind: KindOnsetOpen, Catalog: cat, At: on.At.Unix(), RateKmD: on.RateKmPerDay, DropKm: on.DropKm})
	case ok && had2 && on != old:
		e.onsets[cat] = on
		e.emit(Delta{Kind: KindOnsetUpdate, Catalog: cat, At: on.At.Unix(), RateKmD: on.RateKmPerDay, DropKm: on.DropKm})
	case !ok && had2:
		delete(e.onsets, cat)
		e.emit(Delta{Kind: KindOnsetClear, Catalog: cat})
	}

	for _, start := range e.events {
		e.refreshPair(core.Event{Storm: dst.Storm{Start: start}}, cat)
	}
}

// refreshPair reconciles one (event, track) cell of the association join.
func (e *Engine) refreshPair(ev core.Event, cat int) {
	ts := e.tracks[cat]
	key := ev.Epoch().Unix()
	var nd core.Deviation
	ok := false
	if ts.track != nil {
		nd, ok = core.AssociateTrack(e.cfg.Core, ev, ts.track, e.cfg.WindowDays)
	}
	old, had := ts.devs[key]
	switch {
	case ok && !had:
		ts.devs[key] = nd
		e.devCount++
		e.emit(Delta{Kind: KindDeviationNew, Catalog: cat, Event: key, DevKm: nd.MaxDevKm, DragER: nd.MaxDrag})
	case ok && had && nd != old:
		ts.devs[key] = nd
		e.emit(Delta{Kind: KindDeviationUpdate, Catalog: cat, Event: key, DevKm: nd.MaxDevKm, DragER: nd.MaxDrag})
	case !ok && had:
		delete(ts.devs, key)
		e.devCount--
		e.emit(Delta{Kind: KindDeviationClear, Catalog: cat, Event: key})
	}
}

// Weather materializes the ingested Dst stream as an index (a copy; the
// engine keeps appending).
func (e *Engine) Weather() (*dst.Index, error) {
	if len(e.wx) == 0 {
		return nil, fmt.Errorf("incremental: no solar activity data ingested")
	}
	return dst.FromValues(e.wxStart, slices.Clone(e.wx)), nil
}

// Storms returns every storm at the current watermark, the trailing open run
// included — exactly dst.Storms over the ingested stream.
func (e *Engine) Storms() []dst.Storm {
	out := slices.Clone(e.storms)
	if run, open := e.scan.Run(); open {
		out = append(out, run)
	}
	return out
}

// Events returns one event per storm at the current watermark, in storm
// order — exactly core.WeatherEvents at the storm threshold over the
// ingested stream.
func (e *Engine) Events() []core.Event {
	var out []core.Event
	for _, s := range e.Storms() {
		out = append(out, core.Event{Storm: s})
	}
	return out
}

// Deviations returns the materialized association join in the batch
// pipeline's order: event-major, catalog-minor.
func (e *Engine) Deviations() []core.Deviation {
	out := make([]core.Deviation, 0, e.devCount)
	for _, start := range e.events {
		key := start.Unix()
		for _, cat := range e.cats {
			if d, ok := e.tracks[cat].devs[key]; ok {
				out = append(out, d)
			}
		}
	}
	return out
}

// Onsets returns the detected decay onsets in catalog order — exactly
// Dataset.DecayOnsets at the current watermark.
func (e *Engine) Onsets() []core.DecayOnset {
	out := make([]core.DecayOnset, 0, len(e.onsets))
	for _, cat := range e.cats {
		if on, ok := e.onsets[cat]; ok {
			out = append(out, on)
		}
	}
	return out
}

// Dataset materializes the engine state as a batch-identical core.Dataset:
// one ChunkPartial through the same PartialAssembler Build uses. The result
// is cached per version, immutable, and safe to hold across further ingests
// (refreshes replace track pointers, never mutate them).
func (e *Engine) Dataset() (*core.Dataset, error) {
	if e.matData != nil && e.matVersion == e.version {
		return e.matData, nil
	}
	weather, err := e.Weather()
	if err != nil {
		return nil, err
	}
	p := &core.ChunkPartial{
		// The assembler canonicalizes the raw-altitude order on Finish, so
		// the ingest-order clone lands in the dataset's canonical form.
		RawAlts: slices.Clone(e.rawAlts),
	}
	p.Stats.TotalObservations = e.totalObs
	p.Stats.GrossErrors = e.grossErr
	p.Stats.Duplicates = e.dupRows
	p.Tracks = make([]*core.Track, 0, e.opCount)
	for _, cat := range e.cats {
		ts := e.tracks[cat]
		if ts.track == nil {
			p.Stats.NonOperational++
			continue
		}
		p.Stats.RaisingRemoved += ts.track.RaisingRemoved
		p.Tracks = append(p.Tracks, ts.track)
	}
	a := core.NewPartialAssembler(e.cfg.Core, weather)
	if err := a.Add(p); err != nil {
		return nil, err
	}
	d, err := a.Finish()
	if err != nil {
		return nil, err
	}
	e.matData = d
	e.matVersion = e.version
	return d, nil
}
