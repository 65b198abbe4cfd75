package incremental

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"cosmicdance/internal/constellation"
	"cosmicdance/internal/core"
	"cosmicdance/internal/dst"
	"cosmicdance/internal/obs"
	"cosmicdance/internal/tle"
)

// Feed telemetry: the live stream's health at a glance.
var (
	metricRiskServed   = obs.Default().Counter("incremental_risk_requests_total")
	metricRiskNotMod   = obs.Default().Counter("incremental_risk_not_modified_total")
	metricStreamServed = obs.Default().Counter("incremental_stream_requests_total")
	metricStreamEvents = obs.Default().Counter("incremental_stream_events_total")
	metricWatermarkLag = obs.Default().Gauge("incremental_watermark_lag_seconds")
)

// RiskEntry is one satellite in the risk view's decaying list.
type RiskEntry struct {
	Catalog      int     `json:"catalog"`
	At           int64   `json:"at"` // decay onset, unix seconds
	RateKmPerDay float64 `json:"rate_km_day"`
	DropKm       float64 `json:"drop_km"`
}

// RiskStorm is the active storm summary in the risk view.
type RiskStorm struct {
	Start  int64   `json:"start"` // unix seconds
	Hours  int     `json:"hours"`
	PeakNT float64 `json:"peak_nt"`
}

// RiskView is the materialized decay-risk state served at /v1/risk: the
// watermarks, the cleaning funnel, the live storm, and the satellites
// currently in detected decay, worst first.
type RiskView struct {
	Version          uint64      `json:"version"`
	Seq              uint64      `json:"seq"`
	WeatherWatermark int64       `json:"weather_watermark"` // unix seconds, exclusive
	LastObservation  int64       `json:"last_observation"`  // unix seconds
	Observations     int         `json:"observations"`
	GrossErrors      int         `json:"gross_errors"`
	Duplicates       int         `json:"duplicates"`
	Tracks           int         `json:"tracks"`
	NonOperational   int         `json:"non_operational"`
	Storms           int         `json:"storms"`
	Events           int         `json:"events"`
	Deviations       int         `json:"deviations"`
	Onsets           int         `json:"onsets"`
	ActiveStorm      *RiskStorm  `json:"active_storm,omitempty"`
	Decaying         []RiskEntry `json:"decaying,omitempty"`
}

// maxDecaying caps the risk view's decaying list; the full set is available
// through the dataset-level analyses.
const maxDecaying = 20

// Feed wraps an Engine with the concurrency and transport surface of the
// live decay-risk feed: a mutex serializing ingests against reads, a bounded
// delta ring for the SSE stream, and the /v1 HTTP handlers. The zero value
// is not usable; construct with NewFeed.
type Feed struct {
	mu     sync.Mutex
	eng    *Engine
	ring   []Delta
	cap    int
	notify chan struct{} // closed and swapped whenever deltas append
	flight *obs.FlightRecorder
}

// NewFeed wraps an engine. ringCap bounds the delta backlog a slow stream
// consumer can replay (older deltas force a resync); <= 0 gets a default.
func NewFeed(eng *Engine, ringCap int) *Feed {
	if ringCap <= 0 {
		ringCap = 4096
	}
	f := &Feed{eng: eng, cap: ringCap, notify: make(chan struct{})}
	eng.OnDelta(func(d Delta) {
		f.ring = append(f.ring, d)
		if len(f.ring) > f.cap {
			f.ring = f.ring[len(f.ring)-f.cap:]
		}
		f.flight.Record(obs.FlightEvent{Kind: "delta", Trace: d.Trace, Detail: string(d.Kind)})
	})
	return f
}

// SetFlight points the feed at the serving plane's flight recorder: delta
// emissions, traced ingests, and SSE resyncs land in the ring alongside the
// server's request events. Call before serving begins; a nil recorder (the
// default) records nothing.
func (f *Feed) SetFlight(rec *obs.FlightRecorder) {
	f.mu.Lock()
	f.flight = rec
	f.mu.Unlock()
}

// Engine returns the wrapped engine. Callers must not use it concurrently
// with the feed's ingest surface.
func (f *Feed) Engine() *Engine { return f.eng }

// broadcast wakes every blocked stream reader. Callers hold f.mu.
func (f *Feed) broadcast() {
	close(f.notify)
	f.notify = make(chan struct{})
}

// IngestTLEs folds element sets into the engine under the feed lock.
func (f *Feed) IngestTLEs(sets []*tle.TLE) IngestStats {
	return f.IngestTLEsTraced(sets, 0)
}

// IngestTLEsTraced folds element sets into the engine under the feed lock,
// tagging every provoked delta with the originating request's trace ID and
// recording the batch as an "ingest" flight event.
func (f *Feed) IngestTLEsTraced(sets []*tle.TLE, trace obs.TraceID) IngestStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := f.eng.IngestTLEsTraced(sets, trace)
	var ts string
	if trace != 0 {
		ts = trace.String()
	}
	f.flight.Record(obs.FlightEvent{
		Kind:   "ingest",
		Trace:  ts,
		Detail: fmt.Sprintf("sets=%d applied=%d dup=%d gross=%d", len(sets), st.Applied, st.Duplicates, st.GrossErrors),
	})
	f.broadcast()
	return st
}

// IngestObservations folds pre-converted records into the engine under the
// feed lock.
func (f *Feed) IngestObservations(batch []core.Observation) IngestStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := f.eng.IngestObservations(batch)
	f.broadcast()
	return st
}

// IngestSamples folds simulator samples into the engine under the feed lock.
func (f *Feed) IngestSamples(samples []constellation.Sample) IngestStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := f.eng.IngestSamples(samples)
	f.broadcast()
	return st
}

// IngestDst appends Dst hours under the feed lock.
func (f *Feed) IngestDst(start time.Time, vals []float64) (IngestStats, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	st, err := f.eng.IngestDst(start, vals)
	f.broadcast()
	return st, err
}

// SetWatermarkLag records how far the weather watermark trails now — the
// daemon's liveness gauge for the incremental plane.
func (f *Feed) SetWatermarkLag(now time.Time) {
	f.mu.Lock()
	wm := f.eng.WeatherWatermark()
	f.mu.Unlock()
	if wm.IsZero() {
		return
	}
	metricWatermarkLag.Set(now.Sub(wm).Seconds())
}

// Risk builds the current risk view.
func (f *Feed) Risk() RiskView {
	f.mu.Lock()
	defer f.mu.Unlock()
	e := f.eng
	v := RiskView{
		Version:         e.version,
		Seq:             e.seq,
		LastObservation: e.lastEpoch,
		Observations:    e.totalObs,
		GrossErrors:     e.grossErr,
		Duplicates:      e.dupRows,
		Tracks:          e.opCount,
		NonOperational:  len(e.cats) - e.opCount,
		Storms:          len(e.storms),
		Events:          len(e.events),
		Deviations:      e.devCount,
		Onsets:          len(e.onsets),
	}
	if wm := e.WeatherWatermark(); !wm.IsZero() {
		v.WeatherWatermark = wm.Unix()
	}
	if run, open := e.scan.Run(); open {
		v.Storms++
		v.ActiveStorm = &RiskStorm{Start: run.Start.Unix(), Hours: run.Hours, PeakNT: float64(run.Peak)}
	}
	entries := make([]RiskEntry, 0, len(e.onsets))
	for cat, on := range e.onsets {
		entries = append(entries, RiskEntry{Catalog: cat, At: on.At.Unix(), RateKmPerDay: on.RateKmPerDay, DropKm: on.DropKm})
	}
	slices.SortFunc(entries, func(a, b RiskEntry) int {
		switch {
		case a.RateKmPerDay > b.RateKmPerDay:
			return -1
		case a.RateKmPerDay < b.RateKmPerDay:
			return 1
		default:
			return a.Catalog - b.Catalog
		}
	})
	if len(entries) > maxDecaying {
		entries = entries[:maxDecaying]
	}
	v.Decaying = entries
	return v
}

// Handler mounts the feed's HTTP surface:
//
//	GET  /v1/risk         current risk view (ETag/If-None-Match aware)
//	GET  /v1/risk/stream  delta events as SSE (cursor resume, nowait drain)
//	POST /v1/dst          append hourly Dst readings (?start=RFC3339)
func (f *Feed) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/risk", f.handleRisk)
	mux.HandleFunc("/v1/risk/stream", f.handleStream)
	mux.HandleFunc("/v1/dst", f.handleDst)
	return mux
}

func (f *Feed) handleRisk(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	metricRiskServed.Inc()
	view := f.Risk()
	etag := fmt.Sprintf("\"risk-v%d-s%d\"", view.Version, view.Seq)
	w.Header().Set("ETag", etag)
	if match := r.Header.Get("If-None-Match"); match != "" && strings.Contains(match, etag) {
		metricRiskNotMod.Inc()
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(view)
}

// handleStream serves the delta feed as server-sent events. Query knobs:
//
//   - cursor=N (or a Last-Event-ID header): resume after delta N; deltas
//     older than the ring emit an initial "resync" event carrying the oldest
//     sequence still available.
//   - nowait=1: drain what is buffered and close instead of blocking — the
//     deterministic mode load clients use.
//   - limit=N: close after N events.
func (f *Feed) handleStream(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	metricStreamServed.Inc()
	cursor := uint64(0)
	if s := r.URL.Query().Get("cursor"); s != "" {
		n, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			http.Error(w, "bad cursor", http.StatusBadRequest)
			return
		}
		cursor = n
	} else if s := r.Header.Get("Last-Event-ID"); s != "" {
		if n, err := strconv.ParseUint(s, 10, 64); err == nil {
			cursor = n
		}
	}
	nowait := r.URL.Query().Get("nowait") == "1"
	limit := 0
	if s := r.URL.Query().Get("limit"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			http.Error(w, "bad limit", http.StatusBadRequest)
			return
		}
		limit = n
	}

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	flusher, _ := w.(http.Flusher)
	sent := 0
	for {
		batch, oldest, notify := f.after(cursor)
		if oldest > 0 && oldest-1 > cursor {
			// The ring dropped deltas the cursor still wanted: tell the
			// client to resync from a fresh /v1/risk snapshot. (cursor+1
			// would wrap to 0 for the largest cursor.)
			f.recordResync(cursor, oldest)
			fmt.Fprintf(w, "event: resync\ndata: {\"oldest\":%d}\n\n", oldest)
			cursor = oldest - 1
			if flusher != nil {
				flusher.Flush()
			}
			continue
		}
		for _, d := range batch {
			data, err := json.Marshal(d)
			if err != nil {
				return
			}
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", d.Seq, d.Kind, data)
			cursor = d.Seq
			sent++
			metricStreamEvents.Inc()
			if limit > 0 && sent >= limit {
				return
			}
		}
		if flusher != nil && len(batch) > 0 {
			flusher.Flush()
		}
		if len(batch) == 0 {
			if nowait {
				return
			}
			select {
			case <-r.Context().Done():
				return
			case <-notify:
			}
		}
	}
}

// recordResync logs an SSE consumer falling off the delta ring — the
// overflow shape the flight recorder exists to post-mortem.
func (f *Feed) recordResync(cursor, oldest uint64) {
	f.mu.Lock()
	rec := f.flight
	f.mu.Unlock()
	rec.Record(obs.FlightEvent{Kind: "resync", Detail: fmt.Sprintf("cursor=%d oldest=%d", cursor, oldest)})
}

// after returns a copy of the buffered deltas with Seq > cursor, the oldest
// sequence still buffered (0 when the ring is empty), and the channel that
// closes on the next append.
func (f *Feed) after(cursor uint64) ([]Delta, uint64, <-chan struct{}) {
	f.mu.Lock()
	defer f.mu.Unlock()
	oldest := uint64(0)
	if len(f.ring) > 0 {
		oldest = f.ring[0].Seq
	}
	i := len(f.ring)
	for i > 0 && f.ring[i-1].Seq > cursor {
		i--
	}
	return slices.Clone(f.ring[i:]), oldest, f.notify
}

// handleDst ingests hourly Dst readings: whitespace-separated floats in the
// body, the batch's first hour in ?start=RFC3339. A reading is a finite
// decimal or NaN, a missing hour (as WDC's 9999 decodes). Infinities and hex
// floats are rejected: a delta carrying ±Inf cannot be encoded as JSON, so
// stream subscribers would silently lose it. One bad reading rejects the
// whole batch before anything is applied.
func (f *Feed) handleDst(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	start, err := time.Parse(time.RFC3339, r.URL.Query().Get("start"))
	if err != nil {
		http.Error(w, "bad or missing start (RFC3339)", http.StatusBadRequest)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		code := http.StatusBadRequest
		if errors.As(err, new(*http.MaxBytesError)) {
			code = http.StatusRequestEntityTooLarge
		}
		http.Error(w, "reading dst body: "+err.Error(), code)
		return
	}
	fields := strings.Fields(string(body))
	vals := make([]float64, 0, len(fields))
	for _, s := range fields {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil || math.IsInf(v, 0) || strings.ContainsAny(s, "xX") {
			http.Error(w, fmt.Sprintf("bad reading %q", s), http.StatusBadRequest)
			return
		}
		vals = append(vals, v)
	}
	st, err := f.IngestDst(start, vals)
	if err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(st)
}

// WeatherIndex seeds or extends the engine from a whole Dst index under the
// feed lock — the daemon's boot path.
func (f *Feed) WeatherIndex(x *dst.Index) (IngestStats, error) {
	return f.IngestDst(x.Start(), slices.Clone(x.Values()))
}
