package spacetrack

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cosmicdance/internal/obs"
	"cosmicdance/internal/tle"
)

// Server-side telemetry: requests served and latency per endpoint, plus one
// admission counter per decision, mirrored on atomic fields so the daemon
// can log final totals at shutdown without a registry scan.
var (
	metricServedGroup   = obs.Default().Counter("spacetrack_server_requests_total", "endpoint", "group")
	metricServedHistory = obs.Default().Counter("spacetrack_server_requests_total", "endpoint", "history")
	metricServedIngest  = obs.Default().Counter("spacetrack_server_requests_total", "endpoint", "ingest")
	metricServedHealthz = obs.Default().Counter("spacetrack_server_requests_total", "endpoint", "healthz")
	metricRateLimited   = obs.Default().Counter("spacetrack_server_ratelimited_total")
	metricNotModified   = obs.Default().Counter("spacetrack_server_not_modified_total")

	metricAdmitted = map[string]*obs.Counter{}
	metricLatency  = map[string]*obs.Histogram{}
)

// latencyBounds covers sub-millisecond in-process serving up to multi-second
// degraded tails, in seconds.
var latencyBounds = []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5}

func init() {
	for _, d := range []string{"accepted", "per_client", "capacity", "inflight"} {
		metricAdmitted[d] = obs.Default().Counter("spacetrack_server_admission_total", "decision", d)
	}
	for _, ep := range []string{"group", "history", "ingest"} {
		metricLatency[ep] = obs.Default().Histogram("spacetrack_server_latency_seconds", latencyBounds, "endpoint", ep)
	}
}

// Server publishes an Archive over HTTP with CelesTrak- and Space-Track-
// shaped endpoints:
//
//	GET  /NORAD/elements/gp.php?GROUP=<group>&FORMAT=tle
//	GET  /history?catalog=<id>&from=<RFC3339>&to=<RFC3339>
//	POST /ingest?group=<group>
//	GET  /healthz
//
// Three admission layers guard the data endpoints, all running on the
// injected service clock and all answering with a Retry-After computed from
// the actual state that rejected the request:
//
//   - MaxInFlight bounds concurrent requests; excess gets 503.
//   - A global capacity token bucket (CapacityPerSec/CapacityBurst) sheds
//     aggregate overload with 503 + the bucket's refill time.
//   - Per-client token buckets (RatePerSec/Burst, keyed by the X-Client-Id
//     header or the peer host) throttle individual clients with 429 + the
//     client bucket's refill time.
//
// Group responses carry ETag and Last-Modified validators; conditional
// requests (If-None-Match / If-Modified-Since) answer 304 without a body.
// Responses are gzip-compressed when the client accepts it, through pooled
// gzip writers, and history windows are encoded as the archive streams
// them, through one buffer that goes to the client whenever it fills.
type Server struct {
	archive Archive
	// Now reports the service's current time (the frontier of the archive);
	// it is a field so tests and replay servers can pin it.
	Now func() time.Time

	// OnIngest, when set, observes every accepted /ingest batch after the
	// archive merge — the hook the live decay-risk feed hangs off so element
	// sets fold into the incremental engine as they arrive. trace is the
	// originating request's trace ID (0 for untraced requests) so the feed's
	// deltas can name the ingest that caused them.
	OnIngest func(group string, sets []*tle.TLE, applied int, trace obs.TraceID)

	// Trace, when set, mints trace IDs for requests that arrive without a
	// Cosmic-Trace header; requests carrying the header keep their ID either
	// way. Nil leaves header-less requests untraced.
	Trace *obs.IDStream
	// Flight, when set, records request outcomes and admission rejections —
	// the serving plane's black box. Nil disables recording (the nil
	// *FlightRecorder is a no-op receiver).
	Flight *obs.FlightRecorder
	// SLO, when set, tallies per-endpoint latency and error-budget burn.
	SLO *obs.SLOTracker
	// HealthInfo, when set, contributes daemon-level facts (incremental
	// watermark frontier, build info) to the /healthz body.
	HealthInfo func() map[string]string

	served     atomic.Int64
	rejected   atomic.Int64
	overloaded atomic.Int64
	inflight   atomic.Int64

	// RatePerSec and Burst configure the per-client token buckets; zero
	// RatePerSec disables per-client limiting.
	RatePerSec float64
	Burst      float64

	// CapacityPerSec and CapacityBurst configure the global admission
	// bucket; zero CapacityPerSec disables it.
	CapacityPerSec float64
	CapacityBurst  float64
	// MaxInFlight bounds concurrently served requests; zero disables.
	MaxInFlight int64

	mu       sync.Mutex
	clients  map[string]*bucket
	capacity bucket
}

// bucket is one token bucket's mutable state, guarded by Server.mu.
type bucket struct {
	tokens float64
	last   time.Time
	seen   bool
}

// take refills the bucket to now and consumes one token. On refusal it
// returns the wait until the next token materializes at the given rate.
func (b *bucket) take(now time.Time, rate, burst float64) (bool, time.Duration) {
	if !b.seen {
		b.tokens = burst
		b.last = now
		b.seen = true
	}
	b.tokens += now.Sub(b.last).Seconds() * rate
	if b.tokens > burst {
		b.tokens = burst
	}
	b.last = now
	if b.tokens < 1 {
		wait := time.Duration((1 - b.tokens) / rate * float64(time.Second))
		return false, wait
	}
	b.tokens--
	return true, 0
}

// NewServer wraps an archive. now pins the service clock (use the end of the
// simulation window); pass the zero time to use wall clock.
func NewServer(archive Archive, now time.Time) *Server {
	s := &Server{archive: archive}
	if now.IsZero() {
		s.Now = time.Now //cosmiclint:allow nondet zero-time is the documented opt-in for wall clock; simulation runs always pin now
	} else {
		s.Now = func() time.Time { return now }
	}
	return s
}

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/NORAD/elements/gp.php", s.admit("group", s.handleGroup))
	mux.HandleFunc("/history", s.admit("history", s.handleHistory))
	mux.HandleFunc("/ingest", s.admit("ingest", s.handleIngest))
	mux.HandleFunc("/healthz", s.handleHealthz)
	return mux
}

// GroupHealth is one group's catalog epoch in the /healthz body.
type GroupHealth struct {
	Group     string `json:"group"`
	Version   uint64 `json:"version"`
	UpdatedAt string `json:"updated_at"`
}

// HealthStatus is the /healthz body: liveness plus the facts an operator
// reaches for first in a storm — the service clock, each group's catalog
// epoch (version + last mutation), and daemon-contributed info such as the
// incremental watermark frontier and build identity. Groups are sorted and
// Info is a JSON map (encoding/json orders keys), so the body is
// deterministic for identical state.
type HealthStatus struct {
	Status string            `json:"status"`
	Now    string            `json:"now"`
	Groups []GroupHealth     `json:"groups,omitempty"`
	Info   map[string]string `json:"info,omitempty"`
}

// Health assembles the current HealthStatus — exported so the daemon's
// shutdown log and tests share the handler's view.
func (s *Server) Health() HealthStatus {
	hs := HealthStatus{Status: "ok", Now: s.Now().UTC().Format(time.RFC3339)}
	for _, g := range s.archive.Groups() {
		if v, mod, known := s.archive.GroupVersion(g); known {
			hs.Groups = append(hs.Groups, GroupHealth{
				Group:     g,
				Version:   v,
				UpdatedAt: mod.UTC().Format(time.RFC3339),
			})
		}
	}
	if s.HealthInfo != nil {
		hs.Info = s.HealthInfo()
	}
	return hs
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.served.Add(1)
	metricServedHealthz.Inc()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// A short read is the client's problem; the status line is already out.
	_ = enc.Encode(s.Health())
}

// RequestsServed reports how many requests completed admission and reached a
// handler (including healthz).
func (s *Server) RequestsServed() int64 { return s.served.Load() }

// RateLimited reports how many requests the per-client buckets rejected
// with 429.
func (s *Server) RateLimited() int64 { return s.rejected.Load() }

// Overloaded reports how many requests the admission layer shed with 503
// (capacity bucket or in-flight bound).
func (s *Server) Overloaded() int64 { return s.overloaded.Load() }

// clientKey identifies the requester for per-client limiting: the
// self-reported X-Client-Id when present, else the peer host.
func clientKey(r *http.Request) string {
	if id := r.Header.Get("X-Client-Id"); id != "" {
		return id
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// retryAfterSeconds renders a refill wait as a Retry-After value: whole
// seconds, rounded up, at least 1.
func retryAfterSeconds(wait time.Duration) string {
	secs := int(math.Ceil(wait.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// admitClient runs the per-client bucket for key. Exposed to tests via the
// fixed-clock regression suite.
func (s *Server) admitClient(key string) (bool, time.Duration) {
	if s.RatePerSec <= 0 {
		return true, 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.clients == nil {
		s.clients = make(map[string]*bucket)
	}
	now := s.Now()
	b := s.clients[key]
	if b == nil {
		s.evictLocked(now)
		b = &bucket{}
		s.clients[key] = b
	}
	return b.take(now, s.RatePerSec, s.Burst)
}

// maxClients bounds the tracked per-client buckets.
const maxClients = 4096

// evictLocked drops refilled-to-full buckets once maxClients buckets are
// tracked. A full bucket carries no throttling state — it behaves exactly
// like the fresh bucket its client would otherwise get — so eviction never
// changes a limiting decision.
func (s *Server) evictLocked(now time.Time) {
	if len(s.clients) < maxClients {
		return
	}
	for key, b := range s.clients {
		refilled := b.tokens + now.Sub(b.last).Seconds()*s.RatePerSec
		if refilled >= s.Burst {
			delete(s.clients, key)
		}
	}
}

// admitCapacity runs the global capacity bucket.
func (s *Server) admitCapacity() (bool, time.Duration) {
	if s.CapacityPerSec <= 0 {
		return true, 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.capacity.take(s.Now(), s.CapacityPerSec, s.CapacityBurst)
}

// statusRecorder captures the status a handler writes so admit() can judge
// the request for the SLO tracker and the flight recorder. An unwritten
// status is 200, matching net/http's implicit WriteHeader.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.status = code
	sr.ResponseWriter.WriteHeader(code)
}

// traceString renders a TraceID for a flight event: "" for untraced.
func traceString(t obs.TraceID) string {
	if t == 0 {
		return ""
	}
	return t.String()
}

// admit wraps a data-plane handler with the three admission layers and the
// per-endpoint telemetry. It is also where a request's trace begins: the
// Cosmic-Trace header is honoured when present (and echoed on the response),
// s.Trace mints an ID otherwise, and a traced request's obs.Tracer rides the
// request context so handlers can mark their catalog-read/gzip/feed-append
// phases. Shed requests (503/429) land in the flight recorder with their
// trace IDs — the storm post-mortem's primary key.
func (s *Server) admit(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	served := map[string]*obs.Counter{
		"group": metricServedGroup, "history": metricServedHistory, "ingest": metricServedIngest,
	}[endpoint]
	return func(w http.ResponseWriter, r *http.Request) {
		trace := obs.ParseTraceID(r.Header.Get(obs.TraceHeader))
		if trace == 0 && s.Trace != nil {
			trace = s.Trace.Next()
		}
		if trace != 0 {
			w.Header().Set(obs.TraceHeader, trace.String())
		}
		var tr *obs.Tracer
		if trace != 0 {
			tr = obs.NewTracer(s.Now)
		}
		admission := tr.Start("admission")
		if s.MaxInFlight > 0 {
			if n := s.inflight.Add(1); n > s.MaxInFlight {
				s.inflight.Add(-1)
				s.refuse(w, endpoint, trace, "inflight", http.StatusServiceUnavailable, 0, "server saturated")
				return
			}
			defer s.inflight.Add(-1)
		}
		if ok, wait := s.admitCapacity(); !ok {
			s.refuse(w, endpoint, trace, "capacity", http.StatusServiceUnavailable, wait, "over capacity")
			return
		}
		if ok, wait := s.admitClient(clientKey(r)); !ok {
			s.refuse(w, endpoint, trace, "per_client", http.StatusTooManyRequests, wait, "rate limit exceeded")
			return
		}
		admission.End()
		s.served.Add(1)
		served.Inc()
		metricAdmitted["accepted"].Inc()
		if tr != nil {
			r = r.WithContext(obs.WithTracer(r.Context(), tr))
		}
		sw := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := s.Now()
		h(sw, r)
		elapsed := s.Now().Sub(start)
		metricLatency[endpoint].ObserveExemplar(elapsed.Seconds(), trace)
		s.SLO.Record(endpoint, elapsed, sw.status >= 500)
		if s.Flight != nil {
			s.Flight.Record(obs.FlightEvent{
				Kind:       "request",
				Trace:      traceString(trace),
				Endpoint:   endpoint,
				Status:     sw.status,
				DurationNS: elapsed.Nanoseconds(),
				Spans:      tr.Spans(),
			})
		}
	}
}

// refuse answers a request admission turned away with status: a 429 counts
// as rate limited, a 503 as overloaded. Retry-After is the wait until the
// refusing bucket refills, at least a second; decision labels the admission
// counter and the flight recorder's reject, and the SLO tracker counts a
// failure.
func (s *Server) refuse(w http.ResponseWriter, endpoint string, trace obs.TraceID, decision string, status int, wait time.Duration, body string) {
	if status == http.StatusTooManyRequests {
		s.rejected.Add(1)
		metricRateLimited.Inc()
	} else {
		s.overloaded.Add(1)
	}
	metricAdmitted[decision].Inc()
	w.Header().Set("Retry-After", retryAfterSeconds(wait))
	http.Error(w, body, status)
	s.Flight.RecordReject(obs.FlightEvent{Trace: traceString(trace), Endpoint: endpoint, Status: status, Detail: decision})
	s.SLO.Record(endpoint, 0, true)
}

// validatorGranularity quantizes the clock component of the group
// validators to the simulation's sample cadence: a group's ETag changes when
// it is ingested into or when the service clock crosses an hour boundary,
// whichever comes first.
const validatorGranularity = time.Hour

// validators computes a group's conditional-fetch validators from its
// version and last mutation: the ETag folds in the version and the clock
// quantum (new samples become visible as the service clock advances, even
// without ingest), and Last-Modified is the later of the last mutation and
// the quantum boundary.
func (s *Server) validators(group string, version uint64, mod time.Time) (etag string, lastMod time.Time) {
	cut := s.Now().Truncate(validatorGranularity)
	if mod.Before(cut) {
		mod = cut
	}
	return fmt.Sprintf("%q", fmt.Sprintf("%s-v%d-%d", group, version, cut.Unix())), mod
}

// notModified answers a conditional request against the validators,
// preferring If-None-Match over If-Modified-Since per RFC 9110.
func notModified(r *http.Request, etag string, lastMod time.Time) bool {
	if match := r.Header.Get("If-None-Match"); match != "" {
		return match == etag
	}
	if ims := r.Header.Get("If-Modified-Since"); ims != "" {
		if t, err := http.ParseTime(ims); err == nil {
			return !lastMod.Truncate(time.Second).After(t)
		}
	}
	return false
}

// pooledGzip is a gzip writer bound for life to its own sink, which points
// at the response being compressed, so a pooled writer holds no response
// and clears its deflate state once per response, on the Reset that
// rebinds it.
type pooledGzip struct {
	zw   *gzip.Writer
	sink gzipSink
}

// gzipSink forwards to the current response.
type gzipSink struct{ w io.Writer }

func (s *gzipSink) Write(p []byte) (int, error) { return s.w.Write(p) }

// gzipWriters recycles gzip writers across responses: each one holds about
// 1 MB of deflate state that a fresh writer would allocate and zero.
var gzipWriters = sync.Pool{New: func() any {
	g := &pooledGzip{}
	g.zw = gzip.NewWriter(&g.sink)
	return g
}}

// compressed negotiates gzip: it returns the body writer and a finish
// function that must run after the body is complete. A gzip writer comes
// from gzipWriters and goes back after finish closes it; a response
// abandoned before finish leaves its writer to the garbage collector.
func compressed(w http.ResponseWriter, r *http.Request) (io.Writer, func() error) {
	if !strings.Contains(r.Header.Get("Accept-Encoding"), "gzip") {
		return w, func() error { return nil }
	}
	w.Header().Set("Content-Encoding", "gzip")
	w.Header().Add("Vary", "Accept-Encoding")
	g := gzipWriters.Get().(*pooledGzip)
	g.sink.w = w
	g.zw.Reset(&g.sink)
	return g.zw, func() error {
		err := g.zw.Close()
		g.sink.w = nil
		gzipWriters.Put(g)
		return err
	}
}

// flushBytes is the size at which a response's encoded text goes to the
// response writer, so a bulk window never materializes on the server.
const flushBytes = 32 << 10

// writeLines writes the element lines of every set walk yields to w, with
// no name lines, through one buffer that goes to w whenever it passes
// flushBytes.
func writeLines(w io.Writer, walk func(yield func(*tle.TLE) error) error) error {
	buf := make([]byte, 0, flushBytes)
	err := walk(func(t *tle.TLE) error {
		var err error
		if buf, err = t.AppendLines(buf); err != nil || len(buf) < flushBytes {
			return err
		}
		_, err = w.Write(buf)
		buf = buf[:0]
		return err
	})
	if err != nil || len(buf) == 0 {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// eachOf walks sets in order.
func eachOf(sets []*tle.TLE) func(yield func(*tle.TLE) error) error {
	return func(yield func(*tle.TLE) error) error {
		for _, t := range sets {
			if err := yield(t); err != nil {
				return err
			}
		}
		return nil
	}
}

// handleGroup serves the CelesTrak-style current catalog.
func (s *Server) handleGroup(w http.ResponseWriter, r *http.Request) {
	group := r.URL.Query().Get("GROUP")
	if group == "" {
		http.Error(w, "missing GROUP", http.StatusBadRequest)
		return
	}
	format := r.URL.Query().Get("FORMAT")
	if format != "" && format != "tle" && format != "3le" {
		http.Error(w, fmt.Sprintf("unsupported FORMAT %q", format), http.StatusBadRequest)
		return
	}
	version, mod, ok := s.archive.GroupVersion(group)
	if !ok {
		http.Error(w, fmt.Sprintf("unknown group %q", group), http.StatusNotFound)
		return
	}
	etag, lastMod := s.validators(group, version, mod)
	w.Header().Set("ETag", etag)
	w.Header().Set("Last-Modified", lastMod.UTC().Format(http.TimeFormat))
	if notModified(r, etag, lastMod) {
		metricNotModified.Inc()
		w.WriteHeader(http.StatusNotModified)
		return
	}
	tr := obs.TracerFrom(r.Context())
	read := tr.Start("catalog_read")
	sets := s.archive.GroupLatest(group, s.Now())
	read.End()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	defer tr.Start("gzip").End()
	out, finish := compressed(w, r)
	var err error
	if format == "tle" {
		err = writeLines(out, eachOf(sets)) // 2LE: no name lines
	} else {
		err = tle.Write(out, sets)
	}
	if err != nil {
		// Too late for a status change; the client will see a short read.
		return
	}
	if err := finish(); err != nil {
		return
	}
}

// handleHistory serves the Space-Track-style windowed history as 2LE text.
// The window is encoded as the archive walks it, through writeLines' one
// buffer, so a bulk window never materializes server-side.
func (s *Server) handleHistory(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	if format := q.Get("format"); format != "" && format != "tle" {
		http.Error(w, fmt.Sprintf("unsupported format %q", format), http.StatusBadRequest)
		return
	}
	catalog, err := strconv.Atoi(q.Get("catalog"))
	if err != nil {
		http.Error(w, "bad catalog", http.StatusBadRequest)
		return
	}
	from, err := parseTimeParam(q.Get("from"), time.Time{})
	if err != nil {
		http.Error(w, "bad from: "+err.Error(), http.StatusBadRequest)
		return
	}
	to, err := parseTimeParam(q.Get("to"), s.Now())
	if err != nil {
		http.Error(w, "bad to: "+err.Error(), http.StatusBadRequest)
		return
	}
	if to.Before(from) {
		http.Error(w, "to precedes from", http.StatusBadRequest)
		return
	}
	walk := func(yield func(*tle.TLE) error) error {
		return s.archive.HistoryEach(catalog, from, to, yield)
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	defer obs.TracerFrom(r.Context()).Start("catalog_read").End()
	out, finish := compressed(w, r)
	if err := writeLines(out, walk); err != nil {
		return
	}
	if err := finish(); err != nil {
		return
	}
}

// maxIngestBody bounds a POST /ingest body, as POST /v1/dst's is bounded:
// 1 MiB holds about 6,800 element sets in 3LE text.
const maxIngestBody = 1 << 20

// handleIngest accepts a POST of element sets in classic TLE text and
// merges them into the archive at the current service time. The body must
// parse completely: a batch with unreadable records is rejected whole, so a
// partial ingest can never masquerade as a successful one. A body over
// maxIngestBody is refused whole with 413.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "ingest requires POST", http.StatusMethodNotAllowed)
		return
	}
	group := r.URL.Query().Get("group")
	if group == "" {
		http.Error(w, "missing group", http.StatusBadRequest)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxIngestBody))
	if err != nil {
		code := http.StatusBadRequest
		if errors.As(err, new(*http.MaxBytesError)) {
			code = http.StatusRequestEntityTooLarge
		}
		http.Error(w, "reading ingest body: "+err.Error(), code)
		return
	}
	sets, err := tle.ReadAll(bytes.NewReader(body))
	if err != nil {
		http.Error(w, "unparseable element set: "+err.Error(), http.StatusBadRequest)
		return
	}
	// The parser accepts some sets the server cannot serve back: the
	// encoder rejects an ndot of 1.0 or more, say, and a name beginning
	// "1 " reads back as an element line. Once applied, every response
	// holding one would be cut short or fail to parse, so encode each set
	// before applying any.
	var buf []byte
	for _, t := range sets {
		var err error
		if buf, err = t.AppendLines(buf[:0]); err == nil && strings.HasPrefix(t.Name, "1 ") {
			err = fmt.Errorf("name %q reads as an element line", t.Name)
		}
		if err != nil {
			http.Error(w, fmt.Sprintf("unservable element set %d: %v", t.CatalogNumber, err), http.StatusBadRequest)
			return
		}
	}
	tr := obs.TracerFrom(r.Context())
	read := tr.Start("catalog_read")
	applied := s.archive.Ingest(group, sets, s.Now())
	read.End()
	if s.OnIngest != nil {
		feed := tr.Start("feed_append")
		// admit echoed the request's trace ID (if any) on the response.
		s.OnIngest(group, sets, applied, obs.ParseTraceID(w.Header().Get(obs.TraceHeader)))
		feed.End()
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"received\":%d,\"applied\":%d}\n", len(sets), applied)
}

func parseTimeParam(v string, def time.Time) (time.Time, error) {
	if strings.TrimSpace(v) == "" {
		return def, nil
	}
	return time.Parse(time.RFC3339, v)
}
