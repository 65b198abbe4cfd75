package loadsim

import (
	"bufio"
	"bytes"
	"container/heap"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"cosmicdance/internal/constellation"
	"cosmicdance/internal/dst"
	"cosmicdance/internal/faultline"
	"cosmicdance/internal/incremental"
	"cosmicdance/internal/obs"
	"cosmicdance/internal/spacetrack"
	"cosmicdance/internal/tle"
)

// Config describes one load run. The zero value is not runnable; Duration
// and at least one client count must be set.
type Config struct {
	// Seed drives every random choice in the run: think times, window
	// picks, client retry jitter, and fault corruption bytes.
	Seed int64
	// Duration is the virtual length of the run.
	Duration time.Duration
	// Bulk, Poll and Spike size the client mix: bulk-history crawlers,
	// incremental conditional pollers, and storm-spike clients that wake in
	// a burst window at one third of the run.
	Bulk, Poll, Spike int
	// Ingesters inject live element sets through POST /ingest while the
	// read load runs.
	Ingesters int
	// Feed sizes the incremental-feed subscribers: clients that revalidate
	// the materialized decay-risk view (GET /v1/risk with If-None-Match) and
	// drain the delta stream (GET /v1/risk/stream) from a saved cursor.
	Feed int
	// FaultSchedule is a faultline schedule DSL string ("429:3/7,reset:1/9")
	// injected in front of the server; empty disables.
	FaultSchedule string
	// Server admission knobs, mirroring the spacetrack.Server fields. Zero
	// values disable the respective layer.
	RatePerSec, Burst             float64
	CapacityPerSec, CapacityBurst float64
	MaxInFlight                   int64
	// ArchiveDays sizes the simulated archive backing the server
	// (default 30).
	ArchiveDays int
}

// group is the single constellation group the backing archive serves.
const group = "starlink"

// event is one scheduled actor turn.
type event struct {
	at  time.Time
	seq int64
	a   *actor
}

// eventHeap orders events by (time, insertion sequence) so simultaneous
// turns fire in a reproducible order.
type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// actor is one simulated client with its workload state.
type actor struct {
	kind   string
	id     string
	client *spacetrack.Client
	httpc  *http.Client
	rng    *rng
	trace  *obs.IDStream // per-actor trace-ID stream (seed, stream) — see mk

	catalogs    []int     // bulk: catalog numbers learned from the group fetch
	etag        string    // poll: saved validators
	lastMod     string    //
	template    *tle.TLE  // ingest: element set to clone
	nextCatalog int       // ingest: next synthetic catalog number
	until       time.Time // spike: end of the burst window
	cursor      uint64    // feed: last delta sequence seen on the stream

	ops, failures, notModified  int64
	attempted, applied, dropped int64
	streamEvents                int64
	latencies                   []time.Duration
}

// sim is the run state shared by the event loop and the actors.
type sim struct {
	cfg       Config
	clock     *Clock
	transport *Transport
	srv       *spacetrack.Server
	injector  *faultline.Injector
	flight    *obs.FlightRecorder
	slo       *obs.SLOTracker
	start     time.Time // archive window start
	end       time.Time // archive frontier == virtual run start
	stop      time.Time // virtual run end
	actors    []*actor
}

// Run executes one load run and returns its report. The error path covers
// configuration problems only; request-level failures are data, not errors.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("loadsim: duration must be positive")
	}
	if cfg.Bulk+cfg.Poll+cfg.Spike+cfg.Ingesters+cfg.Feed == 0 {
		return nil, fmt.Errorf("loadsim: empty client mix")
	}
	sched, err := faultline.ParseSchedule(cfg.FaultSchedule)
	if err != nil {
		return nil, err
	}
	days := cfg.ArchiveDays
	if days <= 0 {
		days = 30
	}

	// The backing archive: the same deterministic constellation run the
	// daemon serves, wrapped in a Catalog so ingest works.
	start := time.Date(2023, 1, 1, 0, 0, 0, 0, time.UTC)
	ccfg := constellation.DefaultConfig()
	ccfg.Start = start
	ccfg.Hours = days * 24
	ccfg.InitialFleet = 20
	ccfg.GrossErrorProb = 0
	ccfg.DecommissionPerYear = 0
	vals := make([]float64, ccfg.Hours)
	for i := range vals {
		vals[i] = -10
	}
	res, err := constellation.Run(ctx, ccfg, dst.FromValues(start, vals))
	if err != nil {
		return nil, err
	}
	end := start.Add(time.Duration(ccfg.Hours) * time.Hour)
	catalog := spacetrack.NewCatalog(spacetrack.NewResultArchive(group, res), end)

	clock := NewClock(end)
	srv := spacetrack.NewServer(catalog, end)
	srv.Now = clock.Now
	srv.RatePerSec = cfg.RatePerSec
	srv.Burst = cfg.Burst
	srv.CapacityPerSec = cfg.CapacityPerSec
	srv.CapacityBurst = cfg.CapacityBurst
	srv.MaxInFlight = cfg.MaxInFlight

	// The observability plane rides the virtual clock: every trace ID comes
	// from a seeded stream and every flight/SLO timestamp from the simulated
	// timeline, so the report — traces included — stays byte-identical across
	// same-seed runs. Stream 0 is the server's (for requests arriving without
	// a Cosmic-Trace header); actors use streams 1..n, assigned below.
	flight := obs.NewFlightRecorder(4096, clock.Now)
	slo := obs.NewSLOTracker(nil, obs.DefaultObjectives(), clock.Now)
	srv.Trace = obs.NewIDStream(uint64(cfg.Seed), 0)
	srv.Flight = flight
	srv.SLO = slo

	// The live decay-risk feed rides alongside the tracking endpoints,
	// exactly as in spacetrackd: seeded from the archive, advanced in
	// O(delta) by every accepted ingest batch.
	feed := incremental.NewFeed(incremental.New(incremental.DefaultConfig()), 0)
	feed.IngestSamples(res.Samples)
	if _, err := feed.WeatherIndex(dst.FromValues(start, vals)); err != nil {
		return nil, err
	}
	feed.SetFlight(flight)
	srv.OnIngest = func(group string, sets []*tle.TLE, applied int, trace obs.TraceID) {
		feed.IngestTLEsTraced(sets, trace)
		feed.SetWatermarkLag(clock.Now())
	}

	mux := http.NewServeMux()
	mux.Handle("/v1/", feed.Handler())
	mux.Handle("/", srv.Handler())

	var handler http.Handler = mux
	var injector *faultline.Injector
	if len(sched.Rules) > 0 {
		injector = faultline.New(handler, sched, cfg.Seed)
		handler = injector
	}
	transport := &Transport{Handler: handler, Clock: clock, Flight: flight}

	s := &sim{
		cfg:       cfg,
		clock:     clock,
		transport: transport,
		srv:       srv,
		injector:  injector,
		flight:    flight,
		slo:       slo,
		start:     start,
		end:       end,
		stop:      end.Add(cfg.Duration),
	}
	template := catalog.GroupLatest(group, end)[0]
	httpc := &http.Client{Transport: transport}
	mk := func(kind string, i, stream int) *actor {
		a := &actor{
			kind:  kind,
			id:    fmt.Sprintf("%s-%d", kind, i),
			rng:   newRNG(cfg.Seed, uint64(stream)),
			trace: obs.NewIDStream(uint64(cfg.Seed), uint64(stream)),
			httpc: httpc,
		}
		client, cerr := spacetrack.NewClient("http://spacetrackd.sim", httpc)
		if cerr != nil {
			panic(cerr) // static URL, cannot fail
		}
		client.ClientID = a.id
		client.Seed = cfg.Seed + int64(stream)
		client.Sleep = clock.Sleep
		client.Trace = a.trace
		a.client = client
		return a
	}
	stream := 1
	for i := 0; i < cfg.Bulk; i++ {
		s.actors = append(s.actors, mk("bulk", i, stream))
		stream++
	}
	for i := 0; i < cfg.Poll; i++ {
		s.actors = append(s.actors, mk("poll", i, stream))
		stream++
	}
	for i := 0; i < cfg.Spike; i++ {
		a := mk("spike", i, stream)
		a.until = end.Add(cfg.Duration/3 + cfg.Duration/6)
		s.actors = append(s.actors, a)
		stream++
	}
	for i := 0; i < cfg.Ingesters; i++ {
		a := mk("ingest", i, stream)
		a.template = template
		a.nextCatalog = 90000 + i*1000
		s.actors = append(s.actors, a)
		stream++
	}
	for i := 0; i < cfg.Feed; i++ {
		s.actors = append(s.actors, mk("feed", i, stream))
		stream++
	}

	s.loop(ctx)
	return s.report(), nil
}

// loop drains the event heap: each turn runs one actor operation to
// completion on the virtual clock and schedules the actor's next turn.
func (s *sim) loop(ctx context.Context) {
	var h eventHeap
	var seq int64
	schedule := func(a *actor, at time.Time) {
		if at.After(s.stop) {
			return
		}
		seq++
		heap.Push(&h, event{at: at, seq: seq, a: a})
	}
	spikeStart := s.end.Add(s.cfg.Duration / 3)
	for _, a := range s.actors {
		switch a.kind {
		case "spike":
			schedule(a, spikeStart.Add(a.rng.between(0, 2*time.Second)))
		default:
			schedule(a, s.end.Add(a.rng.between(0, 5*time.Second)))
		}
	}
	for h.Len() > 0 {
		ev := heap.Pop(&h).(event)
		s.clock.AdvanceTo(ev.at)
		a := ev.a
		begin := s.clock.Now()
		ok := a.step(ctx, s)
		a.ops++
		if !ok {
			a.failures++
		}
		a.latencies = append(a.latencies, s.clock.Now().Sub(begin))
		next := s.clock.Now().Add(a.think())
		if a.kind == "spike" && next.After(a.until) {
			continue // the burst window closed; the storm client goes quiet
		}
		schedule(a, next)
	}
}

// think returns the actor's pause before its next operation.
func (a *actor) think() time.Duration {
	switch a.kind {
	case "bulk":
		return a.rng.between(30*time.Second, 120*time.Second)
	case "poll":
		return a.rng.between(10*time.Second, 30*time.Second)
	case "spike":
		return a.rng.between(200*time.Millisecond, time.Second)
	case "feed":
		return a.rng.between(5*time.Second, 15*time.Second)
	default: // ingest
		return a.rng.between(15*time.Second, 45*time.Second)
	}
}

// step performs one workload operation. The returned flag reports success;
// failures have already been tallied into the actor's detail counters.
func (a *actor) step(ctx context.Context, s *sim) bool {
	switch a.kind {
	case "bulk":
		return a.stepBulk(ctx, s)
	case "poll":
		return a.stepPoll(ctx)
	case "spike":
		// Storm clients hammer the cheap endpoint unconditionally until
		// their window closes; past it the scheduler stops re-arming them,
		// so the last queued turn may fire just after — still counted.
		_, err := a.client.FetchGroup(ctx, group)
		return err == nil
	case "feed":
		return a.stepFeed(ctx)
	default:
		return a.stepIngest(ctx, s)
	}
}

// stepFeed alternates the incremental-feed subscriber's two operations:
// revalidate the materialized decay-risk view with the saved ETag, then
// drain the delta stream from the saved cursor (nowait — the virtual
// transport runs each request to completion, so the subscriber polls the
// stream instead of holding it open).
func (a *actor) stepFeed(ctx context.Context) bool {
	if a.ops%2 == 0 {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://spacetrackd.sim/v1/risk", nil)
		if err != nil {
			return false
		}
		req.Header.Set("X-Client-Id", a.id)
		req.Header.Set(obs.TraceHeader, a.trace.Next().String())
		if a.etag != "" {
			req.Header.Set("If-None-Match", a.etag)
		}
		resp, err := a.httpc.Do(req)
		if err != nil {
			return false
		}
		_, rerr := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusNotModified:
			a.notModified++
			return true
		case resp.StatusCode == http.StatusOK && rerr == nil:
			a.etag = resp.Header.Get("ETag")
			return true
		default:
			return false
		}
	}
	url := fmt.Sprintf("http://spacetrackd.sim/v1/risk/stream?nowait=1&cursor=%d", a.cursor)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return false
	}
	req.Header.Set("X-Client-Id", a.id)
	req.Header.Set(obs.TraceHeader, a.trace.Next().String())
	resp, err := a.httpc.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining a failed response
		return false
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		id, ok := strings.CutPrefix(sc.Text(), "id: ")
		if !ok {
			continue
		}
		seq, perr := strconv.ParseUint(id, 10, 64)
		if perr != nil {
			return false
		}
		a.cursor = seq
		a.streamEvents++
	}
	return sc.Err() == nil
}

// stepBulk crawls: the first turn learns the catalog from the group
// endpoint, later turns pull multi-day history windows.
func (a *actor) stepBulk(ctx context.Context, s *sim) bool {
	if len(a.catalogs) == 0 {
		sets, err := a.client.FetchGroup(ctx, group)
		if err != nil || len(sets) == 0 {
			return false
		}
		a.catalogs = spacetrack.CatalogNumbers(sets)
		return true
	}
	span := a.rng.between(5*24*time.Hour, 15*24*time.Hour)
	if max := s.end.Sub(s.start); span > max {
		span = max
	}
	slack := s.end.Sub(s.start) - span
	from := s.start.Add(a.rng.between(0, slack))
	catalog := a.catalogs[a.rng.intn(len(a.catalogs))]
	_, err := a.client.FetchHistory(ctx, catalog, from, from.Add(span))
	return err == nil
}

// stepPoll revalidates the group with the saved validators, counting the
// 304s that confirm the cache.
func (a *actor) stepPoll(ctx context.Context) bool {
	page, err := a.client.FetchGroupConditional(ctx, group, a.etag, a.lastMod)
	if err != nil {
		return false
	}
	if page.NotModified {
		a.notModified++
		return true
	}
	a.etag, a.lastMod = page.ETag, page.LastModified
	return true
}

// ingestReply is the /ingest response body.
type ingestReply struct {
	Received int `json:"received"`
	Applied  int `json:"applied"`
}

// stepIngest posts a small batch of fresh element sets, retrying through
// 429/503 backpressure with the server's Retry-After. A batch counts as
// dropped only when every attempt failed — the invariant under admission
// control is that this never happens.
func (a *actor) stepIngest(ctx context.Context, s *sim) bool {
	const batch = 3
	sets := make([]*tle.TLE, batch)
	now := s.clock.Now()
	for i := range sets {
		c := *a.template
		c.CatalogNumber = a.nextCatalog
		c.Epoch = now.Add(-time.Duration(i+1) * time.Minute).UTC()
		c.Name = fmt.Sprintf("INGEST-%d", a.nextCatalog)
		sets[i] = &c
		a.nextCatalog++
	}
	var body bytes.Buffer
	if err := tle.Write(&body, sets); err != nil {
		a.dropped += batch
		return false
	}
	a.attempted += batch

	// One trace ID per logical batch, reused across retries: the flight
	// recorder then shows the same trace rejected and later applied, which is
	// exactly the story a storm post-mortem wants to read.
	trace := a.trace.Next().String()
	for attempt := 0; attempt <= 6; attempt++ {
		if attempt > 0 {
			s.clock.Advance(500 * time.Millisecond)
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			"http://spacetrackd.sim/ingest?group="+group, bytes.NewReader(body.Bytes()))
		if err != nil {
			break
		}
		req.Header.Set("X-Client-Id", a.id)
		req.Header.Set("Content-Type", "text/plain")
		req.Header.Set(obs.TraceHeader, trace)
		resp, err := a.httpc.Do(req)
		if err != nil {
			continue // reset fault: retry the batch, ingest dedupes replays
		}
		payload, rerr := io.ReadAll(resp.Body)
		if cerr := resp.Body.Close(); cerr != nil && rerr == nil {
			rerr = cerr
		}
		switch {
		case resp.StatusCode == http.StatusOK:
			var reply ingestReply
			if rerr != nil || json.Unmarshal(bytes.TrimSpace(payload), &reply) != nil {
				// The server committed the batch (200) but a body fault ate
				// the reply; the replay-safe store means attempted==applied.
				a.applied += batch
				return true
			}
			a.applied += int64(reply.Applied)
			return true
		case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
			if wait := retryAfterHeader(resp); wait > 0 {
				s.clock.Advance(wait)
			}
			continue
		default:
			// 4xx: the batch itself is unacceptable, retrying cannot help.
			a.dropped += batch
			return false
		}
	}
	a.dropped += batch
	return false
}

// retryAfterHeader parses a Retry-After value in whole seconds.
func retryAfterHeader(resp *http.Response) time.Duration {
	var secs int
	if _, err := fmt.Sscanf(resp.Header.Get("Retry-After"), "%d", &secs); err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}
