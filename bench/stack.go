package main

import (
	"context"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cosmicdance/internal/constellation"
	"cosmicdance/internal/dst"
	"cosmicdance/internal/incremental"
	"cosmicdance/internal/obs"
	"cosmicdance/internal/spacetrack"
	"cosmicdance/internal/spaceweather"
	"cosmicdance/internal/tle"
)

// stack is spacetrackd's serving stack built in process, wired as the
// daemon the benchmark launches wires it — NewResultArchive, NewCatalog,
// NewServer with Trace, Flight and the default SLO objectives, and NewFeed
// fed through OnIngest — with three timing wrappers: around the archive,
// around each endpoint's handler, and around the OnIngest hook. Each client
// lane gets its own Server and listener over the shared catalog, feed,
// flight recorder and SLO tracker, so every server-side span knows the lane
// whose request caused it; with rate limiting off, as in the daemon under
// test, the Servers' separate admission state admits everything.
type stack struct {
	rec     *recorder
	seed    int64
	catalog *spacetrack.Catalog
	feed    *incremental.Feed
	flight  *obs.FlightRecorder
	slo     *obs.SLOTracker
	end     time.Time // archive frontier, the service clock's origin
	boot    time.Time

	hookEnd atomic.Int64 // recorder clock when OnIngest last returned

	wg      sync.WaitGroup
	servers []*http.Server
}

// newStack simulates the fleet and builds the stack, in a set-up root span
// on lane 0.
func newStack(ctx context.Context, rec *recorder, seed int64) (*stack, error) {
	root := rec.root(0, "bench.setup")
	defer rec.end(root, 0)
	call := func(name string, fn func() error) error {
		id := rec.begin(0, name)
		defer rec.end(id, 0)
		return fn()
	}
	s := &stack{rec: rec, seed: seed}
	var (
		weather *dst.Index
		res     *constellation.Result
	)
	if err := call("spaceweather.generate", func() (err error) {
		weather, err = spaceweather.Generate(spaceweather.May2024())
		return err
	}); err != nil {
		return nil, err
	}
	if err := call("constellation.run", func() (err error) {
		res, err = constellation.Run(ctx, fleetConfig(seed), weather)
		return err
	}); err != nil {
		return nil, err
	}
	rec.add("constellation.samples", float64(len(res.Samples)))
	s.end = res.Start.Add(time.Duration(res.Hours) * time.Hour)
	_ = call("spacetrack.archive.index", func() error {
		s.catalog = spacetrack.NewCatalog(spacetrack.NewResultArchive("starlink", res), s.end)
		return nil
	})
	s.boot = time.Now()
	s.flight = obs.NewFlightRecorder(1024, s.now)
	s.slo = obs.NewSLOTracker(obs.Default(), obs.DefaultObjectives(), s.now)
	err := call("incremental.feed.seed", func() error {
		s.feed = incremental.NewFeed(incremental.New(incremental.DefaultConfig()), 0)
		s.feed.IngestSamples(res.Samples)
		if _, err := s.feed.WeatherIndex(weather); err != nil {
			return err
		}
		s.feed.SetFlight(s.flight)
		return nil
	})
	return s, err
}

// now is the service clock: anchored at the archive frontier, advancing in
// real time, as in the daemon.
func (s *stack) now() time.Time { return s.end.Add(time.Since(s.boot)) }

// listen serves the stack for one lane on a loopback port and returns its
// base URL.
func (s *stack) listen(lane int) (string, error) {
	srv := spacetrack.NewServer(&tracedArchive{Catalog: s.catalog, rec: s.rec, lane: lane}, s.end)
	srv.Now = s.now
	srv.Trace = obs.NewIDStream(uint64(s.seed), uint64(lane))
	srv.Flight = s.flight
	srv.SLO = s.slo
	srv.OnIngest = func(group string, sets []*tle.TLE, applied int, trace obs.TraceID) {
		id := s.rec.begin(lane, "incremental.feed.ingest")
		s.feed.IngestTLEsTraced(sets, trace)
		s.feed.SetWatermarkLag(srv.Now())
		s.rec.end(id, 0)
		s.hookEnd.Store(s.rec.now())
	}

	tracks := srv.Handler()
	feed := s.feed.Handler()
	mux := http.NewServeMux()
	mux.Handle("/NORAD/elements/gp.php", s.timed(lane, "spacetrack.server.group", tracks))
	mux.Handle("/history", s.timed(lane, "spacetrack.server.history", tracks))
	mux.Handle("/ingest", s.timed(lane, "spacetrack.server.ingest", tracks))
	mux.Handle("/healthz", tracks)
	mux.Handle("/v1/risk", s.timed(lane, "incremental.feed.risk", feed))
	mux.Handle("/v1/dst", s.timed(lane, "incremental.feed.dst", feed))
	mux.Handle("/v1/risk/stream", feed)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	s.servers = append(s.servers, hs)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		_ = hs.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return "http://" + ln.Addr().String(), nil
}

// close stops every listener, dropping open streams, and waits for them.
func (s *stack) close() {
	for _, hs := range s.servers {
		_ = hs.Close()
	}
	s.wg.Wait()
}

// timed wraps one endpoint's handler in a span and counts the bytes the
// tracking server writes.
func (s *stack) timed(lane int, name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := s.rec.begin(lane, name)
		cw := &countingWriter{ResponseWriter: w}
		h.ServeHTTP(cw, r)
		s.rec.end(id, 0)
		if strings.HasPrefix(name, "spacetrack.server.") {
			s.rec.add("spacetrack.server.bytes", float64(cw.n))
		}
	})
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

// tracedArchive times the catalog calls a Server makes. It implements every
// interface the Server looks for (Archive, VersionedArchive,
// StreamingArchive, IngestArchive) by embedding the catalog.
type tracedArchive struct {
	*spacetrack.Catalog
	rec  *recorder
	lane int
}

func (a *tracedArchive) GroupLatest(group string, at time.Time) []*tle.TLE {
	id := a.rec.begin(a.lane, "spacetrack.catalog.group_latest")
	defer a.rec.end(id, 0)
	return a.Catalog.GroupLatest(group, at)
}

// HistoryEach leaves the time spent in yield — the server encoding and
// writing each set — out of the catalog's self time.
func (a *tracedArchive) HistoryEach(catalog int, from, to time.Time, yield func(*tle.TLE) error) error {
	if a.rec == nil {
		return a.Catalog.HistoryEach(catalog, from, to, yield)
	}
	id := a.rec.begin(a.lane, "spacetrack.catalog.history_each")
	var inYield time.Duration
	err := a.Catalog.HistoryEach(catalog, from, to, func(t *tle.TLE) error {
		start := time.Now() //cosmiclint:allow nondet times the yield callback for the benchmark only
		err := yield(t)
		inYield += time.Since(start) //cosmiclint:allow nondet times the yield callback for the benchmark only
		return err
	})
	a.rec.end(id, inYield)
	return err
}

func (a *tracedArchive) Ingest(group string, sets []*tle.TLE, at time.Time) int {
	id := a.rec.begin(a.lane, "spacetrack.catalog.ingest")
	defer a.rec.end(id, 0)
	return a.Catalog.Ingest(group, sets, at)
}
