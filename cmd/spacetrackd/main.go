// Command spacetrackd serves a simulated CelesTrak/Space-Track tracking API
// over HTTP, backed by a constellation simulation run at startup.
//
// Endpoints:
//
//	GET  /NORAD/elements/gp.php?GROUP=starlink&FORMAT=3le   current catalog
//	GET  /history?catalog=N&from=RFC3339&to=RFC3339         per-object history
//	POST /ingest?group=starlink                             live element-set ingest
//	GET  /v1/risk                                           materialized decay-risk view
//	GET  /v1/risk/stream                                    delta events as SSE
//	POST /v1/dst?start=RFC3339                              live Dst-hour ingest
//	GET  /healthz
//
// Every accepted /ingest batch also folds into the incremental decay-risk
// engine in O(delta): /v1/risk serves its materialized view (ETag'd on the
// engine version), and /v1/risk/stream pushes track/storm/deviation delta
// events as server-sent events with cursor resume.
//
// Usage:
//
//	spacetrackd [-addr :8044] [-fleet small|paper|may2024] [-seed S] [-faults SCHED]
//	            [-rate R] [-burst B] [-capacity C] [-max-inflight M]
//	            [-slo SPEC] [-flight-ring N] [-flight-dump FILE] [-burst-threshold N]
//	            [-pprof] [-metrics-json FILE]
//
// The archive is served through a spacetrack.Catalog, so /ingest merges
// live element sets over it, each batch visible to readers whole. -rate
// throttles each client (X-Client-Id header or peer host) with 429s;
// -capacity and -max-inflight shed aggregate overload with 503s. Both
// rejections carry a Retry-After computed from the actual limiter state.
//
// -faults injects deterministic network faults (see internal/faultline) into
// every endpoint, e.g. -faults '429:3/7,503:1/5,truncate:1/6' — the harness
// for exercising client fault tolerance against a degraded service.
//
// Introspection: /metrics serves the process metrics in Prometheus text
// format (SLO burn-rate gauges refresh at scrape time), /healthz answers
// liveness probes with the catalog epoch per group, the incremental
// watermark frontier and build info, and /debug/flightrecorder dumps the
// flight recorder's ring — recent request outcomes, admission rejections
// with their Cosmic-Trace IDs, ingest batches, feed deltas and SSE resyncs.
// All of them bypass the fault injector, so a deliberately degraded service
// still reports honestly. -pprof additionally exposes the runtime profiles
// under /debug/pprof/.
//
// Every request is traced: an arriving Cosmic-Trace header is honoured and
// echoed, header-less requests get an ID minted from a seeded stream.
// -slo sets the error-budget objectives ("endpoint:availability%:p99ms[:window]",
// comma-separated; "default" uses the built-ins, "" disables). -flight-dump
// FILE auto-writes the flight-recorder dump when -burst-threshold rejects
// land within ten seconds, and again on shutdown. On graceful shutdown the
// daemon logs its final counters and SLO verdicts and, with -metrics-json
// FILE, flushes the full metrics snapshot to FILE.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"cosmicdance/internal/constellation"
	"cosmicdance/internal/faultline"
	"cosmicdance/internal/incremental"
	"cosmicdance/internal/obs"
	"cosmicdance/internal/spacetrack"
	"cosmicdance/internal/spaceweather"
	"cosmicdance/internal/tle"
	"cosmicdance/internal/wdc"
)

// logger is the daemon's structured stderr logger (timestamp-free, so
// supervised log output is reproducible run to run).
var logger = obs.NewLogger(os.Stderr, slog.LevelInfo)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], nil); err != nil {
		logger.Error("spacetrackd failed", "err", err)
		os.Exit(1)
	}
}

// run builds and serves the simulated services until ctx is cancelled, then
// shuts down gracefully. If ready is non-nil it receives the bound listen
// address once the server is accepting connections (tests bind :0).
func run(ctx context.Context, args []string, ready chan<- string) error {
	fs := flag.NewFlagSet("spacetrackd", flag.ContinueOnError)
	addr := fs.String("addr", ":8044", "listen address")
	fleet := fs.String("fleet", "small", "fleet preset: small, paper or may2024")
	seed := fs.Int64("seed", 42, "simulation seed")
	rate := fs.Float64("rate", 20, "per-client rate limit in requests/second (0 disables)")
	burst := fs.Float64("burst", 0, "per-client burst size (0 means 2x rate)")
	capacity := fs.Float64("capacity", 0, "global capacity in requests/second, shed with 503 (0 disables)")
	maxInflight := fs.Int64("max-inflight", 0, "max concurrently served requests, excess gets 503 (0 disables)")
	faults := fs.String("faults", "", "fault schedule, e.g. '429:3/7,truncate:1/6' (see internal/faultline)")
	sloSpec := fs.String("slo", "default", "SLO objectives 'endpoint:availability%:p99ms[:window],...'; 'default' uses built-ins, '' disables")
	flightRing := fs.Int("flight-ring", 1024, "flight recorder ring size in events")
	flightDump := fs.String("flight-dump", "", "write the flight-recorder dump to FILE on overload bursts and shutdown")
	burstThreshold := fs.Int("burst-threshold", 10, "rejects within 10s that trigger a flight-recorder auto-dump (0 disables)")
	pprofFlag := fs.Bool("pprof", false, "expose runtime profiles under /debug/pprof/")
	metricsJSON := fs.String("metrics-json", "", "flush the final metrics snapshot (JSON) to FILE on shutdown")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sched, err := faultline.ParseSchedule(*faults)
	if err != nil {
		return err
	}
	sloObjectives := obs.DefaultObjectives()
	if *sloSpec != "" && *sloSpec != "default" {
		if sloObjectives, err = obs.ParseObjectives(*sloSpec); err != nil {
			return err
		}
	}

	var (
		cfg constellation.Config
		wx  spaceweather.Config
	)
	switch *fleet {
	case "paper":
		cfg = constellation.PaperFleet(*seed)
		wx = spaceweather.Paper2020to2024()
	case "may2024":
		cfg = constellation.May2024Fleet(*seed)
		wx = spaceweather.May2024()
	case "small":
		start := time.Date(2023, 1, 1, 0, 0, 0, 0, time.UTC)
		cfg = constellation.ResearchFleet(*seed, start, start.AddDate(1, 0, 0), 10)
		wx = spaceweather.Paper2020to2024()
	default:
		return fmt.Errorf("unknown fleet %q", *fleet)
	}

	logger.Info("simulating fleet", "stage", "daemon", "fleet", *fleet)
	weather, err := spaceweather.Generate(wx)
	if err != nil {
		return err
	}
	res, err := constellation.Run(ctx, cfg, weather)
	if err != nil {
		return err
	}
	// The catalog layers live ingest over the immutable simulation archive.
	end := res.Start.Add(time.Duration(res.Hours) * time.Hour)
	catalog := spacetrack.NewCatalog(spacetrack.NewResultArchive("starlink", res), end)
	srv := spacetrack.NewServer(catalog, end)
	srv.RatePerSec = *rate
	srv.Burst = *rate * 2
	if *burst > 0 {
		srv.Burst = *burst
	}
	srv.CapacityPerSec = *capacity
	srv.CapacityBurst = *capacity * 2
	srv.MaxInFlight = *maxInflight
	// The daemon serves in real time: anchor the service clock at the
	// archive frontier but let it advance, so the token bucket refills
	// between requests (a pinned clock would 429 forever past the burst).
	boot := time.Now()
	srv.Now = func() time.Time { return end.Add(time.Since(boot)) }

	// The serving-plane black box and error budgets, all on the boot-anchored
	// service clock: trace IDs for header-less requests come from a stream
	// seeded with -seed, the flight recorder rings the last -flight-ring
	// events, and the SLO tracker's burn-rate gauges refresh on every
	// /metrics scrape.
	srv.Trace = obs.NewIDStream(uint64(*seed), 0)
	flight := obs.NewFlightRecorder(*flightRing, srv.Now)
	srv.Flight = flight
	var slo *obs.SLOTracker
	if *sloSpec != "" {
		slo = obs.NewSLOTracker(obs.Default(), sloObjectives, srv.Now)
		srv.SLO = slo
	}
	dumpFlight := func(reason string) {
		if *flightDump == "" {
			return
		}
		f, cerr := os.Create(*flightDump)
		if cerr != nil {
			logger.Error("flight dump failed", "stage", "daemon", "err", cerr)
			return
		}
		werr := flight.WriteJSON(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			logger.Error("flight dump failed", "stage", "daemon", "err", werr)
			return
		}
		logger.Info("flight recorder dumped", "stage", "daemon",
			"reason", reason, "file", *flightDump, "events", flight.Len())
	}
	if *burstThreshold > 0 {
		flight.SetBurstHook(*burstThreshold, 10*time.Second, func() { dumpFlight("burst") })
	}

	// The live decay-risk feed: the incremental engine is seeded with the
	// simulation archive and weather, then every accepted /ingest batch folds
	// in through the server hook in O(delta). /v1/risk serves the
	// materialized view and /v1/risk/stream pushes delta events as SSE.
	feed := incremental.NewFeed(incremental.New(incremental.DefaultConfig()), 0)
	feed.IngestSamples(res.Samples)
	if _, err := feed.WeatherIndex(weather); err != nil {
		return err
	}
	feed.SetFlight(flight)
	srv.OnIngest = func(group string, sets []*tle.TLE, applied int, trace obs.TraceID) {
		feed.IngestTLEsTraced(sets, trace)
		feed.SetWatermarkLag(srv.Now())
	}
	feed.SetWatermarkLag(srv.Now())

	// /healthz carries the facts an operator wants first: which fleet, which
	// build, and how fresh the incremental plane is (feed epoch + weather
	// watermark). The catalog epoch per group comes from the server itself.
	srv.HealthInfo = func() map[string]string {
		v := feed.Risk()
		info := map[string]string{
			"fleet":        *fleet,
			"go":           runtime.Version(),
			"feed_version": strconv.FormatUint(v.Version, 10),
			"feed_seq":     strconv.FormatUint(v.Seq, 10),
		}
		if v.WeatherWatermark != 0 {
			info["weather_watermark"] = time.Unix(v.WeatherWatermark, 0).UTC().Format(time.RFC3339)
		}
		return info
	}

	// The WDC-style Dst endpoint rides alongside the tracking API, so one
	// process simulates both of CosmicDance's upstream services.
	mux := http.NewServeMux()
	mux.Handle("/dst", wdc.NewServer(weather).Handler())
	mux.Handle("/v1/", feed.Handler())
	mux.Handle("/", srv.Handler())

	var handler http.Handler = mux
	var injector *faultline.Injector
	if len(sched.Rules) > 0 {
		injector = faultline.New(mux, sched, *seed)
		handler = injector
		logger.Info("injecting faults", "stage", "daemon",
			"schedule", sched.String(), "survivable_retries", sched.MaxConsecutiveFaults())
	}

	// Introspection routes sit outside the fault injector: a deliberately
	// degraded data plane must not corrupt its own diagnostics, and /healthz
	// still routes through the tracking server so its request counter ticks.
	outer := http.NewServeMux()
	metrics := obs.Handler(obs.Default())
	outer.Handle("/metrics", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		slo.Publish() // refresh the burn-rate gauges at scrape time (nil-safe)
		metrics.ServeHTTP(w, r)
	}))
	outer.Handle("/debug/flightrecorder", flight.Handler())
	outer.Handle("/healthz", mux)
	if *pprofFlag {
		outer.HandleFunc("/debug/pprof/", pprof.Index)
		outer.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		outer.HandleFunc("/debug/pprof/profile", pprof.Profile)
		outer.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		outer.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	outer.Handle("/", handler)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	logger.Info("serving", "stage", "daemon",
		"satellites", len(res.Sats), "samples", len(res.Samples), "addr", ln.Addr().String())
	httpSrv := &http.Server{
		Handler:           outer,
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	if ready != nil {
		ready <- ln.Addr().String()
	}

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	logger.Info("shutting down", "stage", "daemon")
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		return err
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	// In-flight requests have drained: the counters are final, so log them
	// and flush the snapshot.
	var faultsInjected int64
	if injector != nil {
		for _, n := range injector.Stats() {
			faultsInjected += n
		}
		logger.Info("fault summary", "stage", "daemon", "faults", injector.Summary())
	}
	logger.Info("final counters", "stage", "daemon",
		"requests_served", srv.RequestsServed(),
		"rate_limited", srv.RateLimited(),
		"overloaded", srv.Overloaded(),
		"ingested_sets", catalog.DeltaSets(),
		"feed_deltas", feed.Engine().Seq(),
		"feed_version", feed.Engine().Version(),
		"faults_injected", faultsInjected)
	for _, res := range slo.Report() {
		logger.Info("slo verdict", "stage", "daemon",
			"endpoint", res.Endpoint, "verdict", res.Verdict,
			"ops", res.Ops, "errors", res.Errors,
			"burn_rate", res.BurnRate, "p99_ms", res.P99Ms)
	}
	dumpFlight("shutdown")
	if *metricsJSON != "" {
		f, err := os.Create(*metricsJSON)
		if err != nil {
			return err
		}
		if err := obs.WriteRunReport(f, obs.Default(), nil); err != nil {
			_ = f.Close()
			return err
		}
		return f.Close()
	}
	return nil
}
