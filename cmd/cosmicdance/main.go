// Command cosmicdance is the end-to-end CLI: it ingests solar-activity data
// (a WDC-format file or a built-in synthetic scenario) and satellite
// trajectory data (a TLE text file such as tlegen's output, a live simulated
// Space-Track service, or a built-in fleet simulation), runs the CosmicDance
// pipeline, and prints the storm catalog, the cleaning report, and the
// happens-closely-after analysis.
//
// Usage:
//
//	cosmicdance storms  [-dst FILE | -scenario paper]
//	cosmicdance analyze [-dst FILE | -scenario paper]
//	                    [-tles FILE | -server URL | -fleet paper|small]
//	                    [-ptile 95] [-window 30] [-top 10] [-parallel W]
//	cosmicdance fetch   -server URL [-cache DIR] [-from RFC3339] [-to RFC3339]
//	cosmicdance scale   [-sats N] [-days D] [-seed S] [-chunk N] [-parallel W]
//	                    [-cache DIR]
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strings"
	"time"

	"cosmicdance/internal/artifact"
	"cosmicdance/internal/constellation"
	"cosmicdance/internal/core"
	"cosmicdance/internal/dst"
	"cosmicdance/internal/obs"
	"cosmicdance/internal/report"
	"cosmicdance/internal/scale"
	"cosmicdance/internal/spacetrack"
	"cosmicdance/internal/spaceweather"
	"cosmicdance/internal/tle"
	"cosmicdance/internal/units"
	"cosmicdance/internal/wdc"
)

// logger is the process logger: structured, leveled, timestamp-free, and
// strictly on stderr so stdout carries only the analysis output.
var logger = obs.NewLogger(os.Stderr, slog.LevelInfo)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	// The process root context: every fan-out below threads from here, so
	// one cancellation point drains the whole pipeline.
	ctx := context.Background()
	var err error
	switch os.Args[1] {
	case "storms":
		err = cmdStorms(ctx, os.Args[2:])
	case "analyze":
		err = cmdAnalyze(ctx, os.Args[2:])
	case "fetch":
		err = cmdFetch(ctx, os.Args[2:])
	case "scale":
		err = cmdScale(ctx, os.Args[2:])
	case "help", "-h", "--help":
		usage()
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		logger.Error("cosmicdance failed", "cmd", os.Args[1], "err", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  cosmicdance storms  [-dst FILE | -scenario paper|fiftyyears|may2024]
  cosmicdance analyze [-dst FILE | -scenario ...] [-tles FILE | -server URL | -fleet paper|small] [-ptile P] [-window D] [-top N] [-parallel W] [-cache DIR | -no-cache] [-trace] [-metrics-json FILE]
  cosmicdance fetch   -server URL [-cache DIR] [-from T] [-to T]
  cosmicdance scale   [-sats N] [-days D] [-seed S] [-chunk N] [-parallel W] [-cache DIR]`)
}

// loadWeather reads the Dst index from a WDC-style HTTP service, a WDC file,
// or a synthetic scenario.
func loadWeather(ctx context.Context, dstFile, scenario string) (*dst.Index, error) {
	if strings.HasPrefix(dstFile, "http://") || strings.HasPrefix(dstFile, "https://") {
		client, err := wdc.NewClient(dstFile, nil)
		if err != nil {
			return nil, err
		}
		ctx, cancel := context.WithTimeout(ctx, 5*time.Minute)
		defer cancel()
		// Fetch the service's full archive: the server defaults both bounds
		// when very wide ones are requested.
		return client.Fetch(ctx, time.Date(1957, 1, 1, 0, 0, 0, 0, time.UTC), time.Date(2100, 1, 1, 0, 0, 0, 0, time.UTC))
	}
	if dstFile != "" {
		f, err := os.Open(dstFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		records, err := dst.ParseRecords(f)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %w", dstFile, err)
		}
		return dst.ToIndex(records)
	}
	cfg, err := scenarioConfig(scenario)
	if err != nil {
		return nil, err
	}
	return spaceweather.Generate(cfg)
}

// scenarioConfig resolves a -scenario name to its generation config.
func scenarioConfig(scenario string) (spaceweather.Config, error) {
	switch scenario {
	case "paper", "":
		return spaceweather.Paper2020to2024(), nil
	case "fiftyyears":
		return spaceweather.FiftyYears(), nil
	case "may2024":
		return spaceweather.May2024(), nil
	default:
		return spaceweather.Config{}, fmt.Errorf("unknown scenario %q", scenario)
	}
}

// fleetConfig resolves a -fleet name to its simulation config.
func fleetConfig(fleet string, seed int64, weather *dst.Index) (constellation.Config, error) {
	switch fleet {
	case "paper", "":
		return constellation.PaperFleet(seed), nil
	case "small":
		start := weather.Start()
		return constellation.ResearchFleet(seed, start, start.AddDate(1, 0, 0), 10), nil
	default:
		return constellation.Config{}, fmt.Errorf("unknown fleet %q", fleet)
	}
}

// openCache opens the artifact cache, or returns nil (cache disabled) when
// the user opted out or the directory is unusable.
func openCache(noCache bool, dir string) *artifact.Cache {
	if noCache {
		return nil
	}
	c, err := artifact.Open(dir)
	if err != nil {
		logger.Warn("artifact cache disabled", "stage", "cache", "err", err)
		return nil
	}
	return c
}

func cmdStorms(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("storms", flag.ExitOnError)
	dstFile := fs.String("dst", "", "WDC-format Dst file (default: synthetic scenario)")
	scenario := fs.String("scenario", "paper", "synthetic scenario when -dst is absent")
	if err := fs.Parse(args); err != nil {
		return err
	}
	weather, err := loadWeather(ctx, *dstFile, *scenario)
	if err != nil {
		return err
	}
	if err := report.Fig1(os.Stdout, weather); err != nil {
		return err
	}
	if err := report.Fig2(os.Stdout, weather); err != nil {
		return err
	}
	if err := report.Heading(os.Stdout, "Storm catalog"); err != nil {
		return err
	}
	rows := [][]string{}
	for _, s := range weather.Storms(units.StormThreshold) {
		rows = append(rows, []string{
			s.Start.Format("2006-01-02 15:04"),
			fmt.Sprintf("%d", s.Hours),
			fmt.Sprintf("%.0f", float64(s.Peak)),
			s.Category().String(),
		})
	}
	return report.Table(os.Stdout, []string{"onset", "hours", "peak nT", "category"}, rows)
}

// loadTrajectories fills the builder from a TLE file, a tracking server, or a
// built-in fleet simulation.
func loadTrajectories(ctx context.Context, b *core.Builder, weather *dst.Index, tleFile, server, fleet string, seed int64, parallelism int) error {
	switch {
	case tleFile != "":
		f, err := os.Open(tleFile)
		if err != nil {
			return err
		}
		defer f.Close()
		sets, err := tle.ReadAll(f)
		if err != nil {
			return fmt.Errorf("parsing %s: %w", tleFile, err)
		}
		logger.Info("loaded element sets", "stage", "ingest", "count", len(sets), "file", tleFile)
		b.AddTLEs(sets)
		return nil
	case server != "":
		return fetchInto(ctx, b, server, weather)
	default:
		cfg, err := fleetConfig(fleet, seed, weather)
		if err != nil {
			return err
		}
		cfg.Parallelism = parallelism
		res, err := constellation.Run(ctx, cfg, weather)
		if err != nil {
			return err
		}
		logger.Info("simulated fleet", "stage", "ingest", "satellites", len(res.Sats), "samples", len(res.Samples))
		b.AddSamples(res.Samples)
		return nil
	}
}

// fetchInto performs the paper's two-step ingest against a live service:
// current catalog once for the numbers, then per-object history.
func fetchInto(ctx context.Context, b *core.Builder, server string, weather *dst.Index) error {
	client, err := spacetrack.NewClient(server, nil)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(ctx, 10*time.Minute)
	defer cancel()
	current, err := client.FetchGroup(ctx, "starlink")
	if err != nil {
		return fmt.Errorf("fetching current catalog: %w", err)
	}
	nums := spacetrack.CatalogNumbers(current)
	logger.Info("fetched current catalog", "stage", "ingest", "satellites", len(nums))
	from, to := weather.Start(), weather.End()
	results, err := spacetrack.FetchHistories(ctx, client, nums, from, to, 8)
	if err != nil {
		return err
	}
	total := 0
	for _, r := range results {
		if r.Err != nil {
			return fmt.Errorf("history for %d: %w", r.Catalog, r.Err)
		}
		b.AddTLEs(r.Sets)
		total += len(r.Sets)
	}
	logger.Info("fetched history", "stage", "ingest", "sets", total)
	return nil
}

func cmdAnalyze(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	dstFile := fs.String("dst", "", "WDC-format Dst file (default: synthetic scenario)")
	scenario := fs.String("scenario", "paper", "synthetic scenario when -dst is absent")
	tleFile := fs.String("tles", "", "TLE archive file (e.g. tlegen's output)")
	server := fs.String("server", "", "tracking-service base URL (spacetrackd)")
	fleet := fs.String("fleet", "paper", "built-in fleet when neither -tles nor -server is given")
	seed := fs.Int64("seed", 42, "simulation seed")
	ptile := fs.Float64("ptile", 95, "intensity percentile selecting high-intensity events")
	window := fs.Int("window", 30, "happens-closely-after window (days)")
	top := fs.Int("top", 10, "how many largest deviations to list")
	parallelism := fs.Int("parallel", 0, "worker pool width for simulation and pipeline (0 = one per CPU, 1 = sequential)")
	cacheDir := fs.String("cache", artifact.DefaultDir(), "artifact cache directory for simulated intermediates")
	noCache := fs.Bool("no-cache", false, "disable the artifact cache (always rebuild, never store)")
	traceFlag := fs.Bool("trace", false, "print the stage timing tree and metrics to stderr after the run")
	metricsJSON := fs.String("metrics-json", "", "write a machine-readable metrics+trace report (JSON) to FILE")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var tracer *obs.Tracer
	if *traceFlag || *metricsJSON != "" {
		//cosmiclint:allow nondet tracing timestamps are stderr/report presentation only, never pipeline output
		tracer = obs.NewTracer(time.Now)
	}
	root := tracer.Start("analyze")

	cfg := core.DefaultConfig()
	cfg.Parallelism = *parallelism
	var d *core.Dataset
	if *dstFile == "" && *tleFile == "" && *server == "" {
		// Fully synthetic run: every input is a (config, seed) pair, so the
		// whole substrate is cacheable content-addressed.
		weatherCfg, err := scenarioConfig(*scenario)
		if err != nil {
			return err
		}
		pipe := artifact.NewPipeline(openCache(*noCache, *cacheDir))
		pipe.Log = logger
		pipe.Trace = tracer
		weather, err := pipe.Weather(ctx, weatherCfg)
		if err != nil {
			return err
		}
		fleetCfg, err := fleetConfig(*fleet, *seed, weather)
		if err != nil {
			return err
		}
		fleetCfg.Parallelism = *parallelism
		if d, err = pipe.Dataset(ctx, weatherCfg, fleetCfg, cfg); err != nil {
			return err
		}
	} else {
		sp := tracer.Start("ingest")
		weather, err := loadWeather(ctx, *dstFile, *scenario)
		if err != nil {
			return err
		}
		b := core.NewBuilder(cfg, weather)
		if err := loadTrajectories(ctx, b, weather, *tleFile, *server, *fleet, *seed, *parallelism); err != nil {
			return err
		}
		sp.End()
		sp = tracer.Start("dataset")
		if d, err = b.Build(ctx); err != nil {
			return err
		}
		sp.End()
	}

	cl := d.Cleaning()
	if err := report.Heading(os.Stdout, "Cleaning report"); err != nil {
		return err
	}
	fmt.Printf("observations: %d   gross errors removed: %d   raising points removed: %d   non-operational objects: %d   tracks: %d\n",
		cl.TotalObservations, cl.GrossErrors, cl.RaisingRemoved, cl.NonOperational, len(d.Tracks()))

	sp := tracer.Start("associate")
	events, err := d.EventsAbovePercentile(*ptile, 1, 0)
	if err != nil {
		return err
	}
	devs := d.Associate(ctx, events, *window)
	sp.End()
	if err := report.Heading(os.Stdout, fmt.Sprintf("Events above the %.0fth intensity percentile", *ptile)); err != nil {
		return err
	}
	fmt.Printf("%d events, %d (event, satellite) associations\n", len(events), len(devs))
	if len(devs) == 0 {
		root.End()
		return finishTelemetry(tracer, *traceFlag, *metricsJSON)
	}
	cdf, err := core.DeviationCDF(devs)
	if err != nil {
		return err
	}
	if err := report.CDFTable(os.Stdout, "altitude change within the window", "km", cdf, 10); err != nil {
		return err
	}

	// Largest shifts: the cosmic dance's tail.
	if err := report.Heading(os.Stdout, fmt.Sprintf("Top %d orbital shifts", *top)); err != nil {
		return err
	}
	topDevs := append([]core.Deviation(nil), devs...)
	for i := 0; i < len(topDevs) && i < *top; i++ {
		for j := i + 1; j < len(topDevs); j++ {
			if topDevs[j].MaxDevKm > topDevs[i].MaxDevKm {
				topDevs[i], topDevs[j] = topDevs[j], topDevs[i]
			}
		}
	}
	if len(topDevs) > *top {
		topDevs = topDevs[:*top]
	}
	rows := [][]string{}
	for _, dv := range topDevs {
		rows = append(rows, []string{
			fmt.Sprintf("%d", dv.Catalog),
			dv.Event.Format("2006-01-02"),
			fmt.Sprintf("%.1f", dv.MaxDevKm),
			fmt.Sprintf("%.5f", dv.MaxDrag),
		})
	}
	if err := report.Table(os.Stdout, []string{"catalog", "event", "max dev km", "max dB*"}, rows); err != nil {
		return err
	}
	root.End()
	return finishTelemetry(tracer, *traceFlag, *metricsJSON)
}

// finishTelemetry emits the opt-in observability outputs after a run: the
// stage timing tree and a metrics dump on stderr (-trace), and the
// machine-readable run report (-metrics-json FILE). Everything lands on
// stderr or the named file — stdout is byte-identical with telemetry on or
// off.
func finishTelemetry(tracer *obs.Tracer, trace bool, metricsJSON string) error {
	if trace {
		fmt.Fprintln(os.Stderr, "--- stage timings ---")
		if err := tracer.WriteTree(os.Stderr); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "--- metrics ---")
		if err := obs.Default().Snapshot().WritePrometheus(os.Stderr); err != nil {
			return err
		}
	}
	if metricsJSON != "" {
		f, err := os.Create(metricsJSON)
		if err != nil {
			return err
		}
		if err := obs.WriteRunReport(f, obs.Default(), tracer); err != nil {
			_ = f.Close()
			return err
		}
		return f.Close()
	}
	return nil
}

// cmdScale runs the mega-constellation scale harness: a chunked streaming
// run over the multi-constellation fleet that never materializes the full
// dataset. The deterministic report goes to stdout (byte-identical at every
// chunk size, width, and store — the verify gate depends on that); the
// peak-RSS line goes to stderr so it never perturbs the report bytes.
func cmdScale(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("scale", flag.ExitOnError)
	sats := fs.Int("sats", 6000, "fleet size across the mega-constellation shells")
	days := fs.Int("days", 3, "simulated window length in days")
	seed := fs.Int64("seed", 42, "weather and fleet seed")
	chunk := fs.Int("chunk", 0, "satellites per chunk (0 = default)")
	parallelism := fs.Int("parallel", 0, "chunk-level worker width (0 = one per CPU)")
	cacheDir := fs.String("cache", "", "artifact cache directory (segments become resume points)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec := scale.Spec{
		Sats:        *sats,
		Days:        *days,
		Seed:        *seed,
		ChunkSize:   *chunk,
		Parallelism: *parallelism,
		CacheDir:    *cacheDir,
	}
	rep, err := scale.Run(ctx, spec)
	if err != nil {
		return err
	}
	if err := rep.WriteText(os.Stdout); err != nil {
		return err
	}
	if rss, ok := scale.PeakRSSBytes(); ok {
		fmt.Fprintf(os.Stderr, "peak_rss_bytes %d\n", rss)
	}
	return nil
}

func cmdFetch(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("fetch", flag.ExitOnError)
	server := fs.String("server", "", "tracking-service base URL (required)")
	cache := fs.String("cache", "cosmicdance-cache", "cache directory")
	fromArg := fs.String("from", "", "history window start (RFC3339; default 1 year ago)")
	toArg := fs.String("to", "", "history window end (RFC3339; default now)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *server == "" {
		return fmt.Errorf("fetch: -server is required")
	}
	//cosmiclint:allow nondet the fetch subcommand's default window genuinely ends at the current wall-clock time
	to := time.Now().UTC()
	from := to.AddDate(-1, 0, 0)
	var err error
	if *fromArg != "" {
		if from, err = time.Parse(time.RFC3339, *fromArg); err != nil {
			return err
		}
	}
	if *toArg != "" {
		if to, err = time.Parse(time.RFC3339, *toArg); err != nil {
			return err
		}
	}
	client, err := spacetrack.NewClient(*server, nil)
	if err != nil {
		return err
	}
	fetcher, err := spacetrack.NewCachingFetcher(client, *cache)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(ctx, 10*time.Minute)
	defer cancel()
	current, err := client.FetchGroup(ctx, "starlink")
	if err != nil {
		return err
	}
	nums := spacetrack.CatalogNumbers(current)
	logger.Info("fetching histories", "stage", "fetch", "satellites", len(nums), "cache", *cache)
	results, err := spacetrack.FetchHistories(ctx, fetcher, nums, from, to, 8)
	if err != nil {
		return err
	}
	total := 0
	for _, r := range results {
		if r.Err != nil {
			return fmt.Errorf("history for %d: %w", r.Catalog, r.Err)
		}
		total += len(r.Sets)
	}
	logger.Info("cached element sets", "stage", "fetch", "count", total)
	return nil
}
