// Command figures regenerates every figure of the CosmicDance paper from the
// simulated substrate and prints the plotted series as text tables.
//
// Usage:
//
//	figures [-figure N] [-seed S] [-parallel W] [-cache DIR] [-no-cache] [-out FILE]
//
// With no -figure flag all ten figures are produced in order. -parallel
// bounds the worker pool of the simulation and pipeline fan-outs (0 = one
// worker per CPU); the rendered output is bit-identical at every setting.
//
// Expensive intermediates (weather series, constellation archives, built
// datasets) are cached content-addressed under -cache (default: the user
// cache dir, see internal/artifact). A warm run loads them instead of
// re-simulating; the cache layer guarantees a hit is bit-identical to a cold
// build, so the rendered figures are the same either way. -no-cache forces a
// cold build without touching the cache.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"time"

	"cosmicdance/internal/artifact"
	"cosmicdance/internal/conjunction"
	"cosmicdance/internal/constellation"
	"cosmicdance/internal/core"
	"cosmicdance/internal/groundtrack"
	"cosmicdance/internal/obs"
	"cosmicdance/internal/report"
	"cosmicdance/internal/spaceweather"
	"cosmicdance/internal/stats"
)

// logger is the process logger: structured, leveled, timestamp-free, and
// strictly on stderr so the rendered figures (stdout or -out) stay pristine.
var logger = obs.NewLogger(os.Stderr, slog.LevelInfo)

func fatal(err error) {
	logger.Error("figures failed", "err", err)
	os.Exit(1)
}

func main() {
	ctx := context.Background()
	figure := flag.Int("figure", 0, "render only this figure (1-10); 0 renders all")
	extensions := flag.Bool("extensions", false, "also render the §6 extension analyses")
	seed := flag.Int64("seed", 42, "simulation seed")
	parallelism := flag.Int("parallel", 0, "worker pool width (0 = one per CPU, 1 = sequential)")
	cacheDir := flag.String("cache", artifact.DefaultDir(), "artifact cache directory")
	noCache := flag.Bool("no-cache", false, "disable the artifact cache (always rebuild, never store)")
	out := flag.String("out", "", "write to this file instead of stdout")
	csvDir := flag.String("csv", "", "also write the plotted series as CSV files into this directory")
	traceFlag := flag.Bool("trace", false, "print the stage timing tree and metrics to stderr after the run")
	metricsJSON := flag.String("metrics-json", "", "write a machine-readable metrics+trace report (JSON) to FILE")
	flag.Parse()

	var tracer *obs.Tracer
	if *traceFlag || *metricsJSON != "" {
		tracer = obs.NewTracer(time.Now)
	}
	root := tracer.Start("figures")

	var cache *artifact.Cache
	if !*noCache {
		c, err := artifact.Open(*cacheDir)
		if err != nil {
			logger.Warn("artifact cache disabled", "stage", "cache", "err", err)
		} else {
			cache = c
		}
	}
	pipe := artifact.NewPipeline(cache)
	pipe.Log = logger
	pipe.Trace = tracer
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fatal(err)
		}
	}
	csvOut = *csvDir

	w := io.Writer(os.Stdout)
	closeOut := func() error { return nil }
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		w = f
		closeOut = f.Close
	}
	if err := run(ctx, w, *figure, *seed, *parallelism, pipe); err != nil {
		fatal(err)
	}
	if *extensions {
		if err := runExtensions(ctx, w, *seed, *parallelism, pipe); err != nil {
			fatal(err)
		}
	}
	if err := closeOut(); err != nil {
		fatal(err)
	}
	root.End()
	if *traceFlag {
		fmt.Fprintln(os.Stderr, "--- stage timings ---")
		if err := tracer.WriteTree(os.Stderr); err != nil {
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, "--- metrics ---")
		if err := obs.Default().Snapshot().WritePrometheus(os.Stderr); err != nil {
			fatal(err)
		}
	}
	if *metricsJSON != "" {
		f, err := os.Create(*metricsJSON)
		if err != nil {
			fatal(err)
		}
		if err := obs.WriteRunReport(f, obs.Default(), tracer); err != nil {
			_ = f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
}

// csvOut, when non-empty, receives per-figure CSV exports alongside the text
// rendering.
var csvOut string

// writeCSVFile writes one CSV export, ignoring the call when -csv is unset.
func writeCSVFile(name string, fn func(io.Writer) error) error {
	if csvOut == "" {
		return nil
	}
	f, err := os.Create(filepath.Join(csvOut, name))
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// renderSpan times one figure's rendering under the pipeline's tracer. A nil
// tracer is inert, so the unit tests (which build bare pipelines) pay
// nothing.
func renderSpan(pipe *artifact.Pipeline, name string, fn func() error) error {
	sp := pipe.Trace.Start(name)
	defer sp.End()
	return fn()
}

func run(ctx context.Context, w io.Writer, figure int, seed int64, parallelism int, pipe *artifact.Pipeline) error {
	want := func(n int) bool { return figure == 0 || figure == n }

	// The paper-window substrate is shared by most figures.
	var dataset *core.Dataset
	needPaper := false
	for _, n := range []int{3, 4, 5, 6, 9, 10} {
		if want(n) {
			needPaper = true
		}
	}
	weatherCfg := spaceweather.Paper2020to2024()
	weather, err := pipe.Weather(ctx, weatherCfg)
	if err != nil {
		return err
	}
	if needPaper {
		// The status line prints on warm runs too: a cache hit must leave
		// the rendered bytes untouched, goldens included.
		fmt.Fprintln(w, "building the paper-window substrate (4.5 years, ~2,000 satellites)...")
		fleetCfg := constellation.PaperFleet(seed)
		fleetCfg.Parallelism = parallelism
		coreCfg := core.DefaultConfig()
		coreCfg.Parallelism = parallelism
		dataset, err = pipe.Dataset(ctx, weatherCfg, fleetCfg, coreCfg)
		if err != nil {
			return err
		}
	}

	if want(1) {
		if err := renderSpan(pipe, "render:fig1", func() error { return report.Fig1(w, weather) }); err != nil {
			return err
		}
	}
	if want(2) {
		if err := renderSpan(pipe, "render:fig2", func() error { return report.Fig2(w, weather) }); err != nil {
			return err
		}
	}
	if want(3) {
		err := renderSpan(pipe, "render:fig3", func() error {
			from := time.Date(2023, 1, 1, 0, 0, 0, 0, time.UTC)
			to := time.Date(2024, 5, 8, 0, 0, 0, 0, time.UTC)
			cats := []int{constellation.Fig3SatDragSpike, constellation.Fig3SatQuietDecay, constellation.Fig3SatSharpDrop}
			if err := report.Fig3(w, dataset, cats, from, to, 20); err != nil {
				return err
			}
			for _, cat := range cats {
				ts, err := dataset.TimeSeries(cat, from, to)
				if err != nil {
					return err
				}
				name := fmt.Sprintf("fig03_%d.csv", cat)
				if err := writeCSVFile(name, func(f io.Writer) error { return report.SatSeriesToCSV(f, ts) }); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	if want(4) {
		err := renderSpan(pipe, "render:fig4", func() error {
			wa, err := dataset.Window(ctx, spaceweather.Fig4Storm, core.WindowOptions{Days: 30, RequireHumpShape: true, MinPeakKm: 1})
			if err != nil {
				return err
			}
			if err := report.Fig4(w, "Fig 4(a): altitude variation after a -112 nT event", wa); err != nil {
				return err
			}
			if err := writeCSVFile("fig04a.csv", func(f io.Writer) error { return report.WindowToCSV(f, wa) }); err != nil {
				return err
			}
			quiet, err := dataset.QuietEpochs(80, 15, 1, 24*time.Hour)
			if err != nil {
				return err
			}
			qa, err := dataset.Window(ctx, quiet[0], core.WindowOptions{Days: 15})
			if err != nil {
				return err
			}
			if err := report.Fig4(w, "Fig 4(b): altitude variation on a quiet epoch", qa); err != nil {
				return err
			}
			return writeCSVFile("fig04b.csv", func(f io.Writer) error { return report.WindowToCSV(f, qa) })
		})
		if err != nil {
			return err
		}
	}
	if want(5) || want(6) {
		if err := renderSpan(pipe, "render:fig5-6", func() error { return renderFig56(ctx, w, dataset, want) }); err != nil {
			return err
		}
	}
	if want(7) {
		if err := renderSpan(pipe, "render:fig7", func() error { return renderFig7(ctx, w, seed, parallelism, pipe) }); err != nil {
			return err
		}
	}
	if want(8) {
		err := renderSpan(pipe, "render:fig8", func() error {
			fifty, err := pipe.Weather(ctx, spaceweather.FiftyYears())
			if err != nil {
				return err
			}
			return report.Fig8(w, fifty, spaceweather.NamedHistoricStorms())
		})
		if err != nil {
			return err
		}
	}
	if want(9) {
		err := renderSpan(pipe, "render:fig9", func() error {
			cfg := l1CohortFleet(seed, parallelism)
			cohort, err := pipe.Fleet(ctx, weatherCfg, cfg)
			if err != nil {
				return err
			}
			cats := make([]int, 0, l1Cohort)
			for c := cfg.FirstCatalog; c < cfg.FirstCatalog+l1Cohort; c++ {
				cats = append(cats, c)
			}
			return report.Fig9(w, cohort, cats, 54)
		})
		if err != nil {
			return err
		}
	}
	if want(10) {
		err := renderSpan(pipe, "render:fig10", func() error {
			raw, err := dataset.RawAltitudeCDF()
			if err != nil {
				return err
			}
			clean, err := dataset.CleanAltitudeCDF()
			if err != nil {
				return err
			}
			if err := report.Fig10(w, raw, clean); err != nil {
				return err
			}
			if err := writeCSVFile("fig10a.csv", func(f io.Writer) error { return report.CDFToCSV(f, raw, 64) }); err != nil {
				return err
			}
			return writeCSVFile("fig10b.csv", func(f io.Writer) error { return report.CDFToCSV(f, clean, 64) })
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// l1Cohort is how many satellites of Starlink's first launch Fig 9 follows.
const l1Cohort = 43

// l1CohortFleet is the paper fleet cut down to Fig 9's cohort: the L1 launch
// alone, carrying only the satellites the figure plots, and none of the
// scripted incidents (they target later launches). A satellite draws every
// random property from a stream keyed by its catalog number, so the cohort's
// samples are exactly the full run's samples for the same catalogs, at a
// fraction of the simulation and cache size.
func l1CohortFleet(seed int64, parallelism int) constellation.Config {
	cfg := constellation.PaperFleet(seed)
	cfg.Parallelism = parallelism
	l1 := cfg.Launches[0]
	l1.Count = l1Cohort
	cfg.Launches = []constellation.Launch{l1}
	cfg.Scripted = nil
	return cfg
}

func renderFig56(ctx context.Context, w io.Writer, dataset *core.Dataset, want func(int) bool) error {
	quietEpochs, err := dataset.QuietEpochs(80, 15, 20, 14*24*time.Hour)
	if err != nil {
		return err
	}
	quietCDF, err := core.DeviationCDF(dataset.AssociateQuiet(ctx, quietEpochs, 15))
	if err != nil {
		return err
	}
	if want(5) {
		events, err := dataset.EventsAbovePercentile(95, 1, 0)
		if err != nil {
			return err
		}
		devs := dataset.Associate(ctx, events, 30)
		stormCDF, err := core.DeviationCDF(devs)
		if err != nil {
			return err
		}
		dragCDF, err := core.DragChangeCDF(devs)
		if err != nil {
			return err
		}
		if err := report.Fig5(w, quietCDF, stormCDF, dragCDF); err != nil {
			return err
		}
		for _, c := range []struct {
			name string
			cdf  *stats.CDF
		}{{"fig05a.csv", quietCDF}, {"fig05b.csv", stormCDF}, {"fig05c.csv", dragCDF}} {
			if err := writeCSVFile(c.name, func(f io.Writer) error { return report.CDFToCSV(f, c.cdf, 64) }); err != nil {
				return err
			}
		}
	}
	if want(6) {
		short, err := dataset.EventsAbovePercentile(99, 1, 8)
		if err != nil {
			return err
		}
		long, err := dataset.EventsAbovePercentile(99, 9, 0)
		if err != nil {
			return err
		}
		shortCDF, err := core.DeviationCDF(dataset.Associate(ctx, short, 30))
		if err != nil {
			return err
		}
		longDevs := dataset.Associate(ctx, long, 30)
		longCDF, err := core.DeviationCDF(longDevs)
		if err != nil {
			return err
		}
		dragLong, err := core.DragChangeCDF(longDevs)
		if err != nil {
			return err
		}
		if err := report.Fig6(w, shortCDF, longCDF, dragLong); err != nil {
			return err
		}
		for _, c := range []struct {
			name string
			cdf  *stats.CDF
		}{{"fig06a.csv", shortCDF}, {"fig06b.csv", longCDF}, {"fig06c.csv", dragLong}} {
			if err := writeCSVFile(c.name, func(f io.Writer) error { return report.CDFToCSV(f, c.cdf, 64) }); err != nil {
				return err
			}
		}
	}
	return nil
}

func renderFig7(ctx context.Context, w io.Writer, seed int64, parallelism int, pipe *artifact.Pipeline) error {
	fmt.Fprintln(w, "\nbuilding the May 2024 full-scale fleet (5,900 satellites, one month)...")
	fleetCfg := constellation.May2024Fleet(seed)
	fleetCfg.Parallelism = parallelism
	coreCfg := core.DefaultConfig()
	coreCfg.Parallelism = parallelism
	d, err := pipe.Dataset(ctx, spaceweather.May2024(), fleetCfg, coreCfg)
	if err != nil {
		return err
	}
	// The run's epoch origin, exactly as constellation.Run derives it.
	start := fleetCfg.Start.UTC().Truncate(time.Hour)
	rep, err := d.SuperStorm(start.Add(3*24*time.Hour), start.Add(30*24*time.Hour))
	if err != nil {
		return err
	}
	if err := writeCSVFile("fig07.csv", func(f io.Writer) error { return report.SuperStormToCSV(f, rep) }); err != nil {
		return err
	}
	return report.Fig7(w, rep)
}

// runExtensions renders the §6 future-work analyses: latitude-band exposure
// during the May 2024 super-storm and conjunction pressure over the paper
// window.
func runExtensions(ctx context.Context, w io.Writer, seed int64, parallelism int, pipe *artifact.Pipeline) error {
	// Latitude exposure at the super-storm peak. The fleet is deliberately
	// smaller than Fig 7's (InitialFleet override), so it fingerprints — and
	// caches — as its own artifact.
	cfg := constellation.May2024Fleet(seed)
	cfg.Parallelism = parallelism
	cfg.InitialFleet = 1000
	fleet, err := pipe.Fleet(ctx, spaceweather.May2024(), cfg)
	if err != nil {
		return err
	}
	peak := spaceweather.May2024Peak
	sats := groundtrack.FromSamples(fleet.Samples, peak)
	exposure, err := groundtrack.NewAnalyzer().Analyze(sats, peak, peak.Add(6*time.Hour))
	if err != nil {
		return err
	}
	if err := report.ExtLatitude(w, exposure); err != nil {
		return err
	}

	// Conjunction pressure over the paper window. Shares the run() substrate
	// through the pipeline's memoization when both execute in one process.
	paperCfg := constellation.PaperFleet(seed)
	paperCfg.Parallelism = parallelism
	coreCfg := core.DefaultConfig()
	coreCfg.Parallelism = parallelism
	dataset, err := pipe.Dataset(ctx, spaceweather.Paper2020to2024(), paperCfg, coreCfg)
	if err != nil {
		return err
	}
	kessler, err := conjunction.NewAnalyzer(constellation.StarlinkShells()).Analyze(dataset.Tracks())
	if err != nil {
		return err
	}
	return report.ExtKessler(w, kessler)
}
