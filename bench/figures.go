package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"time"

	"cosmicdance/internal/artifact"
	"cosmicdance/internal/constellation"
	"cosmicdance/internal/core"
	"cosmicdance/internal/dst"
	"cosmicdance/internal/report"
	"cosmicdance/internal/spaceweather"
	"cosmicdance/internal/stats"
)

// figuresWorkload renders the paper's figures with cmd/figures: a cold
// render on a fresh artifact cache (the set-up), then warm renders on that
// cache. The cold render spends its time simulating, building and writing
// snapshots; a warm one reads snapshots back, then analyses and renders —
// the same artifact layer used two different ways.
type figuresWorkload struct {
	first  []byte // the first render, which every later render must repeat
	differ int
}

func (w *figuresWorkload) name() string { return "paper-figures" }
func (w *figuresWorkload) rate() string { return "warm_renders_per_s" }

func (w *figuresWorkload) args(e *env, cache string) []string {
	args := []string{"-seed", strconv.FormatInt(e.seed, 10), "-cache", cache}
	if e.sz.figure != 0 {
		args = append(args, "-figure", strconv.Itoa(e.sz.figure))
	}
	return args
}

// same records whether a render repeats the first one.
func (w *figuresWorkload) same(out []byte) bool {
	if w.first == nil {
		w.first = out
		return true
	}
	if !bytes.Equal(out, w.first) {
		w.differ++
		return false
	}
	return true
}

func (w *figuresWorkload) run(ctx context.Context, e *env, budget time.Duration) (*run, error) {
	cache, err := os.MkdirTemp(e.workDir, "figures-cache-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(cache)
	bin := e.bin("figures")
	cold, err := runProc(ctx, bin, w.args(e, cache)...)
	if err != nil {
		return nil, err
	}
	w.same(cold.stdout)
	r := &run{setups: []float64{cold.wall.Seconds()}}
	for r.window < budget {
		p, err := runProc(ctx, bin, w.args(e, cache)...)
		if err != nil {
			r.ops = append(r.ops, op{class: "warm"})
			e.printf("op %s failed: %v\n", w.name(), err)
			break
		}
		r.ops = append(r.ops, op{class: "warm", ms: ms(p.wall), ok: w.same(p.stdout)})
		r.window += p.wall
		r.rates = append(r.rates, 1/p.wall.Seconds())
		r.cpuMS = append(r.cpuMS, ms(p.cpu))
		r.rssMB = append(r.rssMB, p.rssMB)
	}
	return r, nil
}

func (w *figuresWorkload) checks(e *env) []check {
	cs := []check{{name: "cold and warm renders identical", ok: w.first != nil && w.differ == 0, detail: fmt.Sprintf("%d differed", w.differ)}}
	if e.seed == 42 && e.sz == full {
		golden, err := os.ReadFile(filepath.Join(e.root, "cmd", "figures", "testdata", "figures_seed42.golden"))
		ok := err == nil && bytes.Equal(w.first, golden)
		cs = append(cs, check{name: "render equals figures_seed42.golden", ok: ok, detail: fmt.Sprint(err)})
	}
	return cs
}

// figPipe is artifact.Pipeline's memoized weather → fleet → dataset chain
// rebuilt from the cache's public Load*/Store* calls, so each layer gets
// its own span.
type figPipe struct {
	rec      *recorder
	cache    *artifact.Cache
	weather  map[artifact.Fingerprint]*dst.Index
	fleets   map[artifact.Fingerprint]*constellation.Result
	datasets map[artifact.Fingerprint]*core.Dataset
}

func newFigPipe(rec *recorder, cache *artifact.Cache) *figPipe {
	return &figPipe{
		rec: rec, cache: cache,
		weather:  map[artifact.Fingerprint]*dst.Index{},
		fleets:   map[artifact.Fingerprint]*constellation.Result{},
		datasets: map[artifact.Fingerprint]*core.Dataset{},
	}
}

// span runs fn inside a span on the render's lane.
func (p *figPipe) span(name string, fn func() error) error {
	id := p.rec.begin(0, name)
	defer p.rec.end(id, 0)
	return fn()
}

// load runs a cache lookup in an artifact.load span, counting the bytes a
// hit read.
func (p *figPipe) load(kind artifact.Kind, fp artifact.Fingerprint, fn func() bool) bool {
	hit := false
	_ = p.span("artifact.load", func() error {
		if hit = fn(); hit {
			if fi, err := os.Stat(p.cache.Path(kind, fp)); err == nil {
				p.rec.add("artifact.load.bytes", float64(fi.Size()))
			}
		}
		return nil
	})
	return hit
}

// store writes a cache entry in an artifact.store span. A failed store is
// not fatal to the render, exactly as in artifact.Pipeline.
func (p *figPipe) store(kind artifact.Kind, fp artifact.Fingerprint, fn func() error) {
	_ = p.span("artifact.store", func() error {
		if fn() == nil {
			if fi, err := os.Stat(p.cache.Path(kind, fp)); err == nil {
				p.rec.add("artifact.store.bytes", float64(fi.Size()))
			}
		}
		return nil
	})
}

func (p *figPipe) Weather(cfg spaceweather.Config) (*dst.Index, error) {
	fp := artifact.FingerprintWeather(cfg)
	if w, ok := p.weather[fp]; ok {
		return w, nil
	}
	var w *dst.Index
	if p.load(artifact.KindWeather, fp, func() (ok bool) { w, ok = p.cache.LoadWeather(fp); return ok }) {
		p.weather[fp] = w
		return w, nil
	}
	if err := p.span("spaceweather.generate", func() (err error) { w, err = spaceweather.Generate(cfg); return err }); err != nil {
		return nil, err
	}
	p.store(artifact.KindWeather, fp, func() error { return p.cache.StoreWeather(fp, w) })
	p.weather[fp] = w
	return w, nil
}

func (p *figPipe) Fleet(ctx context.Context, wcfg spaceweather.Config, fcfg constellation.Config) (*constellation.Result, error) {
	fp := artifact.FingerprintFleet(artifact.FingerprintWeather(wcfg), fcfg)
	if res, ok := p.fleets[fp]; ok {
		return res, nil
	}
	var res *constellation.Result
	if p.load(artifact.KindArchive, fp, func() (ok bool) { res, ok = p.cache.LoadArchive(fp); return ok }) {
		p.fleets[fp] = res
		return res, nil
	}
	weather, err := p.Weather(wcfg)
	if err != nil {
		return nil, err
	}
	if err := p.span("constellation.run", func() (err error) { res, err = constellation.Run(ctx, fcfg, weather); return err }); err != nil {
		return nil, err
	}
	p.rec.add("constellation.samples", float64(len(res.Samples)))
	p.store(artifact.KindArchive, fp, func() error { return p.cache.StoreArchive(fp, res) })
	p.fleets[fp] = res
	return res, nil
}

func (p *figPipe) Dataset(ctx context.Context, wcfg spaceweather.Config, fcfg constellation.Config, ccfg core.Config) (*core.Dataset, error) {
	fp := artifact.FingerprintDataset(artifact.FingerprintFleet(artifact.FingerprintWeather(wcfg), fcfg), ccfg)
	if d, ok := p.datasets[fp]; ok {
		return d, nil
	}
	var d *core.Dataset
	if p.load(artifact.KindDataset, fp, func() (ok bool) { d, ok = p.cache.LoadDataset(fp, ccfg); return ok }) {
		p.datasets[fp] = d
		return d, nil
	}
	weather, err := p.Weather(wcfg)
	if err != nil {
		return nil, err
	}
	fleet, err := p.Fleet(ctx, wcfg, fcfg)
	if err != nil {
		return nil, err
	}
	if err := p.span("core.build", func() (err error) {
		b := core.NewBuilder(ccfg, weather)
		b.AddSamples(fleet.Samples)
		d, err = b.Build(ctx)
		return err
	}); err != nil {
		return nil, err
	}
	p.rec.add("core.observations", float64(d.Cleaning().TotalObservations))
	p.store(artifact.KindDataset, fp, func() error { return p.cache.StoreDataset(fp, d) })
	p.datasets[fp] = d
	return d, nil
}

// renderFigures is cmd/figures' render composed from the modules' public
// calls (CSV export and extensions left out). It must write exactly the
// bytes cmd/figures prints; the traced run checks that.
func renderFigures(ctx context.Context, w io.Writer, figure int, seed int64, p *figPipe) error {
	want := func(n int) bool { return figure == 0 || figure == n }
	an := func(fn func() error) error { return p.span("core.analyze", fn) }
	rd := func(fn func() error) error { return p.span("report.render", fn) }

	var (
		dataset *core.Dataset
		fleet   *constellation.Result
	)
	needPaper := false
	for _, n := range []int{3, 4, 5, 6, 9, 10} {
		needPaper = needPaper || want(n)
	}
	weatherCfg := spaceweather.Paper2020to2024()
	weather, err := p.Weather(weatherCfg)
	if err != nil {
		return err
	}
	if needPaper {
		fmt.Fprintln(w, "building the paper-window substrate (4.5 years, ~2,000 satellites)...")
		fleetCfg := constellation.PaperFleet(seed)
		if dataset, err = p.Dataset(ctx, weatherCfg, fleetCfg, core.DefaultConfig()); err != nil {
			return err
		}
		if want(9) {
			if fleet, err = p.Fleet(ctx, weatherCfg, fleetCfg); err != nil {
				return err
			}
		}
	}
	if want(1) {
		if err := rd(func() error { return report.Fig1(w, weather) }); err != nil {
			return err
		}
	}
	if want(2) {
		if err := rd(func() error { return report.Fig2(w, weather) }); err != nil {
			return err
		}
	}
	if want(3) {
		from := time.Date(2023, 1, 1, 0, 0, 0, 0, time.UTC)
		to := time.Date(2024, 5, 8, 0, 0, 0, 0, time.UTC)
		cats := []int{constellation.Fig3SatDragSpike, constellation.Fig3SatQuietDecay, constellation.Fig3SatSharpDrop}
		if err := rd(func() error { return report.Fig3(w, dataset, cats, from, to, 20) }); err != nil {
			return err
		}
		// cmd/figures also derives each series for its CSV export.
		if err := an(func() error {
			for _, cat := range cats {
				if _, err := dataset.TimeSeries(cat, from, to); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
	}
	if want(4) {
		var wa, qa *core.WindowAnalysis
		if err := an(func() (err error) {
			wa, err = dataset.Window(ctx, spaceweather.Fig4Storm, core.WindowOptions{Days: 30, RequireHumpShape: true, MinPeakKm: 1})
			return err
		}); err != nil {
			return err
		}
		if err := rd(func() error { return report.Fig4(w, "Fig 4(a): altitude variation after a -112 nT event", wa) }); err != nil {
			return err
		}
		if err := an(func() error {
			quiet, err := dataset.QuietEpochs(80, 15, 1, 24*time.Hour)
			if err != nil {
				return err
			}
			qa, err = dataset.Window(ctx, quiet[0], core.WindowOptions{Days: 15})
			return err
		}); err != nil {
			return err
		}
		if err := rd(func() error { return report.Fig4(w, "Fig 4(b): altitude variation on a quiet epoch", qa) }); err != nil {
			return err
		}
	}
	if want(5) || want(6) {
		if err := renderFig56(ctx, w, dataset, want, an, rd); err != nil {
			return err
		}
	}
	if want(7) {
		fmt.Fprintln(w, "\nbuilding the May 2024 full-scale fleet (5,900 satellites, one month)...")
		fleetCfg := constellation.May2024Fleet(seed)
		d, err := p.Dataset(ctx, spaceweather.May2024(), fleetCfg, core.DefaultConfig())
		if err != nil {
			return err
		}
		start := fleetCfg.Start.UTC().Truncate(time.Hour)
		var rep *core.SuperStormReport
		if err := an(func() (err error) {
			rep, err = d.SuperStorm(start.Add(3*24*time.Hour), start.Add(30*24*time.Hour))
			return err
		}); err != nil {
			return err
		}
		if err := rd(func() error { return report.Fig7(w, rep) }); err != nil {
			return err
		}
	}
	if want(8) {
		fifty, err := p.Weather(spaceweather.FiftyYears())
		if err != nil {
			return err
		}
		if err := rd(func() error { return report.Fig8(w, fifty, spaceweather.NamedHistoricStorms()) }); err != nil {
			return err
		}
	}
	if want(9) {
		cats := make([]int, 0, 43)
		for c := 44713; c < 44713+43; c++ {
			cats = append(cats, c)
		}
		if err := rd(func() error { return report.Fig9(w, fleet, cats, 54) }); err != nil {
			return err
		}
	}
	if want(10) {
		var raw, clean *stats.CDF
		if err := an(func() (err error) {
			if raw, err = dataset.RawAltitudeCDF(); err != nil {
				return err
			}
			clean, err = dataset.CleanAltitudeCDF()
			return err
		}); err != nil {
			return err
		}
		if err := rd(func() error { return report.Fig10(w, raw, clean) }); err != nil {
			return err
		}
	}
	return nil
}

func renderFig56(ctx context.Context, w io.Writer, dataset *core.Dataset, want func(int) bool, an, rd func(func() error) error) error {
	var quietCDF *stats.CDF
	if err := an(func() error {
		quietEpochs, err := dataset.QuietEpochs(80, 15, 20, 14*24*time.Hour)
		if err != nil {
			return err
		}
		quietCDF, err = core.DeviationCDF(dataset.AssociateQuiet(ctx, quietEpochs, 15))
		return err
	}); err != nil {
		return err
	}
	if want(5) {
		var stormCDF, dragCDF *stats.CDF
		if err := an(func() error {
			events, err := dataset.EventsAbovePercentile(95, 1, 0)
			if err != nil {
				return err
			}
			devs := dataset.Associate(ctx, events, 30)
			if stormCDF, err = core.DeviationCDF(devs); err != nil {
				return err
			}
			dragCDF, err = core.DragChangeCDF(devs)
			return err
		}); err != nil {
			return err
		}
		if err := rd(func() error { return report.Fig5(w, quietCDF, stormCDF, dragCDF) }); err != nil {
			return err
		}
	}
	if want(6) {
		var shortCDF, longCDF, dragLong *stats.CDF
		if err := an(func() error {
			short, err := dataset.EventsAbovePercentile(99, 1, 8)
			if err != nil {
				return err
			}
			long, err := dataset.EventsAbovePercentile(99, 9, 0)
			if err != nil {
				return err
			}
			if shortCDF, err = core.DeviationCDF(dataset.Associate(ctx, short, 30)); err != nil {
				return err
			}
			longDevs := dataset.Associate(ctx, long, 30)
			if longCDF, err = core.DeviationCDF(longDevs); err != nil {
				return err
			}
			dragLong, err = core.DragChangeCDF(longDevs)
			return err
		}); err != nil {
			return err
		}
		if err := rd(func() error { return report.Fig6(w, shortCDF, longCDF, dragLong) }); err != nil {
			return err
		}
	}
	return nil
}

// render is one in-process render: its wall time, its output's digest and
// the snapshot digest of every dataset it resolved.
type render struct {
	wall     time.Duration
	digest   [sha256.Size]byte
	datasets map[artifact.Fingerprint][sha256.Size]byte
}

// renderOnce renders every figure on cache under a root span. The dataset
// digests are taken after the root closes, outside the traced wall.
func renderOnce(ctx context.Context, e *env, rec *recorder, cache *artifact.Cache, name string) (*render, error) {
	p := newFigPipe(rec, cache)
	h := sha256.New()
	start := time.Now()
	root := rec.root(0, name)
	err := renderFigures(ctx, h, e.sz.figure, e.seed, p)
	rec.end(root, 0)
	if err != nil {
		return nil, err
	}
	r := &render{wall: time.Since(start), datasets: map[artifact.Fingerprint][sha256.Size]byte{}}
	copy(r.digest[:], h.Sum(nil))
	fps := make([]artifact.Fingerprint, 0, len(p.datasets))
	for fp := range p.datasets {
		fps = append(fps, fp)
	}
	slices.SortFunc(fps, func(a, b artifact.Fingerprint) int { return bytes.Compare(a[:], b[:]) })
	for _, fp := range fps {
		sum := sha256.New()
		if err := artifact.EncodeDataset(sum, p.datasets[fp]); err != nil {
			return nil, err
		}
		var ds [sha256.Size]byte
		copy(ds[:], sum.Sum(nil))
		r.datasets[fp] = ds
	}
	return r, nil
}

// composition renders cold on a fresh cache and then warm twice, returning
// the renders and the cache directory.
func (w *figuresWorkload) composition(ctx context.Context, e *env, rec *recorder) ([]*render, string, error) {
	dir, err := os.MkdirTemp(e.workDir, "figures-traced-")
	if err != nil {
		return nil, "", err
	}
	cache, err := artifact.Open(dir)
	if err != nil {
		return nil, dir, err
	}
	var renders []*render
	for i, name := range []string{"bench.cold", "bench.warm", "bench.warm"} {
		r, err := renderOnce(ctx, e, rec, cache, name)
		if err != nil {
			return nil, dir, fmt.Errorf("render %d: %w", i, err)
		}
		renders = append(renders, r)
	}
	return renders, dir, nil
}

func (w *figuresWorkload) traced(ctx context.Context, e *env, _ time.Duration) (*tracedRun, error) {
	plain, dir, err := w.composition(ctx, e, nil)
	os.RemoveAll(dir)
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	renders, dir, err := w.composition(ctx, e, rec)
	defer os.RemoveAll(dir)
	if err != nil {
		return nil, err
	}
	cli, err := runProc(ctx, e.bin("figures"), w.args(e, dir)...)
	if err != nil {
		return nil, err
	}
	cliDigest := sha256.Sum256(cli.stdout)

	cold, warm := renders[0], renders[len(renders)-1]
	sameAsCLI := true
	for _, r := range renders {
		sameAsCLI = sameAsCLI && r.digest == cliDigest
	}
	reencoded := len(warm.datasets) == len(cold.datasets)
	for fp, sum := range warm.datasets {
		reencoded = reencoded && cold.datasets[fp] == sum
	}
	checks := []check{
		{name: "every in-process render equals cmd/figures on the same cache", ok: sameAsCLI},
		{name: "warm datasets re-encode byte-identical to cold", ok: reencoded, detail: fmt.Sprintf("%d datasets", len(warm.datasets))},
	}

	perOp := func(rs []*render) float64 {
		var total time.Duration
		for _, r := range rs {
			total += r.wall
		}
		return ms(total) / float64(len(rs))
	}
	var warmMS []float64
	for _, r := range renders[1:] {
		warmMS = append(warmMS, ms(r.wall))
	}
	return &tracedRun{
		rec:      rec,
		overhead: 100 * (perOp(renders)/perOp(plain) - 1),
		lines: []string{
			fmt.Sprintf("cold_render_s %.6g s", cold.wall.Seconds()),
			fmt.Sprintf("warm_render_s %.6g s n=%d", median(warmMS)/1000, len(warmMS)),
		},
		checks: checks,
	}, nil
}
