package artifact

import (
	"context"
	"log/slog"
	"sync"

	"cosmicdance/internal/constellation"
	"cosmicdance/internal/core"
	"cosmicdance/internal/dst"
	"cosmicdance/internal/obs"
	"cosmicdance/internal/spaceweather"
)

// Pipeline memoizes the weather → fleet and weather → dataset chains behind
// the content-addressed cache. Within one process each artifact is computed
// at most once per fingerprint (so ten figures share one substrate build),
// and across processes the disk cache supplies warm artifacts bit-identical
// to a cold build.
//
// A nil *Cache disables the disk layer; the in-memory memoization still
// applies.
type Pipeline struct {
	cache *Cache

	// Log, when set, receives cache-store failures (disk full, read-only
	// dir) as structured warnings. They never fail the pipeline — the
	// artifact is already in hand — but they are worth surfacing because the
	// next run will be cold again.
	Log *slog.Logger

	// Trace, when set, records one span per stage (weather, fleet, dataset)
	// into the run's timing tree. A nil tracer costs nothing.
	Trace *obs.Tracer

	mu       sync.Mutex
	weather  map[Fingerprint]*dst.Index
	fleets   map[Fingerprint]*constellation.Result
	datasets map[Fingerprint]*core.Dataset
}

// NewPipeline returns a pipeline over cache (nil for memory-only).
func NewPipeline(cache *Cache) *Pipeline {
	return &Pipeline{
		cache:    cache,
		weather:  make(map[Fingerprint]*dst.Index),
		fleets:   make(map[Fingerprint]*constellation.Result),
		datasets: make(map[Fingerprint]*core.Dataset),
	}
}

func (p *Pipeline) warn(err error) {
	if err != nil && p.Log != nil {
		p.Log.Warn("artifact cache store failed", "stage", "artifact", "err", err)
	}
}

// Weather returns the Dst series for cfg: memoized, then cached, then
// generated.
func (p *Pipeline) Weather(ctx context.Context, cfg spaceweather.Config) (*dst.Index, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.weatherLocked(ctx, cfg)
}

func (p *Pipeline) weatherLocked(ctx context.Context, cfg spaceweather.Config) (*dst.Index, error) {
	sp := p.Trace.Start("weather")
	defer sp.End()
	fp := FingerprintWeather(cfg)
	if w, ok := p.weather[fp]; ok {
		return w, nil
	}
	if p.cache != nil {
		if w, ok := p.cache.LoadWeather(fp); ok {
			p.weather[fp] = w
			return w, nil
		}
	}
	w, err := spaceweather.Generate(cfg)
	if err != nil {
		return nil, err
	}
	if p.cache != nil {
		p.warn(p.cache.StoreWeather(fp, w))
	}
	p.weather[fp] = w
	return w, nil
}

// Fleet returns the constellation run for (weatherCfg, fleetCfg): memoized,
// then cached, then simulated. fleetCfg.Parallelism only affects how a cold
// simulation is scheduled, never the result or the cache key.
func (p *Pipeline) Fleet(ctx context.Context, weatherCfg spaceweather.Config, fleetCfg constellation.Config) (*constellation.Result, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	sp := p.Trace.Start("fleet")
	defer sp.End()
	fp := FingerprintFleet(FingerprintWeather(weatherCfg), fleetCfg)
	if res, ok := p.fleets[fp]; ok {
		return res, nil
	}
	if p.cache != nil {
		if res, ok := p.cache.LoadArchive(fp); ok {
			p.fleets[fp] = res
			return res, nil
		}
	}
	weather, err := p.weatherLocked(ctx, weatherCfg)
	if err != nil {
		return nil, err
	}
	res, err := constellation.Run(ctx, fleetCfg, weather)
	if err != nil {
		return nil, err
	}
	if p.cache != nil {
		p.warn(p.cache.StoreArchive(fp, res))
	}
	p.fleets[fp] = res
	return res, nil
}

// Dataset returns the built dataset for the full chain: memoized, then
// cached (the snapshot is self-contained, so a hit skips weather generation
// and simulation entirely), then built from its own simulation. The run is
// keyed into the dataset's fingerprint but neither memoized nor stored: the
// dataset is all a later reader needs, and a caller that also wants the run
// asks Fleet, which simulates again on a cold cache. coreCfg's Parallelism
// knob is applied to the returned dataset but never hashed.
func (p *Pipeline) Dataset(ctx context.Context, weatherCfg spaceweather.Config, fleetCfg constellation.Config, coreCfg core.Config) (*core.Dataset, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	sp := p.Trace.Start("dataset")
	defer sp.End()
	fp := FingerprintDataset(FingerprintFleet(FingerprintWeather(weatherCfg), fleetCfg), coreCfg)
	if d, ok := p.datasets[fp]; ok {
		return d, nil
	}
	if p.cache != nil {
		if d, ok := p.cache.LoadDataset(fp, coreCfg); ok {
			p.datasets[fp] = d
			return d, nil
		}
	}
	weather, err := p.weatherLocked(ctx, weatherCfg)
	if err != nil {
		return nil, err
	}
	sim := p.Trace.Start("fleet")
	fleet, err := constellation.Run(ctx, fleetCfg, weather)
	sim.End()
	if err != nil {
		return nil, err
	}
	b := core.NewBuilder(coreCfg, weather)
	b.AddSamples(fleet.Samples)
	d, err := b.Build(ctx)
	if err != nil {
		return nil, err
	}
	if p.cache != nil {
		p.warn(p.cache.StoreDataset(fp, d))
	}
	p.datasets[fp] = d
	return d, nil
}
