package cosmicdance_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"cosmicdance/internal/constellation"
	"cosmicdance/internal/core"
	"cosmicdance/internal/dst"
	"cosmicdance/internal/incremental"
	"cosmicdance/internal/units"
)

// appendWorld simulates a mega-constellation over a short window with one
// scripted storm dip, returning the weather values and the observation
// stream — the substrate for the O(delta) append measurements.
func appendWorld(tb testing.TB, seed int64, sats, days int) (time.Time, []float64, []core.Observation) {
	tb.Helper()
	start := time.Date(2024, 5, 1, 0, 0, 0, 0, time.UTC)
	vals := make([]float64, days*24)
	for i := range vals {
		vals[i] = -10
	}
	for i := 12; i < 18 && i < len(vals); i++ {
		vals[i] = -80 // one qualifying storm, so association work is live
	}
	cfg := constellation.MegaFleet(seed, sats, start, days)
	res, err := constellation.Run(context.Background(), cfg, dst.FromValues(start, vals))
	if err != nil {
		tb.Fatal(err)
	}
	obs := make([]core.Observation, len(res.Samples))
	for i, s := range res.Samples {
		obs[i] = core.ObservationFromSample(s)
	}
	return start, vals, obs
}

// coldRebuild runs the full batch pipeline at the engine's event model —
// the cost an append would pay without the incremental engine.
func coldRebuild(tb testing.TB, cfg incremental.Config, start time.Time, vals []float64, obs []core.Observation) {
	tb.Helper()
	b := core.NewBuilder(cfg.Core, dst.FromValues(start, vals))
	b.AddObservations(obs)
	d, err := b.Build(context.Background())
	if err != nil {
		tb.Fatal(err)
	}
	events := d.Events(units.StormThreshold, 1, 0)
	d.Associate(context.Background(), events, cfg.WindowDays)
	d.DecayOnsets(cfg.MinDropKm)
}

// TestIncrementalAppendBudget is the O(delta) acceptance gate at test
// scale: folding a handful of fresh observations plus one Dst hour into a
// seeded 10k-satellite engine must cost under 1% of the cold rebuild the
// same update would trigger in the batch pipeline.
func TestIncrementalAppendBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a 10k-satellite world")
	}
	start, vals, obs := appendWorld(t, 42, 10_000, 2)
	cfg := incremental.DefaultConfig()

	eng := incremental.New(cfg)
	eng.IngestObservations(obs)
	// Hold back the last weather hour so the append below advances the
	// watermark through both streams.
	if _, err := eng.IngestDst(start, vals[:len(vals)-1]); err != nil {
		t.Fatal(err)
	}

	const appends = 10
	epoch := eng.LastObservationEpoch()
	fresh := make([]core.Observation, appends)
	for i := range fresh {
		o := obs[i]
		o.Epoch = epoch + int64(i+1)*60
		fresh[i] = o
	}
	appendStart := time.Now()
	for _, o := range fresh {
		eng.IngestObservations([]core.Observation{o})
	}
	if _, err := eng.IngestDst(eng.WeatherWatermark(), vals[len(vals)-1:]); err != nil {
		t.Fatal(err)
	}
	appendCost := time.Since(appendStart)

	coldStart := time.Now()
	coldRebuild(t, cfg, start, vals, append(append([]core.Observation{}, obs...), fresh...))
	coldCost := time.Since(coldStart)

	t.Logf("%d observation appends + 1 Dst hour: %v; cold rebuild: %v (%.4f%%)",
		appends, appendCost, coldCost, 100*float64(appendCost)/float64(coldCost))
	if appendCost*100 >= coldCost {
		t.Fatalf("append cost %v is not under 1%% of the %v cold rebuild", appendCost, coldCost)
	}
}

// benchWorld caches the 100k-satellite substrate across the two
// incremental benchmarks in one `go test -bench` invocation.
var benchWorld struct {
	once  sync.Once
	start time.Time
	vals  []float64
	obs   []core.Observation
}

func benchAppendWorld(b *testing.B) (time.Time, []float64, []core.Observation) {
	b.Helper()
	benchWorld.once.Do(func() {
		benchWorld.start, benchWorld.vals, benchWorld.obs = appendWorld(b, 42, 100_000, 2)
	})
	return benchWorld.start, benchWorld.vals, benchWorld.obs
}

// BenchmarkIncrementalAppend measures one ingest-to-risk update against a
// seeded 100k-satellite engine: one fresh observation plus one Dst hour,
// watermarks advancing in O(delta). Compare against
// BenchmarkIncrementalColdRebuild — the ratio is the headline claim
// (append under 1% of a cold rebuild), pinned as append_pct_of_cold in the
// bench baseline.
func BenchmarkIncrementalAppend(b *testing.B) {
	b.ReportAllocs()
	start, vals, obs := benchAppendWorld(b)
	cfg := incremental.DefaultConfig()
	eng := incremental.New(cfg)
	eng.IngestObservations(obs)
	if _, err := eng.IngestDst(start, vals); err != nil {
		b.Fatal(err)
	}
	epoch := eng.LastObservationEpoch()
	quiet := []float64{-10}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := obs[i%len(obs)]
		o.Epoch = epoch + int64(i+1)*60
		eng.IngestObservations([]core.Observation{o})
		if _, err := eng.IngestDst(eng.WeatherWatermark(), quiet); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIncrementalColdRebuild is the denominator of the append claim:
// the full batch pipeline — build, events, association, onsets — over the
// same 100k-satellite world one appended observation would invalidate.
func BenchmarkIncrementalColdRebuild(b *testing.B) {
	b.ReportAllocs()
	start, vals, obs := benchAppendWorld(b)
	cfg := incremental.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		coldRebuild(b, cfg, start, vals, obs)
	}
}
