package cosmicdance_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"cosmicdance/internal/constellation"
	"cosmicdance/internal/core"
	"cosmicdance/internal/dst"
	"cosmicdance/internal/incremental"
	"cosmicdance/internal/spaceweather"
	"cosmicdance/internal/testkit"
)

// pipelineRun is everything the equivalence suite compares: the built
// dataset, the happens-closely-after associations, and the automatically
// detected decay onsets.
type pipelineRun struct {
	dataset *core.Dataset
	devs    []core.Deviation
	onsets  []core.DecayOnset
}

// runPipeline simulates a small research fleet and runs the full analysis at
// the given worker-pool width.
func runPipeline(t testing.TB, weather *dst.Index, seed int64, parallelism int) pipelineRun {
	t.Helper()
	start := weather.Start()
	fleetCfg := constellation.ResearchFleet(seed, start, start.AddDate(1, 0, 0), 10)
	fleetCfg.Parallelism = parallelism
	res, err := constellation.Run(context.Background(), fleetCfg, weather)
	if err != nil {
		t.Fatalf("parallelism %d: constellation: %v", parallelism, err)
	}
	coreCfg := core.DefaultConfig()
	coreCfg.Parallelism = parallelism
	b := core.NewBuilder(coreCfg, weather)
	b.AddSamples(res.Samples)
	d, err := b.Build(context.Background())
	if err != nil {
		t.Fatalf("parallelism %d: build: %v", parallelism, err)
	}
	events, err := d.EventsAbovePercentile(95, 1, 0)
	if err != nil {
		t.Fatalf("parallelism %d: events: %v", parallelism, err)
	}
	return pipelineRun{
		dataset: d,
		devs:    d.Associate(context.Background(), events, 30),
		onsets:  d.DecayOnsets(5),
	}
}

// runChunkedPipeline runs the same fleet through the chunked path —
// PlanChunks → per-chunk simulation and cleaning → ordered assembly — at the
// given chunk size and worker width.
func runChunkedPipeline(t testing.TB, weather *dst.Index, seed int64, parallelism, chunkSize int) pipelineRun {
	t.Helper()
	start := weather.Start()
	fleetCfg := constellation.ResearchFleet(seed, start, start.AddDate(1, 0, 0), 10)
	fleetCfg.Parallelism = parallelism
	plan, err := constellation.PlanChunks(fleetCfg, chunkSize)
	if err != nil {
		t.Fatalf("chunk %d: plan: %v", chunkSize, err)
	}
	coreCfg := core.DefaultConfig()
	coreCfg.Parallelism = 1
	asm := core.NewPartialAssembler(coreCfg, weather)
	for i := 0; i < plan.NumChunks(); i++ {
		res, err := plan.RunChunk(context.Background(), i, weather)
		if err != nil {
			t.Fatalf("chunk %d/%d: run: %v", i, chunkSize, err)
		}
		part, err := core.BuildChunkPartial(context.Background(), coreCfg, res.Samples)
		if err != nil {
			t.Fatalf("chunk %d/%d: partial: %v", i, chunkSize, err)
		}
		if err := asm.Add(part); err != nil {
			t.Fatalf("chunk %d/%d: assemble: %v", i, chunkSize, err)
		}
	}
	d, err := asm.Finish()
	if err != nil {
		t.Fatalf("chunk %d: finish: %v", chunkSize, err)
	}
	events, err := d.EventsAbovePercentile(95, 1, 0)
	if err != nil {
		t.Fatalf("chunk %d: events: %v", chunkSize, err)
	}
	return pipelineRun{
		dataset: d,
		devs:    d.Associate(context.Background(), events, 30),
		onsets:  d.DecayOnsets(5),
	}
}

// runIncrementalPrefix replays the first nObs observations and nHours Dst
// hours through the incremental engine, and builds the batch pipeline at
// exactly the same watermark (fixed-threshold events, the engine's event
// model). Byte-identity between the two is the live-feed determinism
// invariant: an engine is always some prefix replay of the stream.
func runIncrementalPrefix(t *testing.T, weather *dst.Index, obs []core.Observation, nObs, nHours int) (got, ref pipelineRun) {
	t.Helper()
	vals := weather.Values()[:nHours]
	cfg := incremental.DefaultConfig()

	eng := incremental.New(cfg)
	eng.IngestObservations(obs[:nObs])
	if _, err := eng.IngestDst(weather.Start(), vals); err != nil {
		t.Fatalf("prefix %d/%d: ingest dst: %v", nObs, nHours, err)
	}
	d, err := eng.Dataset()
	if err != nil {
		t.Fatalf("prefix %d/%d: engine dataset: %v", nObs, nHours, err)
	}
	got = pipelineRun{dataset: d, devs: eng.Deviations(), onsets: eng.Onsets()}

	b := core.NewBuilder(cfg.Core, dst.FromValues(weather.Start(), vals))
	b.AddObservations(obs[:nObs])
	bd, err := b.Build(context.Background())
	if err != nil {
		t.Fatalf("prefix %d/%d: batch build: %v", nObs, nHours, err)
	}
	events := bd.Events(cfg.MaxPeak, cfg.MinHours, cfg.MaxHours)
	ref = pipelineRun{
		dataset: bd,
		devs:    bd.Associate(context.Background(), events, cfg.WindowDays),
		onsets:  bd.DecayOnsets(cfg.MinDropKm),
	}
	return got, ref
}

// TestParallelEquivalence is the headline invariant of the worker-pool
// pipeline: at every Parallelism setting — at every chunk size of the
// chunked streaming path — and at every stream prefix of the incremental
// engine — the simulated archive, the cleaned dataset, the deviation list,
// and the decay-onset set are identical to the sequential unchunked run —
// across several seeds, so the property does not hinge on one lucky
// schedule.
func TestParallelEquivalence(t *testing.T) {
	weather, err := spaceweather.Generate(spaceweather.Paper2020to2024())
	if err != nil {
		t.Fatal(err)
	}
	diffRun := func(t *testing.T, label string, ref, got pipelineRun) {
		t.Helper()
		if msg := testkit.DiffDatasets(ref.dataset, got.dataset); msg != "" {
			t.Errorf("%s: dataset diverged: %s", label, msg)
		}
		if msg := testkit.DiffDeviations(ref.devs, got.devs); msg != "" {
			t.Errorf("%s: deviations diverged: %s", label, msg)
		}
		if msg := diffOnsets(ref.onsets, got.onsets); msg != "" {
			t.Errorf("%s: decay onsets diverged: %s", label, msg)
		}
	}
	for _, seed := range []int64{7, 42, 1234} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			ref := runPipeline(t, weather, seed, 1)
			if len(ref.dataset.Tracks()) == 0 {
				t.Fatal("sequential reference produced no tracks")
			}
			for _, width := range []int{2, 4, 8} {
				got := runPipeline(t, weather, seed, width)
				diffRun(t, fmt.Sprintf("parallelism %d", width), ref, got)
			}
			for _, chunkSize := range []int{16, 64, 1 << 20} {
				got := runChunkedPipeline(t, weather, seed, 4, chunkSize)
				diffRun(t, fmt.Sprintf("chunk %d", chunkSize), ref, got)
			}
			// Prefix dimension: replaying any prefix of the event stream
			// through the incremental engine equals the batch pipeline at
			// the same watermark. (The engine's fixed-threshold event model
			// differs from the percentile reference above, so the batch
			// side is rebuilt per prefix rather than reusing ref.)
			start := weather.Start()
			fleetCfg := constellation.ResearchFleet(seed, start, start.AddDate(1, 0, 0), 10)
			res, err := constellation.Run(context.Background(), fleetCfg, weather)
			if err != nil {
				t.Fatalf("prefix fleet: %v", err)
			}
			obs := make([]core.Observation, len(res.Samples))
			for i, s := range res.Samples {
				obs[i] = core.ObservationFromSample(s)
			}
			for _, den := range []int{4, 2, 1} {
				got, ref := runIncrementalPrefix(t, weather, obs, len(obs)/den, weather.Len()/den)
				diffRun(t, fmt.Sprintf("prefix 1/%d", den), ref, got)
			}
		})
	}
}

// diffOnsets compares decay-onset sets element-wise; float fields must match
// exactly — the pipeline is deterministic, so any drift is a real divergence.
func diffOnsets(want, got []core.DecayOnset) string {
	if len(want) != len(got) {
		return fmt.Sprintf("onset count differs: want %d, got %d", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			return fmt.Sprintf("onset %d differs:\n  want: %+v\n  got:  %+v", i, want[i], got[i])
		}
	}
	return ""
}

// TestDatasetConcurrentReaders hammers one shared Dataset from many
// goroutines mixing every read-path accessor the analyses use. The dataset is
// immutable after Build, so this must be race-free — the test exists to keep
// it that way under `go test -race`.
func TestDatasetConcurrentReaders(t *testing.T) {
	weather, err := spaceweather.Generate(spaceweather.Paper2020to2024())
	if err != nil {
		t.Fatal(err)
	}
	run := runPipeline(t, weather, 42, 0)
	d := run.dataset
	events, err := d.EventsAbovePercentile(95, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no events to associate")
	}

	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				switch (g + i) % 4 {
				case 0:
					if got := d.Events(-50, 1, 0); len(got) == 0 {
						t.Error("Events returned nothing")
					}
				case 1:
					ev := events[(g+i)%len(events)]
					if _, err := d.Window(context.Background(), ev.Epoch(), core.WindowOptions{Days: 30}); err != nil {
						t.Errorf("Window: %v", err)
					}
				case 2:
					// Associate itself fans out on the worker pool, so this
					// also exercises nested pool use under contention.
					d.Associate(context.Background(), events, 30)
				case 3:
					if _, err := d.RawAltitudeCDF(); err != nil {
						t.Errorf("RawAltitudeCDF: %v", err)
					}
					if _, err := d.CleanAltitudeCDF(); err != nil {
						t.Errorf("CleanAltitudeCDF: %v", err)
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
