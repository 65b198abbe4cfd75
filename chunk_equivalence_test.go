package cosmicdance_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"cosmicdance/internal/artifact"
	"cosmicdance/internal/constellation"
	"cosmicdance/internal/core"
	"cosmicdance/internal/scale"
	"cosmicdance/internal/spaceweather"
	"cosmicdance/internal/testkit"
)

// chunkMatrixRun holds one chunked execution's full analysis output plus the
// dataset's canonical encoding, so the matrix can assert byte identity on
// top of structural identity.
type chunkMatrixRun struct {
	pipelineRun
	encoded []byte
}

func encodeDataset(t testing.TB, d *core.Dataset) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := artifact.EncodeDataset(&buf, d); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func analyzeDataset(t testing.TB, d *core.Dataset) pipelineRun {
	t.Helper()
	events, err := d.EventsAbovePercentile(95, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	return pipelineRun{dataset: d, devs: d.Associate(context.Background(), events, 30), onsets: d.DecayOnsets(5)}
}

// TestChunkEquivalenceMatrix is the scale-out proof: a mega-constellation
// fleet streamed through the chunked pipeline produces a dataset,
// deviation list, and decay-onset set byte-identical to the monolithic
// materialize-everything path — at every (chunk size × worker width × seed)
// combination, without a cache and through a fresh cache, cold and then
// warm.
func TestChunkEquivalenceMatrix(t *testing.T) {
	for _, seed := range []int64{7, 42} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			spec := scale.Spec{Sats: 5000, Days: 4, Seed: seed}
			wcfg, ccfg := scale.WeatherConfig(spec), scale.CoreConfig()

			// The unchunked seed path: simulate the whole fleet at once and
			// build the dataset monolithically.
			weather, err := spaceweather.Generate(wcfg)
			if err != nil {
				t.Fatal(err)
			}
			refFleet := scale.FleetConfig(spec)
			refFleet.Parallelism = 1
			res, err := constellation.Run(context.Background(), refFleet, weather)
			if err != nil {
				t.Fatal(err)
			}
			b := core.NewBuilder(ccfg, weather)
			b.AddSamples(res.Samples)
			refDataset, err := b.Build(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			ref := chunkMatrixRun{analyzeDataset(t, refDataset), encodeDataset(t, refDataset)}
			if len(ref.dataset.Tracks()) == 0 {
				t.Fatal("unchunked reference produced no tracks")
			}

			for _, chunkSize := range []int{1024, 4096, 16384} {
				for wi, width := range []int{1, 4, 8} {
					pipe := artifact.NewPipeline(nil)
					passes := []string{"no cache"}
					if wi%2 == 1 {
						// Every other width runs twice through a fresh cache:
						// the cold pass decodes the segments it has just built,
						// and only the warm pass reads them back from disk.
						cache, err := artifact.Open(t.TempDir())
						if err != nil {
							t.Fatal(err)
						}
						pipe = artifact.NewPipeline(cache)
						passes = []string{"cold cache", "warm cache"}
					}
					fcfg := scale.FleetConfig(spec)
					fcfg.Parallelism = width
					for _, pass := range passes {
						name := fmt.Sprintf("chunk=%d width=%d %s", chunkSize, width, pass)
						d, err := pipe.ChunkedDataset(context.Background(), wcfg, fcfg, ccfg, chunkSize)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						got := chunkMatrixRun{analyzeDataset(t, d), encodeDataset(t, d)}
						if msg := testkit.DiffDatasets(ref.dataset, got.dataset); msg != "" {
							t.Errorf("%s: dataset diverged: %s", name, msg)
						}
						if msg := testkit.DiffDeviations(ref.devs, got.devs); msg != "" {
							t.Errorf("%s: deviations diverged: %s", name, msg)
						}
						if msg := diffOnsets(ref.onsets, got.onsets); msg != "" {
							t.Errorf("%s: decay onsets diverged: %s", name, msg)
						}
						if !bytes.Equal(ref.encoded, got.encoded) {
							t.Errorf("%s: encoded dataset is not byte-identical to the unchunked build", name)
						}
					}
				}
			}
		})
	}
}
