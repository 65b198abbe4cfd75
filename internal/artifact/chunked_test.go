package artifact

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"cosmicdance/internal/core"
)

// chunkedRef builds the monolithic reference dataset the chunked paths must
// reproduce byte for byte.
func chunkedRef(t *testing.T) []byte {
	t.Helper()
	w := testWeather(t)
	res := testArchive(t, w)
	return encodeDatasetBytes(t, testDataset(t, w, res))
}

// TestChunkedDatasetEquivalence is the store × chunk-size × width matrix:
// every combination must produce a dataset byte-identical to the monolithic
// Build over the same configs.
func TestChunkedDatasetEquivalence(t *testing.T) {
	wcfg, ccfg := testWeatherCfg(), core.DefaultConfig()
	ref := chunkedRef(t)

	stores := map[string]func(t *testing.T) *Pipeline{
		"memory": func(t *testing.T) *Pipeline { return NewPipeline(nil) },
		"cache": func(t *testing.T) *Pipeline {
			cache, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return NewPipeline(cache)
		},
	}
	for name, mk := range stores {
		t.Run(name, func(t *testing.T) {
			for _, chunkSize := range []int{1, 3, 5, 64} {
				for _, width := range []int{1, 4} {
					pipe := mk(t)
					pipe.Log = failLogger(t)
					fcfg := testFleetCfg()
					fcfg.Parallelism = width
					d, err := pipe.ChunkedDataset(context.Background(), wcfg, fcfg, ccfg, chunkSize)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(encodeDatasetBytes(t, d), ref) {
						t.Fatalf("chunk=%d width=%d %s: chunked dataset differs from monolithic build", chunkSize, width, name)
					}
				}
			}
		})
	}
}

// TestEachSegmentOrdered proves the consume side sees chunks in order with
// globally ascending catalogs — the property the assembler's merge relies on.
func TestEachSegmentOrdered(t *testing.T) {
	pipe := NewPipeline(nil)
	pipe.Log = failLogger(t)
	fcfg := testFleetCfg()
	fcfg.Parallelism = 4
	next, lastCat := 0, -1
	err := pipe.EachSegment(context.Background(), testWeatherCfg(), fcfg, core.DefaultConfig(),
		2, func(chunk int, p *core.ChunkPartial) error {
			if chunk != next {
				t.Fatalf("chunk %d delivered, want %d", chunk, next)
			}
			next++
			for _, tr := range p.Tracks {
				if tr.Catalog <= lastCat {
					t.Fatalf("catalog %d after %d", tr.Catalog, lastCat)
				}
				lastCat = tr.Catalog
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if next == 0 {
		t.Fatal("no chunks delivered")
	}
}

// TestChunkedIncrementalResume proves segment-level caching: a cold run
// misses (and builds) every segment, a second run over the warm cache hits
// every segment and builds none, and a run missing exactly one segment
// misses and rebuilds exactly one.
func TestChunkedIncrementalResume(t *testing.T) {
	cache, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	wcfg, ccfg := testWeatherCfg(), core.DefaultConfig()
	fcfg := testFleetCfg()
	const chunkSize = 3

	// run builds the dataset and reports the segments it built, hit and
	// missed.
	run := func() (out []byte, built, hits, misses int64) {
		b0, h0, m0 := metricSegmentBuilds.Value(), metricHits[KindSegment].Value(), metricMisses[KindSegment].Value()
		pipe := NewPipeline(cache)
		pipe.Log = failLogger(t)
		d, err := pipe.ChunkedDataset(context.Background(), wcfg, fcfg, ccfg, chunkSize)
		if err != nil {
			t.Fatal(err)
		}
		return encodeDatasetBytes(t, d), metricSegmentBuilds.Value() - b0,
			metricHits[KindSegment].Value() - h0, metricMisses[KindSegment].Value() - m0
	}

	cold, n, hits, misses := run()
	if n == 0 {
		t.Fatal("cold run built no segments")
	}
	if hits != 0 || misses != n {
		t.Fatalf("cold run: %d hits, %d misses, want 0 and %d", hits, misses, n)
	}
	segs, err := filepath.Glob(filepath.Join(cache.Dir(), "segment-*.cda"))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(segs)) != n {
		t.Fatalf("%d segment files for %d builds", len(segs), n)
	}

	// Warm: every segment is a cache hit, nothing rebuilds.
	warm, built, hits, misses := run()
	if built != 0 || hits != n || misses != 0 {
		t.Fatalf("warm run: %d built, %d hits, %d misses, want 0, %d, 0", built, hits, misses, n)
	}
	if !bytes.Equal(warm, cold) {
		t.Fatal("warm chunked dataset differs from cold")
	}

	// Drop one segment: exactly one miss and one rebuild, same bytes.
	if err := os.Remove(segs[len(segs)/2]); err != nil {
		t.Fatal(err)
	}
	resumed, built, hits, misses := run()
	if built != 1 || hits != n-1 || misses != 1 {
		t.Fatalf("resume: %d built, %d hits, %d misses, want 1, %d, 1", built, hits, misses, n-1)
	}
	if !bytes.Equal(resumed, cold) {
		t.Fatal("resumed chunked dataset differs from cold")
	}

	// A config change re-keys every segment: full rebuild, no stale reuse.
	fcfg.Seed++
	if _, built, hits, _ := run(); built != n || hits != 0 {
		t.Fatalf("re-seeded run: %d built, %d hits, want %d and 0", built, hits, n)
	}
}

// TestChunkedDamagedSegmentRebuilds corrupts cached segment files; the next
// run must detect the damage, rebuild inline, and still produce identical
// bytes — corruption costs time, never correctness.
func TestChunkedDamagedSegmentRebuilds(t *testing.T) {
	cache, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	wcfg, fcfg, ccfg := testWeatherCfg(), testFleetCfg(), core.DefaultConfig()
	const chunkSize = 3

	pipe := NewPipeline(cache)
	pipe.Log = failLogger(t)
	cold, err := pipe.ChunkedDataset(context.Background(), wcfg, fcfg, ccfg, chunkSize)
	if err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(cache.Dir(), "segment-*.cda"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segment files (err=%v)", err)
	}
	// Damage one in the middle and truncate another to zero bytes.
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segs[len(segs)-1], nil, 0o644); err != nil {
		t.Fatal(err)
	}

	pipe = NewPipeline(cache)
	pipe.Log = failLogger(t)
	healed, err := pipe.ChunkedDataset(context.Background(), wcfg, fcfg, ccfg, chunkSize)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeDatasetBytes(t, healed), encodeDatasetBytes(t, cold)) {
		t.Fatal("dataset built over damaged segments differs")
	}
	// The damaged entries were rewritten clean: a third run is all hits.
	before := metricSegmentBuilds.Value()
	pipe = NewPipeline(cache)
	pipe.Log = failLogger(t)
	if _, err := pipe.ChunkedDataset(context.Background(), wcfg, fcfg, ccfg, chunkSize); err != nil {
		t.Fatal(err)
	}
	if n := metricSegmentBuilds.Value() - before; n != 0 {
		t.Fatalf("run after healing rebuilt %d segments", n)
	}
}

// TestChunkedCancelStopsCleanly cancels a chunked run mid-stream and checks
// the error and that no worker goroutines leak.
func TestChunkedCancelStopsCleanly(t *testing.T) {
	before := runtime.NumGoroutine()

	pipe := NewPipeline(nil)
	fcfg := testFleetCfg()
	fcfg.Parallelism = 4
	ctx, cancel := context.WithCancel(context.Background())
	delivered := 0
	err := pipe.EachSegment(ctx, testWeatherCfg(), fcfg, core.DefaultConfig(),
		1, func(chunk int, _ *core.ChunkPartial) error {
			delivered++
			if delivered == 2 {
				cancel()
			}
			return nil
		})
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, n)
	}
}
