package artifact

import (
	"bytes"
	"context"
	"io"
	"os"

	"cosmicdance/internal/constellation"
	"cosmicdance/internal/core"
	"cosmicdance/internal/obs"
	"cosmicdance/internal/parallel"
	"cosmicdance/internal/spaceweather"
)

// The chunked pipeline streams a fleet through the dataset build one
// satellite chunk at a time: simulate chunk → clean into a partial → encode
// as a segment → decode in catalog order. Peak memory is O(chunk × workers)
// above the final product, not O(fleet), which is what lets a
// 100k-satellite run fit the same box as a 6k one. With a disk cache the
// segments double as incremental cache entries: a rerun skips straight past
// every chunk whose segment is already present, and an input change re-keys
// (and therefore rebuilds) every segment at once.

// metricSegmentBuilds counts segments actually built (cache hits excluded) —
// the observable that proves incremental resume in tests and traces.
var metricSegmentBuilds = obs.Default().Counter("artifact_segment_builds_total")

// DefaultChunkSize is the satellites-per-chunk default for chunked runs:
// large enough to amortize per-chunk overhead, small enough that a chunk's
// archive and partial stay a few megabytes.
const DefaultChunkSize = 4096

// EachSegment runs the chunked streaming pipeline and hands every chunk's
// partial to consume in chunk (catalog) order. chunkSize is the
// satellites-per-chunk partition (DefaultChunkSize when ≤ 0). Producers fan
// out across fleetCfg.Parallelism workers; each returns its chunk's encoded
// segment — read from the cache on a hit, otherwise simulated, cleaned,
// encoded and (with a cache) stored — and the consumer decodes it. The
// encoded bytes are the hand-off, so the segment codec is exercised on every
// chunk of every run, and the cache turns completed chunks into resume
// points. A damaged cache entry is evicted and rebuilt inline, and a failed
// store is only a warning: corruption can cost time, never correctness.
//
// The output stream is invariant under chunkSize, Parallelism, and the
// cache — the chunk-equivalence suites prove all three.
func (p *Pipeline) EachSegment(ctx context.Context, weatherCfg spaceweather.Config, fleetCfg constellation.Config, coreCfg core.Config, chunkSize int, consume func(chunk int, part *core.ChunkPartial) error) error {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	weather, err := p.Weather(ctx, weatherCfg)
	if err != nil {
		return err
	}
	plan, err := constellation.PlanChunks(fleetCfg, chunkSize)
	if err != nil {
		return err
	}
	n := plan.NumChunks()

	var fps []Fingerprint
	if p.cache != nil {
		datasetFP := FingerprintDataset(FingerprintFleet(FingerprintWeather(weatherCfg), fleetCfg), coreCfg)
		fps = make([]Fingerprint, n)
		for i := range fps {
			lo, hi := plan.ChunkBounds(i)
			fps[i] = FingerprintSegment(datasetFP, i, lo, hi)
		}
	}

	// Each chunk is cleaned sequentially; the parallelism budget is spent
	// across chunks by the stream's worker pool.
	chunkCfg := coreCfg
	chunkCfg.Parallelism = 1

	// build simulates, cleans and encodes chunk i, storing the segment when
	// there is a cache. A failed store is a warning, not a failure: the
	// bytes are in hand, and the next run rebuilds the chunk.
	build := func(i int) ([]byte, error) {
		res, err := plan.RunChunk(ctx, i, weather)
		if err != nil {
			return nil, err
		}
		part, err := core.BuildChunkPartial(ctx, chunkCfg, res.Samples)
		if err != nil {
			return nil, err
		}
		metricSegmentBuilds.Inc()
		var buf bytes.Buffer
		if err := EncodeSegment(&buf, i, part); err != nil {
			return nil, err
		}
		if p.cache != nil {
			p.warn(p.cache.store(KindSegment, fps[i], func(w io.Writer) error {
				_, err := w.Write(buf.Bytes())
				return err
			}))
		}
		return buf.Bytes(), nil
	}

	// The producer decides hit or miss: a segment read from the cache is a
	// hit, one it has to build is a miss.
	produce := func(i int) ([]byte, error) {
		if p.cache != nil {
			if blob, err := os.ReadFile(p.cache.Path(KindSegment, fps[i])); err == nil {
				metricBytesRead.Add(int64(len(blob)))
				countKind(metricHits, KindSegment)
				return blob, nil
			}
			countKind(metricMisses, KindSegment)
		}
		return build(i)
	}

	consumeSeg := func(i int, blob []byte) error {
		chunk, part, err := DecodeSegment(bytes.NewReader(blob))
		if err != nil || chunk != i {
			// A damaged or mislabeled cache entry: never serve it again, and
			// rebuild inline. The rebuilt bytes still go through the codec so
			// every consumed partial took the same decode path.
			if p.cache != nil {
				_ = os.Remove(p.cache.Path(KindSegment, fps[i]))
				countKind(metricEvictions, KindSegment)
			}
			if blob, err = build(i); err != nil {
				return err
			}
			if _, part, err = DecodeSegment(bytes.NewReader(blob)); err != nil {
				return err
			}
		}
		return consume(i, part)
	}

	return parallel.Stream(ctx, fleetCfg.Parallelism, n, produce, consumeSeg)
}

// ChunkedDataset materializes a full dataset through the chunked streaming
// path: EachSegment feeding a PartialAssembler. The result is byte-identical
// to Dataset over the same configs — the monolithic and chunked paths share
// the cleaning core, and the equivalence suites diff their encoded bytes.
//
// There is deliberately no dataset-level memoization or cache store here:
// the chunked path's unit of caching and invalidation is the segment, so a
// rerun resumes chunk by chunk instead of all-or-nothing. Callers that want
// the final dataset cached use Dataset for mid-scale fleets.
func (p *Pipeline) ChunkedDataset(ctx context.Context, weatherCfg spaceweather.Config, fleetCfg constellation.Config, coreCfg core.Config, chunkSize int) (*core.Dataset, error) {
	weather, err := p.Weather(ctx, weatherCfg)
	if err != nil {
		return nil, err
	}
	asm := core.NewPartialAssembler(coreCfg, weather)
	err = p.EachSegment(ctx, weatherCfg, fleetCfg, coreCfg, chunkSize, func(_ int, part *core.ChunkPartial) error {
		return asm.Add(part)
	})
	if err != nil {
		return nil, err
	}
	return asm.Finish()
}
