package artifact

import (
	"bytes"
	"context"
	"io"
	"os"
	"sync"

	"cosmicdance/internal/constellation"
	"cosmicdance/internal/core"
	"cosmicdance/internal/obs"
	"cosmicdance/internal/parallel"
	"cosmicdance/internal/spaceweather"
)

// The chunked pipeline streams a fleet through the dataset build one
// satellite chunk at a time: simulate chunk → clean into a partial → encode
// as a segment → store → merge-read in catalog order. Peak memory is
// O(chunk × workers) above the final product, not O(fleet), which is what
// lets a 100k-satellite run fit the same box as a 6k one. Without a disk
// cache the segments wait in memory for the consumer; with one they are
// written to the cache and double as incremental cache entries: a rerun
// skips straight past every chunk whose segment is already present, and an
// input change re-keys (and therefore rebuilds) every segment at once.

// metricSegmentBuilds counts segments actually built (cache hits excluded) —
// the observable that proves incremental resume in tests and traces.
var metricSegmentBuilds = obs.Default().Counter("artifact_segment_builds_total")

// DefaultChunkSize is the satellites-per-chunk default for chunked runs:
// large enough to amortize per-chunk overhead, small enough that a chunk's
// archive and partial stay a few megabytes.
const DefaultChunkSize = 4096

// segmentStore is where encoded segments live between the produce and
// consume ends of the stream. Implementations must support concurrent put
// (workers) against get/evict/done (the consumer); distinct indices never
// alias.
type segmentStore interface {
	// has reports whether index i is already present (an incremental-resume
	// hit). Stores that cannot trust prior contents return false.
	has(i int) bool
	// put stores index i's encoded segment.
	put(i int, blob []byte) error
	// get returns index i's encoded segment, if present.
	get(i int) ([]byte, bool)
	// evict drops a damaged entry so it cannot be served again.
	evict(i int)
	// done releases index i after successful consumption (the memory store
	// frees the bytes; the cache keeps them for the next run).
	done(i int)
}

// cacheStore keeps segments as fingerprint-keyed entries in the disk cache —
// the persistent store that makes chunked runs incrementally resumable.
type cacheStore struct {
	cache *Cache
	fps   []Fingerprint
}

func (s *cacheStore) path(i int) string { return s.cache.Path(KindSegment, s.fps[i]) }

func (s *cacheStore) has(i int) bool {
	_, err := os.Stat(s.path(i))
	return err == nil
}

func (s *cacheStore) put(i int, blob []byte) error {
	return s.cache.store(KindSegment, s.fps[i], func(w io.Writer) error {
		_, err := w.Write(blob)
		return err
	})
}

func (s *cacheStore) get(i int) ([]byte, bool) {
	blob, err := os.ReadFile(s.path(i))
	if err != nil {
		countKind(metricMisses, KindSegment)
		return nil, false
	}
	metricBytesRead.Add(int64(len(blob)))
	countKind(metricHits, KindSegment)
	return blob, true
}

func (s *cacheStore) evict(i int) {
	_ = os.Remove(s.path(i))
	countKind(metricEvictions, KindSegment)
}

func (s *cacheStore) done(int) {}

// memStore holds in-flight segments in memory. The consumer trails the
// producers by at most the worker window and done frees each entry, so the
// store never holds more than O(workers) segments.
type memStore struct {
	mu    sync.Mutex
	blobs map[int][]byte
}

func newMemStore() *memStore { return &memStore{blobs: make(map[int][]byte)} }

func (s *memStore) has(int) bool { return false }

func (s *memStore) put(i int, blob []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.blobs[i] = blob
	return nil
}

func (s *memStore) get(i int) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	blob, ok := s.blobs[i]
	return blob, ok
}

func (s *memStore) evict(i int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.blobs, i)
}

func (s *memStore) done(i int) { s.evict(i) }

// EachSegment runs the chunked streaming pipeline and hands every chunk's
// partial to consume in chunk (catalog) order. chunkSize is the
// satellites-per-chunk partition (DefaultChunkSize when ≤ 0). Producers fan
// out across fleetCfg.Parallelism workers; each chunk is simulated, cleaned,
// encoded, and stored, then decoded back on the consuming side — the encoded
// bytes are the hand-off, so the segment codec is exercised on every chunk
// of every run, and the cache (when the pipeline has one) turns completed
// chunks into resume points. A damaged or unwritable segment degrades to an
// inline rebuild: corruption can cost time, never correctness.
//
// The output stream is invariant under chunkSize, Parallelism, and store
// (memory or cache) — the chunk-equivalence suites prove all three.
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

	var store segmentStore = newMemStore()
	if p.cache != nil {
		datasetFP := FingerprintDataset(FingerprintFleet(FingerprintWeather(weatherCfg), fleetCfg), coreCfg)
		fps := make([]Fingerprint, n)
		for i := range fps {
			lo, hi := plan.ChunkBounds(i)
			fps[i] = FingerprintSegment(datasetFP, i, lo, hi)
		}
		store = &cacheStore{cache: p.cache, fps: fps}
	}

	// Each chunk is cleaned sequentially; the parallelism budget is spent
	// across chunks by the stream's worker pool.
	chunkCfg := coreCfg
	chunkCfg.Parallelism = 1

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
		return buf.Bytes(), nil
	}

	produce := func(i int) (struct{}, error) {
		if store.has(i) {
			return struct{}{}, nil // incremental resume: segment already cached
		}
		blob, err := build(i)
		if err != nil {
			return struct{}{}, err
		}
		if err := store.put(i, blob); err != nil {
			// A failed store is a warning, not a failure: the consumer
			// rebuilds on miss.
			p.warn(err)
		}
		return struct{}{}, nil
	}

	consumeSeg := func(i int, _ struct{}) error {
		var part *core.ChunkPartial
		if blob, ok := store.get(i); ok {
			chunk, decoded, err := DecodeSegment(bytes.NewReader(blob))
			if err == nil && chunk == i {
				part = decoded
			} else {
				store.evict(i) // damaged or mislabeled: never serve it again
			}
		}
		if part == nil {
			// Miss (store failed) or damage (evicted above): rebuild inline.
			// The rebuilt bytes still round-trip through the codec so every
			// consumed partial took the same decode path.
			blob, err := build(i)
			if err != nil {
				return err
			}
			if _, part, err = DecodeSegment(bytes.NewReader(blob)); err != nil {
				return err
			}
			if err := store.put(i, blob); err != nil {
				p.warn(err)
			}
		}
		store.done(i)
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
