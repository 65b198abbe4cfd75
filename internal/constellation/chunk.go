package constellation

import (
	"context"
	"fmt"
	"time"

	"cosmicdance/internal/dst"
)

// Chunked execution slices a fleet into fixed-size satellite chunks and
// simulates each chunk independently, so a 100k-satellite run never has to
// hold the whole fleet (or its archive) in memory at once. A chunk is Run
// restricted to a contiguous catalog window: the same hourly driver walks
// the same creation schedule but creates only the window's satellites. The
// partition is sound because every satellite draws from its own splitmix64
// child stream keyed by catalog number, stepSat touches only its own
// satellite, and the archive's sample order within an hour is creation
// order — so splicing chunk archives back hour by hour in chunk order
// reproduces Run's output byte for byte. The streaming dataset build in
// internal/artifact consumes chunks one at a time without ever merging the
// archives.

// ChunkPlan is a fleet's creation schedule partitioned into fixed-size
// catalog windows. Plans are immutable after construction; RunChunk may be
// called for different chunks concurrently.
type ChunkPlan struct {
	*schedule
	chunkSize int
}

// PlanChunks validates cfg and partitions the satellites its run creates
// into chunks of chunkSize (the last chunk may be short).
func PlanChunks(cfg Config, chunkSize int) (*ChunkPlan, error) {
	sc, err := newSchedule(cfg)
	if err != nil {
		return nil, err
	}
	if chunkSize <= 0 {
		return nil, fmt.Errorf("constellation: chunk size must be positive, got %d", chunkSize)
	}
	return &ChunkPlan{schedule: sc, chunkSize: chunkSize}, nil
}

// TotalSats returns the number of satellites the run will ever create.
func (p *ChunkPlan) TotalSats() int { return p.total }

// NumChunks returns the number of chunks the fleet partitions into.
func (p *ChunkPlan) NumChunks() int {
	return (p.total + p.chunkSize - 1) / p.chunkSize
}

// ChunkBounds returns the half-open creation-order range [lo, hi) chunk i
// covers: catalogs [firstCat+lo, firstCat+hi).
func (p *ChunkPlan) ChunkBounds(i int) (lo, hi int) {
	lo = i * p.chunkSize
	hi = min(lo+p.chunkSize, p.total)
	return lo, hi
}

// Start returns the run's hour-truncated UTC start time.
func (p *ChunkPlan) Start() time.Time { return p.start }

// RunChunk simulates chunk i alone and returns its slice of the archive:
// the satellites with catalogs [firstCat+lo, firstCat+hi) and exactly the
// samples they emit in the full run, in the full run's relative order.
// Safe to call concurrently for distinct chunks.
func (p *ChunkPlan) RunChunk(ctx context.Context, chunk int, weather *dst.Index) (*Result, error) {
	if chunk < 0 || chunk >= p.NumChunks() {
		return nil, fmt.Errorf("constellation: chunk %d out of range [0, %d)", chunk, p.NumChunks())
	}
	lo, hi := p.ChunkBounds(chunk)
	// Parallelism lives at the chunk level: a chunk steps on one worker.
	return p.simulate(ctx, weather, lo, hi, 1)
}
