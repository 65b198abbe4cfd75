// Package artifact persists the pipeline's three expensive intermediates —
// the generated Dst weather series, the simulated constellation archive, and
// the built core.Dataset — as deterministic, versioned, CRC-guarded binary
// snapshots, and caches them on disk keyed by a canonical fingerprint of the
// inputs that produced them.
//
// Every entry point used to re-run spaceweather.Generate → constellation.Run
// → core.Builder from scratch on every invocation, even though the inputs
// are fully deterministic (config, seed) pairs. With the cache, a warm run
// of cmd/figures or the benchmark fixtures skips straight to analysis.
//
// The guarantees, in order of importance:
//
//  1. A cache hit is bit-identical to a cold build. The codec stores every
//     float as its IEEE-754 bit pattern (no text round-trip, no narrowing),
//     and the determinism suite proves warm == cold byte-for-byte.
//  2. A bad artifact is never served. Sections are length-prefixed and
//     CRC-guarded; any truncation, corruption, version skew or foreign file
//     fails decoding closed, and the cache treats it as a miss and rebuilds.
//  3. A fingerprint names the inputs, not the machine. Fingerprints cover
//     the schema version, the full generation/simulation/cleaning config and
//     the seed, field by field in a fixed order — and deliberately exclude
//     the Parallelism knobs, because the pipeline's output is bit-identical
//     at every worker count.
//
// Snapshot layout: a fixed header (magic, container version, kind, schema
// version) followed by length-prefixed sections in a fixed per-kind order,
// each protected by a CRC32, closed by a trailer magic. Bulk data (samples,
// track points, hourly readings) is columnar: one section per field, which
// keeps encoding a straight memcpy-style loop per column.
package artifact

import (
	"errors"
	"fmt"
)

// SchemaVersion is the snapshot schema generation. Bump it whenever the
// snapshot layout changes or the meaning of any fingerprinted input shifts
// (e.g. an RNG redesign): the version participates in every fingerprint, so
// a bump invalidates every existing cache entry at once.
// Version history: 2 canonicalized the dataset's raw-altitude order (sorted
// by IEEE total order instead of ingest order) so chunked and monolithic
// builds share one byte representation, and introduced KindSegment. 3 made
// KindDataset the weather sections plus one KindSegment body (chunk index 0)
// and dropped its stored cleaned-altitude column. 4 dropped the storm
// trigger position from KindIncremental's meta record: the live engine
// replays its Dst stream on restore, so the record holds only the weather
// start, the funnel counters and the stream cursors.
const SchemaVersion = 4

// Kind identifies which intermediate a snapshot holds.
type Kind uint16

// The snapshot kinds.
const (
	// KindWeather is a generated hourly Dst series (dst.Index).
	KindWeather Kind = 1
	// KindArchive is a simulated constellation run (constellation.Result).
	KindArchive Kind = 2
	// KindDataset is a built, cleaned dataset (core.Dataset): its weather
	// series, so the snapshot is self-contained, then the whole dataset as
	// one segment body.
	KindDataset Kind = 3
	// KindSegment is one chunk's share of a dataset build (core.ChunkPartial)
	// — the stored unit of the chunked streaming pipeline.
	KindSegment Kind = 4
	// KindIncremental is a live incremental engine's resumable state
	// (incremental.EngineState): the raw ingest streams plus stream cursors,
	// with all derived analysis re-derived on restore.
	KindIncremental Kind = 5
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindWeather:
		return "weather"
	case KindArchive:
		return "archive"
	case KindDataset:
		return "dataset"
	case KindSegment:
		return "segment"
	case KindIncremental:
		return "incremental"
	default:
		return fmt.Sprintf("Kind(%d)", uint16(k))
	}
}

// ErrCorrupt is wrapped by every decode failure caused by a damaged or
// foreign snapshot (bad magic, CRC mismatch, truncation, impossible counts).
var ErrCorrupt = errors.New("artifact: corrupt snapshot")

// ErrVersionSkew is wrapped by decode failures caused by a snapshot written
// under a different container or schema version. Version skew is not an
// error condition for the cache — it is a miss, and the artifact is rebuilt
// under the current schema.
var ErrVersionSkew = errors.New("artifact: snapshot version skew")
