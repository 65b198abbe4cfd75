package artifact

import (
	"io"

	"cosmicdance/internal/obs"
)

// Cache telemetry: per-kind hit/miss/evict counters plus byte and
// fingerprint totals. All writes are atomic counter increments on coarse
// events (one per cache operation), so the cache's hot path — the decode
// itself — is untouched.
var (
	metricHits         = newKindCounters("artifact_cache_hits_total")
	metricMisses       = newKindCounters("artifact_cache_misses_total")
	metricEvictions    = newKindCounters("artifact_cache_corrupt_evictions_total")
	metricOtherKinds   = obs.Default().Counter("artifact_cache_other_total")
	metricStoreFails   = obs.Default().Counter("artifact_cache_store_failures_total")
	metricBytesRead    = obs.Default().Counter("artifact_cache_read_bytes_total")
	metricBytesWritten = obs.Default().Counter("artifact_cache_written_bytes_total")
	metricFingerprints = obs.Default().Counter("artifact_fingerprints_total")
)

// newKindCounters registers one counter per snapshot kind.
func newKindCounters(name string) map[Kind]*obs.Counter {
	m := make(map[Kind]*obs.Counter, 4)
	for _, k := range []Kind{KindWeather, KindArchive, KindDataset, KindSegment} {
		m[k] = obs.Default().Counter(name, "kind", k.String())
	}
	return m
}

// countKind increments the per-kind counter. A kind outside the built-in
// set folds into the pre-registered catch-all — registration happens only
// at package init, never on a cache operation.
func countKind(m map[Kind]*obs.Counter, k Kind) {
	if c, ok := m[k]; ok {
		c.Inc()
		return
	}
	metricOtherKinds.Inc()
}

// countingReader counts bytes pulled through it from a source of size
// bytes.
type countingReader struct {
	r    io.Reader
	n    int64
	size int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// Len returns the bytes not yet read, which bounds the section lengths the
// snapshot decoder accepts.
func (c *countingReader) Len() int { return int(c.size - c.n) }

// countingWriter counts bytes pushed through it.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
