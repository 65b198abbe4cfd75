package artifact

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"cosmicdance/internal/constellation"
	"cosmicdance/internal/core"
	"cosmicdance/internal/dst"
)

// DefaultDir returns the default on-disk cache location:
// $COSMICDANCE_CACHE_DIR if set, else <user cache dir>/cosmicdance, else
// .cosmicdance-cache in the working directory.
func DefaultDir() string {
	if dir := os.Getenv("COSMICDANCE_CACHE_DIR"); dir != "" {
		return dir
	}
	if base, err := os.UserCacheDir(); err == nil {
		return filepath.Join(base, "cosmicdance")
	}
	return ".cosmicdance-cache"
}

// Cache is a content-addressed artifact store: one file per (kind,
// fingerprint), named <kind>-<fingerprint>.cda. Loads fail closed — any
// decode error (corruption, truncation, version skew) is reported as a miss
// and the damaged file is removed so the next store can rewrite it. Stores
// are atomic (temp file + rename), so a crashed writer never leaves a
// half-written entry that a later run could trust.
type Cache struct {
	dir string
}

// Open returns a cache rooted at dir, creating it if needed.
func Open(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("artifact: create cache dir: %w", err)
	}
	return &Cache{dir: dir}, nil
}

// Dir returns the cache root.
func (c *Cache) Dir() string { return c.dir }

// Path returns the file path an entry would live at.
func (c *Cache) Path(kind Kind, fp Fingerprint) string {
	return filepath.Join(c.dir, fmt.Sprintf("%s-%s.cda", kind, fp))
}

// load opens the entry and hands the stream to decode. A missing file, a
// decode failure, or trailing garbage all report a miss; damaged entries are
// deleted on the way out.
func (c *Cache) load(kind Kind, fp Fingerprint, decode func(io.Reader) error) bool {
	path := c.Path(kind, fp)
	f, err := os.Open(path)
	if err != nil {
		countKind(metricMisses, kind)
		return false
	}
	st, err := f.Stat()
	if err != nil {
		_ = f.Close()
		countKind(metricMisses, kind)
		return false
	}
	// The decoder's read buffer is the only buffered layer: it reads the
	// file through the counter in runs of its own size.
	cr := &countingReader{r: f, size: st.Size()}
	err = decode(cr)
	_ = f.Close()
	metricBytesRead.Add(cr.n)
	if err != nil {
		// Never serve a damaged entry twice: drop it so the next store
		// rewrites it cleanly.
		_ = os.Remove(path)
		countKind(metricEvictions, kind)
		countKind(metricMisses, kind)
		return false
	}
	countKind(metricHits, kind)
	return true
}

// store writes the entry atomically. Errors are returned, not swallowed: a
// failed store is a real condition (disk full, permissions) the caller may
// want to surface, even though the pipeline still has the artifact in hand.
func (c *Cache) store(kind Kind, fp Fingerprint, encode func(io.Writer) error) (err error) {
	defer func() {
		if err != nil {
			metricStoreFails.Inc()
		}
	}()
	tmp, err := os.CreateTemp(c.dir, "tmp-*.cda")
	if err != nil {
		return fmt.Errorf("artifact: stage cache entry: %w", err)
	}
	defer func() { _ = os.Remove(tmp.Name()) }()
	cw := &countingWriter{w: tmp}
	bw := bufio.NewWriterSize(cw, 1<<20)
	if err := encode(bw); err != nil {
		_ = tmp.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		_ = tmp.Close()
		return fmt.Errorf("artifact: write cache entry: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("artifact: close cache entry: %w", err)
	}
	if err := os.Rename(tmp.Name(), c.Path(kind, fp)); err != nil {
		return fmt.Errorf("artifact: publish cache entry: %w", err)
	}
	metricBytesWritten.Add(cw.n)
	return nil
}

// LoadWeather returns the cached weather series for fp, or (nil, false) on a
// miss.
func (c *Cache) LoadWeather(fp Fingerprint) (*dst.Index, bool) {
	var out *dst.Index
	ok := c.load(KindWeather, fp, func(r io.Reader) error {
		var err error
		out, err = DecodeWeather(r)
		return err
	})
	return out, ok
}

// StoreWeather writes a weather series under fp.
func (c *Cache) StoreWeather(fp Fingerprint, x *dst.Index) error {
	return c.store(KindWeather, fp, func(w io.Writer) error { return EncodeWeather(w, x) })
}

// LoadArchive returns the cached constellation run for fp, or (nil, false)
// on a miss.
func (c *Cache) LoadArchive(fp Fingerprint) (*constellation.Result, bool) {
	var out *constellation.Result
	ok := c.load(KindArchive, fp, func(r io.Reader) error {
		var err error
		out, err = DecodeArchive(r)
		return err
	})
	return out, ok
}

// StoreArchive writes a constellation run under fp.
func (c *Cache) StoreArchive(fp Fingerprint, res *constellation.Result) error {
	return c.store(KindArchive, fp, func(w io.Writer) error { return EncodeArchive(w, res) })
}

// LoadDataset returns the cached dataset for fp reassembled under cfg, or
// (nil, false) on a miss.
func (c *Cache) LoadDataset(fp Fingerprint, cfg core.Config) (*core.Dataset, bool) {
	var out *core.Dataset
	ok := c.load(KindDataset, fp, func(r io.Reader) error {
		var err error
		out, err = DecodeDataset(r, cfg)
		return err
	})
	return out, ok
}

// StoreDataset writes a built dataset under fp.
func (c *Cache) StoreDataset(fp Fingerprint, d *core.Dataset) error {
	return c.store(KindDataset, fp, func(w io.Writer) error { return EncodeDataset(w, d) })
}
