package spacetrack

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"cosmicdance/internal/tle"
)

// CachingFetcher wraps a Client with an on-disk, per-object TLE cache so
// repeated analyses fetch each epoch range only once — the "fetch historical
// information incrementally as and when needed" behaviour the paper describes
// for CosmicDance.
//
// Layout: <dir>/<catalog>.tle holds the cached element sets and
// <dir>/<catalog>.meta records the covered [from, to] window.
type CachingFetcher struct {
	client *Client
	dir    string
	// locks holds one *sync.Mutex per catalog, so calls for one catalog
	// never interleave their cache reads and writes while calls for
	// different catalogs fetch in parallel.
	locks sync.Map
}

// NewCachingFetcher creates the cache directory if needed.
func NewCachingFetcher(client *Client, dir string) (*CachingFetcher, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("spacetrack: cache dir: %w", err)
	}
	return &CachingFetcher{client: client, dir: dir}, nil
}

// History returns the element sets of catalog in [from, to], consulting the
// cache first and fetching only the uncovered suffix.
func (f *CachingFetcher) History(ctx context.Context, catalog int, from, to time.Time) ([]*tle.TLE, error) {
	mu, _ := f.locks.LoadOrStore(catalog, new(sync.Mutex))
	mu.(*sync.Mutex).Lock()
	defer mu.(*sync.Mutex).Unlock()

	cachedFrom, cachedTo, cached, err := f.load(catalog)
	if err != nil {
		return nil, err
	}

	switch {
	case cached == nil || from.Before(cachedFrom):
		// Cache useless for this request: fetch the full window and replace.
		sets, err := f.client.FetchHistory(ctx, catalog, from, to)
		if err != nil {
			return nil, err
		}
		if err := f.store(catalog, from, to, sets); err != nil {
			return nil, err
		}
		cached, cachedFrom, cachedTo = sets, from, to
	case to.After(cachedTo):
		// Incremental: fetch only the new suffix. The wire and the meta file
		// carry whole seconds while epochs are fractional, so the suffix
		// starts at cachedTo itself: a set in the second after cachedTo is
		// in neither the cache nor a fetch from cachedTo+1s. Sets already
		// cached (epoch <= cachedTo) are dropped.
		fresh, err := f.client.FetchHistory(ctx, catalog, cachedTo, to)
		if err != nil {
			return nil, err
		}
		for _, t := range fresh {
			if t.Epoch.After(cachedTo) {
				cached = append(cached, t)
			}
		}
		if err := f.store(catalog, cachedFrom, to, cached); err != nil {
			return nil, err
		}
		cachedTo = to
	}

	// Serve the requested window from the cache.
	out := cached[:0:0]
	for _, t := range cached {
		if !t.Epoch.Before(from) && !t.Epoch.After(to) {
			out = append(out, t)
		}
	}
	return out, nil
}

// load reads the cached window for one object. A missing cache returns nil
// sets and no error.
func (f *CachingFetcher) load(catalog int) (from, to time.Time, sets []*tle.TLE, err error) {
	meta, err := os.ReadFile(f.metaPath(catalog))
	if os.IsNotExist(err) {
		return time.Time{}, time.Time{}, nil, nil
	}
	if err != nil {
		return time.Time{}, time.Time{}, nil, err
	}
	parts := strings.Split(strings.TrimSpace(string(meta)), "\n")
	if len(parts) != 2 {
		// Corrupt metadata: treat as a cache miss.
		return time.Time{}, time.Time{}, nil, nil
	}
	from, err1 := time.Parse(time.RFC3339, parts[0])
	to, err2 := time.Parse(time.RFC3339, parts[1])
	if err1 != nil || err2 != nil {
		return time.Time{}, time.Time{}, nil, nil
	}
	file, err := os.Open(f.dataPath(catalog))
	if os.IsNotExist(err) {
		return time.Time{}, time.Time{}, nil, nil
	}
	if err != nil {
		return time.Time{}, time.Time{}, nil, err
	}
	defer file.Close()
	if sets, err = tle.ReadAll(file); err != nil {
		// An unreadable cache file (partial write, bit rot): serving what
		// still reads would permanently lose the other epochs, so self-heal
		// by treating it as a miss and refetching.
		return time.Time{}, time.Time{}, nil, nil
	}
	return from, to, sets, nil
}

// store atomically rewrites one object's cache.
func (f *CachingFetcher) store(catalog int, from, to time.Time, sets []*tle.TLE) error {
	tmp, err := os.CreateTemp(f.dir, "tmp-*.tle")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := tle.Write(tmp, sets); err != nil {
		_ = tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), f.dataPath(catalog)); err != nil {
		return err
	}
	meta := from.UTC().Format(time.RFC3339) + "\n" + to.UTC().Format(time.RFC3339) + "\n"
	return os.WriteFile(f.metaPath(catalog), []byte(meta), 0o644)
}

func (f *CachingFetcher) dataPath(catalog int) string {
	return filepath.Join(f.dir, fmt.Sprintf("%d.tle", catalog))
}

func (f *CachingFetcher) metaPath(catalog int) string {
	return filepath.Join(f.dir, fmt.Sprintf("%d.meta", catalog))
}
