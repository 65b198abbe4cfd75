package spacetrack

import (
	"context"
	"errors"
	"fmt"
	"time"

	"cosmicdance/internal/parallel"
	"cosmicdance/internal/tle"
)

// HistorySource is anything that can serve one object's history — the plain
// Client and the CachingFetcher both qualify.
type HistorySource interface {
	History(ctx context.Context, catalog int, from, to time.Time) ([]*tle.TLE, error)
}

// History lets the bare Client satisfy HistorySource.
func (c *Client) History(ctx context.Context, catalog int, from, to time.Time) ([]*tle.TLE, error) {
	return c.FetchHistory(ctx, catalog, from, to)
}

// CatalogError ties a fetch failure to the object it affected, so a bulk
// ingest can report exactly which satellites are missing and why instead of
// silently dropping them.
type CatalogError struct {
	Catalog int
	Err     error
}

// Error implements the error interface.
func (e *CatalogError) Error() string {
	return fmt.Sprintf("spacetrack: catalog %d: %v", e.Catalog, e.Err)
}

// Unwrap exposes the underlying fault (StatusError, RetryError, ...).
func (e *CatalogError) Unwrap() error { return e.Err }

// ErrNotAttempted marks catalogs whose fetch never started because the bulk
// run was aborted first.
var ErrNotAttempted = errors.New("spacetrack: fetch not attempted")

// BulkResult is one object's outcome in a bulk fetch.
type BulkResult struct {
	Catalog int
	Sets    []*tle.TLE
	// Err is nil on success and a *CatalogError otherwise — including
	// catalogs the run never reached, which carry ErrNotAttempted.
	Err error
}

// Failures extracts the per-catalog errors from a bulk result set.
func Failures(results []BulkResult) []*CatalogError {
	var out []*CatalogError
	for _, r := range results {
		var ce *CatalogError
		if errors.As(r.Err, &ce) {
			out = append(out, ce)
		}
	}
	return out
}

// FetchHistories pulls the histories of all catalogs concurrently with at
// most workers in flight (4 when workers ≤ 0) — the shape a real
// multi-thousand-satellite ingest needs against a rate-limited service (the
// client's retry handling composes with the bounded parallelism). Results
// are returned in the order of the input catalogs; the first context error
// aborts the remainder, as does a panicking source, which comes back as a
// *parallel.PanicError. Every input catalog gets a result: fetched sets, a
// typed *CatalogError, or both absent never — no satellite is silently
// dropped.
func FetchHistories(ctx context.Context, src HistorySource, catalogs []int, from, to time.Time, workers int) ([]BulkResult, error) {
	if workers <= 0 {
		workers = 4
	}
	if len(catalogs) == 0 {
		return nil, nil
	}
	results := make([]BulkResult, len(catalogs))
	for i, cat := range catalogs {
		results[i] = BulkResult{Catalog: cat, Err: &CatalogError{Catalog: cat, Err: ErrNotAttempted}}
	}
	err := parallel.ForEach(ctx, workers, len(catalogs), func(i int) error {
		cat := catalogs[i]
		sets, err := src.History(ctx, cat, from, to)
		if err != nil {
			err = &CatalogError{Catalog: cat, Err: err}
		}
		results[i] = BulkResult{Catalog: cat, Sets: sets, Err: err}
		return nil
	})
	if err == nil {
		err = ctx.Err() // cancelled during the last fetch
	}
	if err != nil {
		return results, fmt.Errorf("spacetrack: bulk fetch aborted: %w", err)
	}
	return results, nil
}
