package spacetrack

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// cacheTestHarness starts a counting server and fetcher over dir.
func cacheTestHarness(t *testing.T, dir string) (*CachingFetcher, *int32) {
	t.Helper()
	archive, _, end := buildArchive(t, 20)
	srv := NewServer(NewCatalog(archive, end), end)
	var hits int32
	counting := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		atomic.AddInt32(&hits, 1)
		srv.Handler().ServeHTTP(w, r)
	})
	ts := httptest.NewServer(counting)
	t.Cleanup(ts.Close)
	client, err := NewClient(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	fetcher, err := NewCachingFetcher(client, dir)
	if err != nil {
		t.Fatal(err)
	}
	return fetcher, &hits
}

// TestCachingFetcherFetchesInParallel: FetchHistories through a
// CachingFetcher keeps more than one request in flight. The server holds
// each /history request until two are in flight at once, or until a shared
// 5 s deadline passes. A fetcher that serialized every catalog behind one
// lock reached the deadline with one request in flight. Each catalog is
// asked for twice, so calls for one catalog also run side by side, and
// both must return the same sets.
func TestCachingFetcherFetchesInParallel(t *testing.T) {
	archive, _, end := buildArchive(t, 5)
	srv := NewServer(NewCatalog(archive, end), end).Handler()
	deadline, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var inFlight atomic.Int32
	both := make(chan struct{})
	var once sync.Once
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/history" {
			if inFlight.Add(1) == 2 {
				once.Do(func() { close(both) })
			}
			select {
			case <-both:
			case <-deadline.Done():
			}
			defer inFlight.Add(-1)
		}
		srv.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	client, err := NewClient(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	fetcher, err := NewCachingFetcher(client, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cats := append(archive.cats[:4:4], archive.cats[:4]...)
	results, err := FetchHistories(context.Background(), fetcher, cats, stStart, end, 8)
	if err != nil {
		t.Fatal(err)
	}
	if failed := Failures(results); len(failed) > 0 {
		t.Fatal(failed[0])
	}
	for i, r := range results[:4] {
		if twin := results[4+i]; len(r.Sets) == 0 || len(twin.Sets) != len(r.Sets) {
			t.Fatalf("catalog %d: %d and %d sets from two calls", r.Catalog, len(r.Sets), len(twin.Sets))
		}
	}
	select {
	case <-both:
	default:
		t.Fatal("8 workers never had two /history requests in flight at once")
	}
}

func TestCacheCorruptMetaIsMiss(t *testing.T) {
	dir := t.TempDir()
	fetcher, hits := cacheTestHarness(t, dir)
	ctx := context.Background()
	window := 10 * 24 * time.Hour

	if _, err := fetcher.History(ctx, 44713, stStart, stStart.Add(window)); err != nil {
		t.Fatal(err)
	}
	// Corrupt the metadata sidecar: the next fetch must fall back to the
	// server, not fail.
	if err := os.WriteFile(filepath.Join(dir, "44713.meta"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	before := atomic.LoadInt32(hits)
	sets, err := fetcher.History(ctx, 44713, stStart, stStart.Add(window))
	if err != nil {
		t.Fatalf("corrupt meta surfaced an error: %v", err)
	}
	if len(sets) == 0 {
		t.Fatal("no sets after corrupt-meta recovery")
	}
	if atomic.LoadInt32(hits) == before {
		t.Error("corrupt meta should have forced a refetch")
	}
}

func TestCacheBadTimestampsAreMiss(t *testing.T) {
	dir := t.TempDir()
	fetcher, _ := cacheTestHarness(t, dir)
	ctx := context.Background()
	if _, err := fetcher.History(ctx, 44713, stStart, stStart.Add(24*time.Hour)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "44713.meta"), []byte("not-a-time\nalso-not\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := fetcher.History(ctx, 44713, stStart, stStart.Add(24*time.Hour)); err != nil {
		t.Fatalf("bad timestamps surfaced an error: %v", err)
	}
}

func TestCacheMissingDataFileIsMiss(t *testing.T) {
	dir := t.TempDir()
	fetcher, hits := cacheTestHarness(t, dir)
	ctx := context.Background()
	if _, err := fetcher.History(ctx, 44713, stStart, stStart.Add(24*time.Hour)); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "44713.tle")); err != nil {
		t.Fatal(err)
	}
	before := atomic.LoadInt32(hits)
	sets, err := fetcher.History(ctx, 44713, stStart, stStart.Add(24*time.Hour))
	if err != nil {
		t.Fatalf("missing data file surfaced an error: %v", err)
	}
	if len(sets) == 0 || atomic.LoadInt32(hits) == before {
		t.Error("missing data file should have forced a refetch")
	}
}

func TestNewCachingFetcherBadDir(t *testing.T) {
	client, err := NewClient("http://localhost:1", nil)
	if err != nil {
		t.Fatal(err)
	}
	// A path under a regular file cannot be created as a directory.
	file := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewCachingFetcher(client, filepath.Join(file, "sub")); err == nil {
		t.Error("cache dir under a file accepted")
	}
}

func TestClientRejectsCorruptServerBody(t *testing.T) {
	// A server that persistently emits garbage instead of TLE text: the
	// client must retry and then surface a typed corruption error — never
	// silently return a shrunken archive.
	garbage := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("1 THIS IS NOT\nA VALID TLE STREAM\n###\n"))
	}))
	defer garbage.Close()
	client, err := NewClient(garbage.URL, garbage.Client())
	if err != nil {
		t.Fatal(err)
	}
	client.MaxRetries = 2
	client.Sleep = func(ctx context.Context, d time.Duration) error { return nil }
	_, err = client.FetchGroup(context.Background(), "starlink")
	if !errors.Is(err, ErrCorruptBody) || !errors.Is(err, ErrTooManyRetries) {
		t.Fatalf("corrupt body err = %v, want ErrCorruptBody wrapped in ErrTooManyRetries", err)
	}
	// The JSON path must surface the same typed error.
	client.UseJSON = true
	if _, err := client.FetchGroup(context.Background(), "starlink"); !errors.Is(err, ErrCorruptBody) {
		t.Errorf("garbage JSON err = %v, want ErrCorruptBody", err)
	}
}
