package spacetrack

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"cosmicdance/internal/constellation"
	"cosmicdance/internal/dst"
	"cosmicdance/internal/parallel"
	"cosmicdance/internal/tle"
)

var stStart = time.Date(2023, 1, 1, 0, 0, 0, 0, time.UTC)

// buildArchive runs a small constellation and wraps it as an archive.
func buildArchive(t *testing.T, days int) (*ResultArchive, *constellation.Result, time.Time) {
	t.Helper()
	return buildFleetArchive(t, days, 20)
}

// buildFleetArchive runs a constellation of sats satellites for days and
// wraps it as an archive.
func buildFleetArchive(t testing.TB, days, sats int) (*ResultArchive, *constellation.Result, time.Time) {
	t.Helper()
	cfg := constellation.DefaultConfig()
	cfg.Start = stStart
	cfg.Hours = days * 24
	cfg.InitialFleet = sats
	cfg.GrossErrorProb = 0
	cfg.DecommissionPerYear = 0
	vals := make([]float64, cfg.Hours)
	for i := range vals {
		vals[i] = -10
	}
	res, err := constellation.Run(context.Background(), cfg, dst.FromValues(stStart, vals))
	if err != nil {
		t.Fatal(err)
	}
	end := stStart.Add(time.Duration(cfg.Hours) * time.Hour)
	return NewResultArchive("starlink", res), res, end
}

func newTestServer(t *testing.T, days int) (*Server, *httptest.Server, *Client) {
	t.Helper()
	archive, _, end := buildArchive(t, days)
	srv := NewServer(NewCatalog(archive, end), end)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	client, err := NewClient(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	return srv, ts, client
}

func TestFetchGroup(t *testing.T) {
	_, _, client := newTestServer(t, 30)
	sets, err := client.FetchGroup(context.Background(), "starlink")
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) != 20 {
		t.Fatalf("fetched %d sets, want 20 (one latest per satellite)", len(sets))
	}
	for _, s := range sets {
		if s.Name == "" {
			t.Fatal("3LE fetch lost names")
		}
	}
	nums := CatalogNumbers(sets)
	if len(nums) != 20 {
		t.Fatalf("catalog numbers = %d", len(nums))
	}
	for i := 1; i < len(nums); i++ {
		if nums[i] <= nums[i-1] {
			t.Fatal("catalog numbers not sorted/distinct")
		}
	}
}

func TestCatalogNumbersSortedDistinct(t *testing.T) {
	var sets []*tle.TLE
	for _, n := range []int{45766, 44713, 45766, 44714, 45766} {
		sets = append(sets, &tle.TLE{CatalogNumber: n})
	}
	if got := CatalogNumbers(sets); !slices.Equal(got, []int{44713, 44714, 45766}) {
		t.Errorf("CatalogNumbers = %v, want [44713 44714 45766]", got)
	}
}

func TestFetchGroupErrors(t *testing.T) {
	_, _, client := newTestServer(t, 5)
	_, err := client.FetchGroup(context.Background(), "oneweb")
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusNotFound {
		t.Fatalf("unknown group err = %v, want 404 StatusError", err)
	}
}

func TestFetchHistoryWindow(t *testing.T) {
	_, _, client := newTestServer(t, 40)
	ctx := context.Background()
	all, err := client.FetchGroup(ctx, "starlink")
	if err != nil {
		t.Fatal(err)
	}
	cat := all[0].CatalogNumber

	full, err := client.FetchHistory(ctx, cat, stStart, stStart.Add(40*24*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if len(full) < 40 { // ~2/day over 40 days
		t.Fatalf("history = %d sets, want dozens", len(full))
	}
	// A 10-day sub-window is a strict subset, all epochs inside.
	from, to := stStart.Add(10*24*time.Hour), stStart.Add(20*24*time.Hour)
	window, err := client.FetchHistory(ctx, cat, from, to)
	if err != nil {
		t.Fatal(err)
	}
	if len(window) == 0 || len(window) >= len(full) {
		t.Fatalf("window = %d of %d", len(window), len(full))
	}
	for _, s := range window {
		if s.Epoch.Before(from) || s.Epoch.After(to) {
			t.Fatalf("epoch %v outside window", s.Epoch)
		}
	}
	// Ascending.
	for i := 1; i < len(window); i++ {
		if window[i].Epoch.Before(window[i-1].Epoch) {
			t.Fatal("history not ascending")
		}
	}
}

func TestHistoryUnknownCatalogIsEmpty(t *testing.T) {
	_, _, client := newTestServer(t, 5)
	sets, err := client.FetchHistory(context.Background(), 99999, stStart, stStart.Add(5*24*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) != 0 {
		t.Fatalf("unknown catalog returned %d sets", len(sets))
	}
}

func TestServerBadRequests(t *testing.T) {
	_, ts, _ := newTestServer(t, 5)
	cases := []string{
		"/NORAD/elements/gp.php",                           // missing GROUP
		"/NORAD/elements/gp.php?GROUP=starlink&FORMAT=xml", // bad format
		"/NORAD/elements/gp.php?GROUP=starlink&FORMAT=json",
		"/history?catalog=44713&format=json",
		"/history?catalog=abc",
		"/history?catalog=44713&from=not-a-time",
		"/history?catalog=44713&from=2023-02-01T00:00:00Z&to=2023-01-01T00:00:00Z",
	}
	for _, path := range cases {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s -> %d, want 400", path, resp.StatusCode)
		}
	}
}

func TestHealth(t *testing.T) {
	_, _, client := newTestServer(t, 5)
	if err := client.Health(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestRateLimitAndClientRetry(t *testing.T) {
	srv, ts, client := newTestServer(t, 5)
	srv.RatePerSec = 50
	srv.Burst = 2
	// The limiter runs on the injected service clock: advance it instead of
	// sleeping, so the refill the client waits for is deterministic.
	base := srv.Now()
	var offset atomic.Int64
	srv.Now = func() time.Time { return base.Add(time.Duration(offset.Load())) }
	var sleeps int32
	client.Sleep = func(ctx context.Context, d time.Duration) error {
		atomic.AddInt32(&sleeps, 1)
		offset.Add(int64(50 * time.Millisecond)) // refill a couple of tokens
		return nil
	}
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		if _, err := client.FetchGroup(ctx, "starlink"); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if atomic.LoadInt32(&sleeps) == 0 {
		t.Error("client never hit the rate limit; limiter inert")
	}
	// The health endpoint is deliberately unthrottled.
	srv.RatePerSec = 0.0001
	if err := client.Health(ctx); err != nil {
		t.Errorf("healthz throttled: %v", err)
	}
	_ = ts
}

func TestClientRetriesExhausted(t *testing.T) {
	always429 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "0")
		http.Error(w, "slow down", http.StatusTooManyRequests)
	}))
	defer always429.Close()
	client, err := NewClient(always429.URL, always429.Client())
	if err != nil {
		t.Fatal(err)
	}
	client.MaxRetries = 2
	client.Sleep = func(ctx context.Context, d time.Duration) error { return nil }
	if err := client.Health(context.Background()); !errors.Is(err, ErrTooManyRetries) {
		t.Fatalf("err = %v, want ErrTooManyRetries", err)
	}
}

func TestClientContextCancellation(t *testing.T) {
	blocked := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	}))
	defer blocked.Close()
	client, err := NewClient(blocked.URL, blocked.Client())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := client.Health(ctx); err == nil {
		t.Fatal("cancelled request succeeded")
	}
}

func TestNewClientBadURL(t *testing.T) {
	if _, err := NewClient("://nope", nil); err == nil {
		t.Error("bad URL accepted")
	}
}

func TestCachingFetcherIncremental(t *testing.T) {
	archive, _, end := buildArchive(t, 40)
	srv := NewServer(NewCatalog(archive, end), end)
	var hits int32
	counting := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		atomic.AddInt32(&hits, 1)
		srv.Handler().ServeHTTP(w, r)
	})
	ts := httptest.NewServer(counting)
	defer ts.Close()
	client, err := NewClient(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	fetcher, err := NewCachingFetcher(client, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cat := 44713

	// First fetch: one server hit.
	w1, err := fetcher.History(ctx, cat, stStart, stStart.Add(20*24*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if got := atomic.LoadInt32(&hits); got != 1 {
		t.Fatalf("hits after first fetch = %d", got)
	}
	// Same window again: served from cache, no new hit.
	w2, err := fetcher.History(ctx, cat, stStart, stStart.Add(20*24*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if got := atomic.LoadInt32(&hits); got != 1 {
		t.Fatalf("hits after cached fetch = %d, want 1", got)
	}
	if len(w1) != len(w2) {
		t.Fatalf("cache changed the answer: %d vs %d", len(w1), len(w2))
	}
	// Extended window: exactly one incremental hit, answer covers more.
	w3, err := fetcher.History(ctx, cat, stStart, stStart.Add(40*24*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if got := atomic.LoadInt32(&hits); got != 2 {
		t.Fatalf("hits after extension = %d, want 2", got)
	}
	if len(w3) <= len(w1) {
		t.Fatalf("extension did not grow history: %d vs %d", len(w3), len(w1))
	}
	// Sub-window of the cache: no hit, filtered correctly.
	from, to := stStart.Add(5*24*time.Hour), stStart.Add(10*24*time.Hour)
	w4, err := fetcher.History(ctx, cat, from, to)
	if err != nil {
		t.Fatal(err)
	}
	if got := atomic.LoadInt32(&hits); got != 2 {
		t.Fatalf("hits after sub-window = %d, want 2", got)
	}
	for _, s := range w4 {
		if s.Epoch.Before(from) || s.Epoch.After(to) {
			t.Fatalf("epoch %v outside sub-window", s.Epoch)
		}
	}
}

func TestCachingFetcherPersistsAcrossInstances(t *testing.T) {
	archive, _, end := buildArchive(t, 10)
	srv := NewServer(NewCatalog(archive, end), end)
	var hits int32
	counting := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		atomic.AddInt32(&hits, 1)
		srv.Handler().ServeHTTP(w, r)
	})
	ts := httptest.NewServer(counting)
	defer ts.Close()
	client, err := NewClient(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ctx := context.Background()

	f1, err := NewCachingFetcher(client, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f1.History(ctx, 44713, stStart, stStart.Add(10*24*time.Hour)); err != nil {
		t.Fatal(err)
	}
	// A fresh fetcher over the same directory serves from disk.
	f2, err := NewCachingFetcher(client, dir)
	if err != nil {
		t.Fatal(err)
	}
	sets, err := f2.History(ctx, 44713, stStart, stStart.Add(10*24*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) == 0 {
		t.Fatal("persisted cache empty")
	}
	if got := atomic.LoadInt32(&hits); got != 1 {
		t.Fatalf("hits = %d, want 1 (second instance must not refetch)", got)
	}
}

// TestCachingFetcherExtensionKeepsSubSecondSets extends a cached window
// whose frontier has a set exactly on it and another set half a second
// after it. The wire and the cache meta carry whole seconds, so the
// extension must neither lose the later set nor repeat the frontier one: the
// answer equals a direct fetch of the whole window.
func TestCachingFetcherExtensionKeepsSubSecondSets(t *testing.T) {
	archive, _, end := buildArchive(t, 10)
	catalog := NewCatalog(archive, end)
	ts := httptest.NewServer(NewServer(catalog, end).Handler())
	defer ts.Close()
	client, err := NewClient(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	fetcher, err := NewCachingFetcher(client, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	frontier, to := stStart.Add(5*24*time.Hour), stStart.Add(10*24*time.Hour)
	at := func(epoch time.Time) *tle.TLE {
		s := *archive.History(44713, stStart, end)[0]
		s.Epoch = epoch
		return &s
	}

	catalog.Ingest("starlink", []*tle.TLE{at(frontier)}, end)
	if _, err := fetcher.History(ctx, 44713, stStart, frontier); err != nil {
		t.Fatal(err)
	}
	catalog.Ingest("starlink", []*tle.TLE{at(frontier.Add(500 * time.Millisecond))}, end)
	want, err := client.FetchHistory(ctx, 44713, stStart, to)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fetcher.History(ctx, 44713, stStart, to)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("fetcher returned %d sets, direct fetch %d", len(got), len(want))
	}
	for i := range want {
		if !got[i].Epoch.Equal(want[i].Epoch) {
			t.Fatalf("set %d: fetcher epoch %v, direct fetch %v", i, got[i].Epoch, want[i].Epoch)
		}
	}
}

func TestArchiveGroupLatestRespectsTime(t *testing.T) {
	archive, res, _ := buildArchive(t, 30)
	// At a mid-run instant, the latest elements must have epochs at or
	// before that instant.
	at := stStart.Add(15 * 24 * time.Hour)
	sets := archive.GroupLatest("starlink", at)
	if len(sets) == 0 {
		t.Fatal("no sets")
	}
	for _, s := range sets {
		if s.Epoch.After(at) {
			t.Fatalf("epoch %v after query time %v", s.Epoch, at)
		}
	}
	// Before any samples: empty.
	if got := archive.GroupLatest("starlink", stStart.Add(-time.Hour)); len(got) != 0 {
		t.Fatalf("pre-launch latest = %d sets", len(got))
	}
	_ = res
}

func TestFetchHistoriesBulk(t *testing.T) {
	_, _, client := newTestServer(t, 20)
	ctx := context.Background()
	current, err := client.FetchGroup(ctx, "starlink")
	if err != nil {
		t.Fatal(err)
	}
	catalogs := CatalogNumbers(current)
	results, err := FetchHistories(ctx, client, catalogs, stStart, stStart.Add(20*24*time.Hour), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(catalogs) {
		t.Fatalf("results = %d, want %d", len(results), len(catalogs))
	}
	total := 0
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("catalog %d: %v", r.Catalog, r.Err)
		}
		if r.Catalog != catalogs[i] {
			t.Fatalf("result %d out of order: %d vs %d", i, r.Catalog, catalogs[i])
		}
		total += len(r.Sets)
	}
	if total < len(catalogs)*20 {
		t.Errorf("total sets = %d, want dozens per satellite", total)
	}
	// Empty input.
	if got, err := FetchHistories(ctx, client, nil, stStart, stStart, 3); err != nil || got != nil {
		t.Errorf("empty input: %v, %v", got, err)
	}
	// Zero workers defaults rather than deadlocking.
	if _, err := FetchHistories(ctx, client, catalogs[:2], stStart, stStart.Add(24*time.Hour), 0); err != nil {
		t.Errorf("workers=0: %v", err)
	}
}

func TestFetchHistoriesCancellation(t *testing.T) {
	blocked := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	}))
	defer blocked.Close()
	client, err := NewClient(blocked.URL, blocked.Client())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	catalogs := make([]int, 50)
	for i := range catalogs {
		catalogs[i] = 44713 + i
	}
	_, err = FetchHistories(ctx, client, catalogs, stStart, stStart.Add(24*time.Hour), 4)
	if err == nil {
		t.Fatal("cancelled bulk fetch reported success")
	}
}

// panicSource is a HistorySource whose fetch of catalog bad panics.
type panicSource struct{ bad int }

func (p panicSource) History(_ context.Context, catalog int, _, _ time.Time) ([]*tle.TLE, error) {
	if catalog == p.bad {
		panic("history source exploded")
	}
	return nil, nil
}

// TestFetchHistoriesPanickingSource proves a panicking source aborts the
// bulk fetch with a *parallel.PanicError instead of crashing the process,
// and that the panicking catalog still carries a result.
func TestFetchHistoriesPanickingSource(t *testing.T) {
	catalogs := []int{44713, 44714, 44715, 44716}
	results, err := FetchHistories(context.Background(), panicSource{bad: 44715}, catalogs, stStart, stStart.Add(24*time.Hour), 2)
	var pe *parallel.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *parallel.PanicError", err)
	}
	if len(results) != len(catalogs) {
		t.Fatalf("results = %d, want %d", len(results), len(catalogs))
	}
	for i, r := range results {
		if r.Catalog != catalogs[i] {
			t.Fatalf("result %d lost its catalog: %+v", i, r)
		}
	}
	if !errors.Is(results[2].Err, ErrNotAttempted) {
		t.Fatalf("panicking catalog err = %v, want ErrNotAttempted", results[2].Err)
	}
}

func TestFetchHistoriesWithCache(t *testing.T) {
	_, ts, client := newTestServer(t, 10)
	_ = ts
	fetcher, err := NewCachingFetcher(client, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	results, err := FetchHistories(ctx, fetcher, []int{44713, 44714, 44715}, stStart, stStart.Add(10*24*time.Hour), 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Err != nil || len(r.Sets) == 0 {
			t.Fatalf("cached bulk: %+v", r)
		}
	}
}
