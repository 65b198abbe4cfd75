package spacetrack

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// flakyHandler fails the first failures requests with fail, then delegates.
func flakyHandler(failures int32, fail func(w http.ResponseWriter, n int32), then http.Handler) http.Handler {
	var n int32
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if i := atomic.AddInt32(&n, 1); i <= failures {
			fail(w, i)
			return
		}
		then.ServeHTTP(w, r)
	})
}

func noSleepClient(t *testing.T, ts *httptest.Server) (*Client, *int32) {
	t.Helper()
	client, err := NewClient(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	var sleeps int32
	client.Sleep = func(ctx context.Context, d time.Duration) error {
		atomic.AddInt32(&sleeps, 1)
		return ctx.Err()
	}
	return client, &sleeps
}

func TestClientRetries5xxBurst(t *testing.T) {
	archive, _, end := buildArchive(t, 5)
	inner := NewServer(NewCatalog(archive, end), end).Handler()
	for _, status := range []int{http.StatusInternalServerError, http.StatusServiceUnavailable} {
		ts := httptest.NewServer(flakyHandler(3, func(w http.ResponseWriter, _ int32) {
			http.Error(w, "upstream sad", status)
		}, inner))
		client, sleeps := noSleepClient(t, ts)
		sets, err := client.FetchGroup(context.Background(), "starlink")
		if err != nil {
			t.Fatalf("status %d burst not survived: %v", status, err)
		}
		if len(sets) == 0 {
			t.Fatalf("status %d: no sets after recovery", status)
		}
		if atomic.LoadInt32(sleeps) != 3 {
			t.Errorf("status %d: %d backoff sleeps, want 3", status, atomic.LoadInt32(sleeps))
		}
		ts.Close()
	}
}

func TestClient5xxExhaustsBudget(t *testing.T) {
	always := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusBadGateway)
	}))
	defer always.Close()
	client, _ := noSleepClient(t, always)
	client.MaxRetries = 2
	err := client.Health(context.Background())
	if !errors.Is(err, ErrTooManyRetries) {
		t.Fatalf("err = %v, want ErrTooManyRetries", err)
	}
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusBadGateway {
		t.Fatalf("err = %v, want wrapped 502 StatusError", err)
	}
	var re *RetryError
	if !errors.As(err, &re) || re.Attempts != 3 {
		t.Fatalf("err = %v, want RetryError after 3 attempts", err)
	}
}

func TestClientRetriesConnectionReset(t *testing.T) {
	archive, _, end := buildArchive(t, 5)
	inner := NewServer(NewCatalog(archive, end), end).Handler()
	// panic(http.ErrAbortHandler) aborts the response mid-flight: the client
	// sees a transport-level error, the shape of a reset connection.
	ts := httptest.NewServer(flakyHandler(2, func(w http.ResponseWriter, _ int32) {
		panic(http.ErrAbortHandler)
	}, inner))
	defer ts.Close()
	client, sleeps := noSleepClient(t, ts)
	sets, err := client.FetchGroup(context.Background(), "starlink")
	if err != nil {
		t.Fatalf("connection resets not survived: %v", err)
	}
	if len(sets) == 0 || atomic.LoadInt32(sleeps) != 2 {
		t.Fatalf("sets=%d sleeps=%d, want >0 sets after 2 retries", len(sets), atomic.LoadInt32(sleeps))
	}
}

func TestClientRetriesTruncatedBody(t *testing.T) {
	archive, _, end := buildArchive(t, 5)
	inner := NewServer(NewCatalog(archive, end), end).Handler()
	ts := httptest.NewServer(flakyHandler(2, func(w http.ResponseWriter, _ int32) {
		// Declare more bytes than we send: the client's body read dies with
		// an unexpected EOF when the handler returns.
		w.Header().Set("Content-Length", "4096")
		w.Write([]byte("1 44713U 19074A"))
	}, inner))
	defer ts.Close()
	client, _ := noSleepClient(t, ts)
	sets, err := client.FetchGroup(context.Background(), "starlink")
	if err != nil {
		t.Fatalf("truncated bodies not survived: %v", err)
	}
	if len(sets) == 0 {
		t.Fatal("no sets after truncation recovery")
	}
}

func TestClientTruncationExhaustsTyped(t *testing.T) {
	always := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", "4096")
		w.Write([]byte("short"))
	}))
	defer always.Close()
	client, _ := noSleepClient(t, always)
	client.MaxRetries = 1
	err := client.Health(context.Background())
	if !errors.Is(err, ErrTruncatedBody) || !errors.Is(err, ErrTooManyRetries) {
		t.Fatalf("err = %v, want ErrTruncatedBody under ErrTooManyRetries", err)
	}
}

func TestClientHonoursRetryAfterOver429(t *testing.T) {
	archive, _, end := buildArchive(t, 5)
	inner := NewServer(NewCatalog(archive, end), end).Handler()
	ts := httptest.NewServer(flakyHandler(1, func(w http.ResponseWriter, _ int32) {
		w.Header().Set("Retry-After", "7")
		http.Error(w, "slow down", http.StatusTooManyRequests)
	}, inner))
	defer ts.Close()
	client, err := NewClient(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	var got time.Duration
	client.Sleep = func(ctx context.Context, d time.Duration) error {
		got = d
		return nil
	}
	if _, err := client.FetchGroup(context.Background(), "starlink"); err != nil {
		t.Fatal(err)
	}
	if got != 7*time.Second {
		t.Fatalf("slept %v, want the server's Retry-After of 7s", got)
	}
}

func TestClientHonoursRetryAfterOver503(t *testing.T) {
	archive, _, end := buildArchive(t, 5)
	inner := NewServer(NewCatalog(archive, end), end).Handler()
	// The admission layer's shape: a 503 carrying the computed refill delay.
	ts := httptest.NewServer(flakyHandler(1, func(w http.ResponseWriter, _ int32) {
		w.Header().Set("Retry-After", "3")
		http.Error(w, "over capacity", http.StatusServiceUnavailable)
	}, inner))
	defer ts.Close()
	client, err := NewClient(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	var got time.Duration
	client.Sleep = func(ctx context.Context, d time.Duration) error {
		got = d
		return nil
	}
	if _, err := client.FetchGroup(context.Background(), "starlink"); err != nil {
		t.Fatal(err)
	}
	if got != 3*time.Second {
		t.Fatalf("slept %v, want the server's Retry-After of 3s", got)
	}

	// Exhausting the budget against a persistent 503 still surfaces the
	// typed StatusError, not the internal delay wrapper.
	always := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "shed", http.StatusServiceUnavailable)
	}))
	defer always.Close()
	exhausted, _ := noSleepClient(t, always)
	exhausted.MaxRetries = 1
	err = exhausted.Health(context.Background())
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusServiceUnavailable {
		t.Fatalf("err = %v, want wrapped 503 StatusError", err)
	}
	if !errors.Is(err, ErrTooManyRetries) {
		t.Fatalf("err = %v, want ErrTooManyRetries", err)
	}
}

func TestClientConditionalFetch(t *testing.T) {
	archive, _, end := buildArchive(t, 5)
	srv := NewServer(NewCatalog(archive, end), end)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client, err := NewClient(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	first, err := client.FetchGroupConditional(ctx, "starlink", "", "")
	if err != nil {
		t.Fatal(err)
	}
	if first.NotModified || len(first.Sets) == 0 {
		t.Fatalf("unconditional fetch: notModified=%v sets=%d", first.NotModified, len(first.Sets))
	}
	if first.ETag == "" || first.LastModified == "" {
		t.Fatalf("missing validators: %+v", first)
	}

	// Revalidating with the returned validators confirms the copy without a
	// body, and echoes the validators for the next poll.
	second, err := client.FetchGroupConditional(ctx, "starlink", first.ETag, first.LastModified)
	if err != nil {
		t.Fatal(err)
	}
	if !second.NotModified || len(second.Sets) != 0 {
		t.Fatalf("revalidation: notModified=%v sets=%d, want 304", second.NotModified, len(second.Sets))
	}
	if second.ETag != first.ETag {
		t.Fatalf("304 lost the ETag: %q vs %q", second.ETag, first.ETag)
	}

	// A stale validator transfers the full catalog again.
	third, err := client.FetchGroupConditional(ctx, "starlink", `"stale"`, "")
	if err != nil {
		t.Fatal(err)
	}
	if third.NotModified || len(third.Sets) != len(first.Sets) {
		t.Fatalf("stale revalidation: notModified=%v sets=%d, want %d", third.NotModified, len(third.Sets), len(first.Sets))
	}

	// A 304 to an unconditional request is a protocol violation the client
	// must reject rather than treat as an empty catalog.
	broken := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNotModified)
	}))
	defer broken.Close()
	bclient, err := NewClient(broken.URL, broken.Client())
	if err != nil {
		t.Fatal(err)
	}
	var se *StatusError
	if _, err := bclient.FetchGroupConditional(ctx, "starlink", "", ""); !errors.As(err, &se) || se.Code != http.StatusNotModified {
		t.Fatalf("spurious 304 err = %v, want StatusError{304}", err)
	}
}

func TestBackoffDeterministicPerSeed(t *testing.T) {
	sleepsFor := func(seed int64) []time.Duration {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "down", http.StatusServiceUnavailable)
		}))
		defer ts.Close()
		client, err := NewClient(ts.URL, ts.Client())
		if err != nil {
			t.Fatal(err)
		}
		client.Seed = seed
		client.MaxRetries = 4
		var out []time.Duration
		client.Sleep = func(ctx context.Context, d time.Duration) error {
			out = append(out, d)
			return nil
		}
		client.Health(context.Background())
		return out
	}
	a, b := sleepsFor(42), sleepsFor(42)
	if len(a) != 4 || fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("same seed diverged: %v vs %v", a, b)
	}
	c := sleepsFor(43)
	if fmt.Sprint(a) == fmt.Sprint(c) {
		t.Fatalf("different seeds produced identical jitter: %v", a)
	}
	// Backoff grows: each delay's deterministic floor doubles.
	for i := 1; i < len(a); i++ {
		if a[i] <= a[i-1]/4 {
			t.Fatalf("backoff not growing: %v", a)
		}
	}
}

func TestFetchHistoriesTypedPermanentErrors(t *testing.T) {
	archive, _, end := buildArchive(t, 10)
	inner := NewServer(NewCatalog(archive, end), end).Handler()
	// Catalog 44714 is permanently broken: a non-retryable 404.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("catalog") == "44714" {
			http.Error(w, "object vanished", http.StatusNotFound)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()
	client, _ := noSleepClient(t, ts)
	cats := []int{44713, 44714, 44715}
	results, err := FetchHistories(context.Background(), client, cats, stStart, stStart.Add(10*24*time.Hour), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %d, want 3", len(results))
	}
	for _, r := range results {
		if r.Catalog == 44714 {
			var ce *CatalogError
			if !errors.As(r.Err, &ce) || ce.Catalog != 44714 {
				t.Fatalf("broken catalog err = %v, want *CatalogError{44714}", r.Err)
			}
			var se *StatusError
			if !errors.As(r.Err, &se) || se.Code != http.StatusNotFound {
				t.Fatalf("broken catalog err = %v, want wrapped 404", r.Err)
			}
			continue
		}
		if r.Err != nil || len(r.Sets) == 0 {
			t.Fatalf("healthy catalog %d: err=%v sets=%d", r.Catalog, r.Err, len(r.Sets))
		}
	}
	fails := Failures(results)
	if len(fails) != 1 || fails[0].Catalog != 44714 {
		t.Fatalf("Failures = %+v, want exactly catalog 44714", fails)
	}
}

func TestFetchHistoriesAbortNeverSilentlyDrops(t *testing.T) {
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
	catalogs := make([]int, 30)
	for i := range catalogs {
		catalogs[i] = 44713 + i
	}
	results, err := FetchHistories(ctx, client, catalogs, stStart, stStart.Add(24*time.Hour), 4)
	if err == nil {
		t.Fatal("aborted bulk fetch reported success")
	}
	notAttempted := 0
	for i, r := range results {
		if r.Catalog != catalogs[i] {
			t.Fatalf("result %d lost its catalog: %+v", i, r)
		}
		if r.Err == nil {
			t.Fatalf("catalog %d: aborted fetch has no error", r.Catalog)
		}
		var ce *CatalogError
		if !errors.As(r.Err, &ce) {
			t.Fatalf("catalog %d err = %v, want *CatalogError", r.Catalog, r.Err)
		}
		if errors.Is(r.Err, ErrNotAttempted) {
			notAttempted++
		}
	}
	if notAttempted == 0 {
		t.Error("expected some catalogs to be marked not-attempted after abort")
	}
}
