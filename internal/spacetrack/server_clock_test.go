package spacetrack

import (
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestLimiterFollowsInjectedClock is the regression test for the token
// bucket reading wall clock instead of the injected service clock: with
// s.Now pinned, the burst must drain and never refill, and advancing the
// injected clock — not real time — must be what returns tokens.
func TestLimiterFollowsInjectedClock(t *testing.T) {
	archive, _, end := buildArchive(t, 5)
	srv := NewServer(NewCatalog(archive, end), end)
	srv.RatePerSec = 1
	srv.Burst = 2
	var offset atomic.Int64
	srv.Now = func() time.Time { return end.Add(time.Duration(offset.Load())) }

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	get := func() int {
		t.Helper()
		resp, err := http.Get(ts.URL + "/NORAD/elements/gp.php?GROUP=starlink&FORMAT=tle")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			t.Fatal(err)
		}
		if err := resp.Body.Close(); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode
	}

	// Frozen clock: exactly Burst requests pass, then the bucket is dry no
	// matter how much real time the requests take.
	for i := 0; i < 2; i++ {
		if got := get(); got != http.StatusOK {
			t.Fatalf("burst request %d: status %d, want 200", i, got)
		}
	}
	for i := 0; i < 3; i++ {
		if got := get(); got != http.StatusTooManyRequests {
			t.Fatalf("frozen-clock request %d: status %d, want 429", i, got)
		}
	}

	// Advancing the injected clock two seconds at 1 token/sec refills
	// exactly two tokens.
	offset.Store(int64(2 * time.Second))
	for i := 0; i < 2; i++ {
		if got := get(); got != http.StatusOK {
			t.Fatalf("post-refill request %d: status %d, want 200", i, got)
		}
	}
	if got := get(); got != http.StatusTooManyRequests {
		t.Fatalf("third post-refill request: status %d, want 429", got)
	}
}

// TestRetryAfterMatchesBucketState is the regression test for the
// hard-coded "Retry-After: 1": under a fixed injected clock the header must
// equal the per-client bucket's actual refill time, rounded up to whole
// seconds, and advancing the clock must shrink it in lockstep.
func TestRetryAfterMatchesBucketState(t *testing.T) {
	archive, _, end := buildArchive(t, 5)
	srv := NewServer(NewCatalog(archive, end), end)
	srv.RatePerSec = 0.25 // one token every 4s
	srv.Burst = 1
	var offset atomic.Int64
	srv.Now = func() time.Time { return end.Add(time.Duration(offset.Load())) }

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	get := func() (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/NORAD/elements/gp.php?GROUP=starlink&FORMAT=tle")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			t.Fatal(err)
		}
		if err := resp.Body.Close(); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, resp.Header.Get("Retry-After")
	}

	if code, _ := get(); code != http.StatusOK {
		t.Fatalf("burst request: status %d, want 200", code)
	}
	// The bucket is empty: one token at 0.25/s takes exactly 4 seconds.
	if code, ra := get(); code != http.StatusTooManyRequests || ra != "4" {
		t.Fatalf("drained bucket: status %d Retry-After %q, want 429 with 4", code, ra)
	}
	// 1.5s later, 0.375 tokens refilled: (1-0.375)/0.25 = 2.5s -> ceil 3.
	offset.Store(int64(1500 * time.Millisecond))
	if code, ra := get(); code != http.StatusTooManyRequests || ra != "3" {
		t.Fatalf("partial refill: status %d Retry-After %q, want 429 with 3", code, ra)
	}
	// Past the full refill the request passes, and draining it again yields
	// the full 4-second wait, proving the header tracks the live state.
	offset.Store(int64(6 * time.Second))
	if code, _ := get(); code != http.StatusOK {
		t.Fatal("refilled bucket still limited")
	}
	if code, ra := get(); code != http.StatusTooManyRequests || ra != "4" {
		t.Fatalf("re-drained bucket: status %d Retry-After %q, want 429 with 4", code, ra)
	}

	// Sub-second waits still answer a usable header: at 10 tokens/s the
	// refill is 100ms, which must round up to 1, never down to 0.
	fast := NewServer(NewCatalog(archive, end), end)
	fast.RatePerSec = 10
	fast.Burst = 1
	if ok, _ := fast.admitClient("c"); !ok {
		t.Fatal("burst token denied")
	}
	if ok, wait := fast.admitClient("c"); ok || retryAfterSeconds(wait) != "1" {
		t.Fatalf("sub-second wait rendered %q, want 1", retryAfterSeconds(wait))
	}
}

// TestPerClientBucketsIsolate proves the limiter keys on the client, not
// the process: one client draining its bucket must not throttle another.
func TestPerClientBucketsIsolate(t *testing.T) {
	archive, _, end := buildArchive(t, 5)
	srv := NewServer(NewCatalog(archive, end), end)
	srv.RatePerSec = 1
	srv.Burst = 1

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	get := func(id string) int {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/NORAD/elements/gp.php?GROUP=starlink", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Client-Id", id)
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			t.Fatal(err)
		}
		if err := resp.Body.Close(); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode
	}

	if got := get("alice"); got != http.StatusOK {
		t.Fatalf("alice's burst: %d", got)
	}
	if got := get("alice"); got != http.StatusTooManyRequests {
		t.Fatalf("alice not limited: %d", got)
	}
	if got := get("bob"); got != http.StatusOK {
		t.Fatalf("bob throttled by alice's bucket: %d", got)
	}
	if srv.RateLimited() != 1 {
		t.Fatalf("RateLimited = %d, want 1", srv.RateLimited())
	}
}

// TestBucketEvictionIsLossless fills the tracked-client table past
// MaxClients and checks that only refilled-to-full buckets were dropped —
// an evicted client's next request behaves exactly as if its bucket had
// been kept.
func TestBucketEvictionIsLossless(t *testing.T) {
	archive, _, end := buildArchive(t, 5)
	srv := NewServer(NewCatalog(archive, end), end)
	srv.RatePerSec = 1
	srv.Burst = 2
	srv.MaxClients = 4
	var offset atomic.Int64
	srv.Now = func() time.Time { return end.Add(time.Duration(offset.Load())) }

	for i := 0; i < 4; i++ {
		if ok, _ := srv.admitClient(string(rune('a' + i))); !ok {
			t.Fatalf("client %d denied its burst", i)
		}
	}
	// Everyone is 1 token below full; nothing is evictable, so the table
	// grows past the bound rather than dropping live state.
	if ok, _ := srv.admitClient("e"); !ok {
		t.Fatal("overflow client denied")
	}
	if len(srv.clients) != 5 {
		t.Fatalf("tracked %d clients, want 5 (no lossy eviction)", len(srv.clients))
	}
	// After the buckets refill, the next newcomer sweeps them out.
	offset.Store(int64(10 * time.Second))
	if ok, _ := srv.admitClient("f"); !ok {
		t.Fatal("post-refill client denied")
	}
	if len(srv.clients) != 1 {
		t.Fatalf("tracked %d clients after refill sweep, want 1", len(srv.clients))
	}
}
