package spacetrack

import (
	"bytes"
	"compress/gzip"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"cosmicdance/internal/tle"
)

// doGet issues one request with optional headers and returns the response
// with its fully-read body.
func doGet(t *testing.T, ts *httptest.Server, path string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	// The default transport would silently decompress; the gzip tests need
	// the wire bytes, so disable automatic negotiation.
	tr := &http.Transport{DisableCompression: true}
	defer tr.CloseIdleConnections()
	resp, err := (&http.Client{Transport: tr}).Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func TestGroupConditionalFetch(t *testing.T) {
	archive, _, end := buildArchive(t, 5)
	cat := NewCatalog(archive, end)
	srv := NewServer(cat, end)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	const path = "/NORAD/elements/gp.php?GROUP=starlink&FORMAT=tle"

	resp, body := doGet(t, ts, path, nil)
	if resp.StatusCode != http.StatusOK || len(body) == 0 {
		t.Fatalf("first fetch: %d, %d bytes", resp.StatusCode, len(body))
	}
	etag := resp.Header.Get("ETag")
	lastMod := resp.Header.Get("Last-Modified")
	if etag == "" || lastMod == "" {
		t.Fatalf("missing validators: ETag=%q Last-Modified=%q", etag, lastMod)
	}

	// Revalidation with the returned ETag answers 304 with no body.
	resp, body = doGet(t, ts, path, map[string]string{"If-None-Match": etag})
	if resp.StatusCode != http.StatusNotModified || len(body) != 0 {
		t.Fatalf("If-None-Match: %d with %d bytes, want 304 empty", resp.StatusCode, len(body))
	}
	// Same via If-Modified-Since.
	resp, body = doGet(t, ts, path, map[string]string{"If-Modified-Since": lastMod})
	if resp.StatusCode != http.StatusNotModified || len(body) != 0 {
		t.Fatalf("If-Modified-Since: %d with %d bytes, want 304 empty", resp.StatusCode, len(body))
	}
	// A stale validator still gets the full body.
	resp, _ = doGet(t, ts, path, map[string]string{"If-None-Match": `"bogus"`})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stale ETag: %d, want 200", resp.StatusCode)
	}

	// Ingest invalidates: the old ETag stops matching and the refetched
	// body contains the new satellite.
	template := archive.GroupLatest("starlink", end)[0]
	cat.Ingest("starlink", []*tle.TLE{cloneSet(template, 90055, end.Add(-time.Minute))}, end)
	resp, body = doGet(t, ts, path, map[string]string{"If-None-Match": etag})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-ingest revalidation: %d, want 200", resp.StatusCode)
	}
	if !strings.Contains(string(body), "90055") {
		t.Fatal("refetched body missing the ingested satellite")
	}
	if resp.Header.Get("ETag") == etag {
		t.Fatal("ingest did not rotate the ETag")
	}
}

func TestGzipGroupAndHistoryStreaming(t *testing.T) {
	archive, _, end := buildArchive(t, 10)
	cat := NewCatalog(archive, end)
	srv := NewServer(cat, end)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	catNum := archive.GroupLatest("starlink", end)[0].CatalogNumber
	paths := []string{
		"/NORAD/elements/gp.php?GROUP=starlink&FORMAT=tle",
		"/history?catalog=" + strconv.Itoa(catNum),
	}
	for _, path := range paths {
		plainResp, plain := doGet(t, ts, path, nil)
		if plainResp.StatusCode != http.StatusOK || plainResp.Header.Get("Content-Encoding") != "" {
			t.Fatalf("%s plain: %d enc=%q", path, plainResp.StatusCode, plainResp.Header.Get("Content-Encoding"))
		}
		zresp, zbody := doGet(t, ts, path, map[string]string{"Accept-Encoding": "gzip"})
		if zresp.Header.Get("Content-Encoding") != "gzip" {
			t.Fatalf("%s: no gzip negotiation", path)
		}
		if len(zbody) >= len(plain) {
			t.Fatalf("%s: compressed %d >= plain %d bytes", path, len(zbody), len(plain))
		}
		zr, err := gzip.NewReader(bytes.NewReader(zbody))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		inflated, err := io.ReadAll(zr)
		if err != nil {
			t.Fatalf("%s: inflate: %v", path, err)
		}
		if err := zr.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(inflated, plain) {
			t.Fatalf("%s: gzip body inflates to different content", path)
		}
	}

	// The streamed history equals the base archive's window encoded set
	// by set.
	var want []byte
	for _, s := range archive.History(catNum, time.Time{}, end) {
		l1, l2, err := s.Format()
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, l1+"\n"+l2+"\n"...)
	}
	if _, streamed := doGet(t, ts, paths[1], nil); len(want) == 0 || !bytes.Equal(streamed, want) {
		t.Fatalf("streamed history (%d bytes) differs from the archive window encoded by Format (%d bytes)", len(streamed), len(want))
	}
}

func TestAdmissionCapacity503(t *testing.T) {
	archive, _, end := buildArchive(t, 5)
	srv := NewServer(NewCatalog(archive, end), end)
	srv.CapacityPerSec = 0.5 // one token every 2s
	srv.CapacityBurst = 2
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	const path = "/NORAD/elements/gp.php?GROUP=starlink"

	for i := 0; i < 2; i++ {
		if resp, _ := doGet(t, ts, path, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("capacity burst request %d: %d", i, resp.StatusCode)
		}
	}
	resp, _ := doGet(t, ts, path, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over capacity: %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Fatalf("capacity Retry-After = %q, want 2 (one token at 0.5/s)", ra)
	}
	if srv.Overloaded() != 1 {
		t.Fatalf("Overloaded = %d, want 1", srv.Overloaded())
	}
	// Admission shedding is not per-client rate limiting.
	if srv.RateLimited() != 0 {
		t.Fatalf("RateLimited = %d, want 0", srv.RateLimited())
	}
}

// blockingArchive parks GroupLatest until released, so tests can hold a
// request in flight.
type blockingArchive struct {
	*Catalog
	enter   chan struct{}
	release chan struct{}
}

func (a *blockingArchive) GroupLatest(group string, at time.Time) []*tle.TLE {
	a.enter <- struct{}{}
	<-a.release
	return a.Catalog.GroupLatest(group, at)
}

func TestAdmissionMaxInFlight503(t *testing.T) {
	archive, _, end := buildArchive(t, 5)
	blocking := &blockingArchive{
		Catalog: NewCatalog(archive, end),
		enter:   make(chan struct{}, 1),
		release: make(chan struct{}),
	}
	srv := NewServer(blocking, end)
	srv.MaxInFlight = 1
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	const path = "/NORAD/elements/gp.php?GROUP=starlink"

	done := make(chan int, 1)
	go func() {
		resp, _ := http.Get(ts.URL + path)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	<-blocking.enter // the first request is now parked inside the handler

	resp, _ := doGet(t, ts, path, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("second in-flight request: %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("saturated 503 missing Retry-After")
	}
	close(blocking.release)
	if code := <-done; code != http.StatusOK {
		t.Fatalf("parked request finished with %d", code)
	}
	// With the slot free the server admits again.
	go func() { <-blocking.enter; close(blocking.enter) }()
	resp, _ = doGet(t, ts, path, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-drain request: %d, want 200", resp.StatusCode)
	}
	if srv.Overloaded() != 1 {
		t.Fatalf("Overloaded = %d, want 1", srv.Overloaded())
	}
}

func TestIngestEndpoint(t *testing.T) {
	archive, _, end := buildArchive(t, 5)
	cat := NewCatalog(archive, end)
	srv := NewServer(cat, end)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	template := archive.GroupLatest("starlink", end)[0]
	var buf bytes.Buffer
	if err := tle.Write(&buf, []*tle.TLE{cloneSet(template, 91000, end.Add(-time.Minute))}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/ingest?group=starlink", "text/plain", bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %d %s", resp.StatusCode, body)
	}
	if got := strings.TrimSpace(string(body)); got != `{"received":1,"applied":1}` {
		t.Fatalf("ingest response = %s", got)
	}
	if sets := cat.GroupLatest("starlink", end); !containsCatalog(sets, 91000) {
		t.Fatal("ingested satellite not served")
	}

	// GET is rejected, garbage is rejected whole, missing group is rejected.
	resp, _ = doGet(t, ts, "/ingest?group=starlink", nil)
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /ingest: %d", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/ingest?group=starlink", "text/plain", strings.NewReader("not a tle\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage ingest: %d, want 400", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/ingest", "text/plain", bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("groupless ingest: %d, want 400", resp.StatusCode)
	}
}

func containsCatalog(sets []*tle.TLE, catalog int) bool {
	for _, s := range sets {
		if s.CatalogNumber == catalog {
			return true
		}
	}
	return false
}
