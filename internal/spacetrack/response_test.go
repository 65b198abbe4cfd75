package spacetrack

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"testing"
	"time"

	"cosmicdance/internal/tle"
)

// responseBytesSHA256 is the SHA-256 of the gzip bodies
// TestGzipResponseBytesPinned requests, as the fmt-based encoder with a
// fresh gzip.NewWriter per response served them.
const responseBytesSHA256 = "c7c79b2cb4c1c65e5808f8ea611b57ae3fac033324dea2b6ade7d11c9d6dd7eb"

// TestGzipResponseBytesPinned pins the compressed bytes of the group and
// history responses: the encoder and the gzip writer may change how the
// bytes are made, never which bytes. It covers the group in every format
// (300 sets: more than one buffer of text in both) and, for
// 20 catalogs, the whole history and one day of it.
func TestGzipResponseBytesPinned(t *testing.T) {
	archive, _, end := buildFleetArchive(t, 30, 300)
	h := NewServer(NewCatalog(archive, end), end).Handler()
	paths := []string{
		"/NORAD/elements/gp.php?GROUP=starlink",
		"/NORAD/elements/gp.php?GROUP=starlink&FORMAT=3le",
		"/NORAD/elements/gp.php?GROUP=starlink&FORMAT=tle",
	}
	for _, cat := range archive.cats[:20] {
		c := strconv.Itoa(cat)
		paths = append(paths,
			"/history?catalog="+c,
			"/history?catalog="+c+"&from=2023-01-03T00:00:00Z&to=2023-01-04T00:00:00Z")
	}
	sum := sha256.New()
	for _, path := range paths {
		rec := serve(h, http.MethodGet, path, "", true)
		if rec.Code != http.StatusOK || rec.Header().Get("Content-Encoding") != "gzip" {
			t.Fatalf("%s: status %d, encoding %q", path, rec.Code, rec.Header().Get("Content-Encoding"))
		}
		sum.Write(rec.Body.Bytes())
	}
	if got := hex.EncodeToString(sum.Sum(nil)); got != responseBytesSHA256 {
		t.Fatalf("gzip response bytes hash to %s, want %s", got, responseBytesSHA256)
	}
}

// discardResponse is a ResponseWriter that keeps headers and status and
// drops the body, so an allocation count sees the handler's own.
type discardResponse struct {
	header http.Header
	code   int
}

func (d *discardResponse) Header() http.Header         { return d.header }
func (d *discardResponse) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardResponse) WriteHeader(code int)        { d.code = code }

// perRequestAlloc serves one gzip request through h n times and returns
// the heap bytes and allocations per request. It counts on one P with the
// collector off, as testing.AllocsPerRun does and as a busy server runs
// between collections, so the gzip pool's writer stays in the P's slot.
func perRequestAlloc(t *testing.T, h http.Handler, path string, n int) (bytes, allocs float64) {
	t.Helper()
	if raceBuild {
		t.Skip("a race build's sync.Pool drops a quarter of its Puts")
	}
	req := httptest.NewRequest(http.MethodGet, path, nil)
	req.Header.Set("Accept-Encoding", "gzip")
	once := func() {
		w := &discardResponse{header: http.Header{}, code: http.StatusOK}
		h.ServeHTTP(w, req)
		if w.code != http.StatusOK || w.header.Get("Content-Encoding") != "gzip" {
			t.Fatalf("%s: status %d, encoding %q", path, w.code, w.header.Get("Content-Encoding"))
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	once() // fills the gzip pool
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		once()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n), float64(after.Mallocs-before.Mallocs) / float64(n)
}

// TestHistoryResponseAllocation gates the history path's heap use: a
// 60-set window served gzipped allocates under 64 KiB. A fresh gzip writer
// per response allocated about 1 MB of deflate state alone.
func TestHistoryResponseAllocation(t *testing.T) {
	archive, _, end := buildArchive(t, 60)
	cat := archive.cats[0]
	sets := archive.History(cat, stStart, end)
	if len(sets) < 60 {
		t.Fatalf("catalog %d has %d sets, want at least 60", cat, len(sets))
	}
	h := NewServer(NewCatalog(archive, end), end).Handler()
	path := "/history?catalog=" + strconv.Itoa(cat) +
		"&from=" + sets[0].Epoch.Format(time.RFC3339) + "&to=" + sets[59].Epoch.Format(time.RFC3339)
	b, n := perRequestAlloc(t, h, path, 200)
	t.Logf("history of 60 sets: %.0f B in %.1f allocations per request", b, n)
	if b >= 64<<10 {
		t.Fatalf("a 60-set history allocates %.0f B per request, want < 64 KiB", b)
	}
}

// TestGroupResponseAllocation gates the group path: a 100-satellite group
// served gzipped, in either text format, allocates fewer than 3 times per
// set. With fmt and a fresh gzip writer it took about 33.
func TestGroupResponseAllocation(t *testing.T) {
	archive, _, end := buildFleetArchive(t, 5, 100)
	h := NewServer(NewCatalog(archive, end), end).Handler()
	for _, format := range []string{"3le", "tle"} {
		b, n := perRequestAlloc(t, h, "/NORAD/elements/gp.php?GROUP=starlink&FORMAT="+format, 100)
		t.Logf("group of 100 sets as %s: %.0f B in %.1f allocations per request", format, b, n)
		if n >= 3*100 {
			t.Errorf("a 100-set %s group allocates %.1f times per request, want < 300", format, n)
		}
	}
}

// TestConcurrentGzipResponses fetches groups and histories from one Server
// on several goroutines at once. Every compressed body must equal a fresh
// gzip.NewWriter's encoding of the codec's text for the same sets (Format
// matches the encoder's fmt referee, see internal/tle), so no two
// responses ever share a pooled writer or a buffer.
func TestConcurrentGzipResponses(t *testing.T) {
	archive, _, end := buildFleetArchive(t, 30, 300)
	cat := NewCatalog(archive, end)
	h := NewServer(cat, end).Handler()
	type want struct {
		path string
		body []byte
	}
	var wants []want
	add := func(path string, sets []*tle.TLE, names bool) {
		var text bytes.Buffer
		for _, s := range sets {
			l1, l2, err := s.Format()
			if err != nil {
				t.Fatal(err)
			}
			if names && s.Name != "" {
				text.WriteString(s.Name + "\n")
			}
			text.WriteString(l1 + "\n" + l2 + "\n")
		}
		var z bytes.Buffer
		zw := gzip.NewWriter(&z)
		if _, err := zw.Write(text.Bytes()); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		wants = append(wants, want{path, z.Bytes()})
	}
	latest := cat.GroupLatest("starlink", end)
	add("/NORAD/elements/gp.php?GROUP=starlink&FORMAT=3le", latest, true)
	add("/NORAD/elements/gp.php?GROUP=starlink&FORMAT=tle", latest, false)
	for _, c := range archive.cats[:6] {
		add("/history?catalog="+strconv.Itoa(c), archive.History(c, time.Time{}, end), false)
	}

	const workers, requests = 4, 24
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < requests; i++ {
				w := wants[(g+i*3)%len(wants)]
				rec := serve(h, http.MethodGet, w.path, "", true)
				if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), w.body) {
					t.Errorf("worker %d, %s: status %d, %d bytes differ from a fresh writer's %d",
						g, w.path, rec.Code, rec.Body.Len(), len(w.body))
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
