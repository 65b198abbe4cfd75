package incremental

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"cosmicdance/internal/core"
)

// seedFeed builds a feed over a small engine with real storms, tracks and
// deltas.
func seedFeed(t testing.TB, ringCap int) *Feed {
	t.Helper()
	weather, obs := fleetObs(t, 7, 6)
	f := NewFeed(New(DefaultConfig()), ringCap)
	f.IngestObservations(obs)
	if _, err := f.IngestDst(weather.Start(), weather.Values()); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestRiskEndpointConditional(t *testing.T) {
	f := seedFeed(t, 0)
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/risk")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("no ETag")
	}
	var view RiskView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	if view.Tracks == 0 || view.Events == 0 || view.Deviations == 0 {
		t.Fatalf("thin risk view: %+v", view)
	}
	if view.WeatherWatermark == 0 || view.LastObservation == 0 {
		t.Fatalf("watermarks missing: %+v", view)
	}

	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/risk", nil)
	req.Header.Set("If-None-Match", etag)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional GET got %d, want 304", resp2.StatusCode)
	}

	// Any ingest that changes state invalidates the ETag.
	f.IngestObservations([]core.Observation{{Catalog: 99999, Epoch: view.LastObservation + 3600, AltKm: 550}})
	resp3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("stale conditional GET got %d, want 200", resp3.StatusCode)
	}
}

// drainSSE reads one nowait stream response into (id, kind, data) triples.
func drainSSE(t *testing.T, url string) []Delta {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	var out []Delta
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if data, ok := strings.CutPrefix(line, "data: "); ok && !strings.HasPrefix(data, "{\"oldest\"") {
			var d Delta
			if err := json.Unmarshal([]byte(data), &d); err != nil {
				t.Fatalf("bad SSE data %q: %v", data, err)
			}
			out = append(out, d)
		}
	}
	return out
}

func TestStreamCursorAndNowait(t *testing.T) {
	f := seedFeed(t, 1<<20)
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()

	all := drainSSE(t, srv.URL+"/v1/risk/stream?nowait=1")
	if len(all) == 0 {
		t.Fatal("no deltas in drain")
	}
	for i := 1; i < len(all); i++ {
		if all[i].Seq != all[i-1].Seq+1 {
			t.Fatalf("gap in sequence at %d: %d after %d", i, all[i].Seq, all[i-1].Seq)
		}
	}

	// A cursor resumes exactly after the given sequence.
	mid := all[len(all)/2].Seq
	tail := drainSSE(t, fmt.Sprintf("%s/v1/risk/stream?nowait=1&cursor=%d", srv.URL, mid))
	if len(tail) != len(all)-int(mid-all[0].Seq+1) {
		t.Fatalf("cursor resume returned %d deltas, want %d", len(tail), len(all)-int(mid-all[0].Seq+1))
	}
	if tail[0].Seq != mid+1 {
		t.Fatalf("cursor resume started at %d, want %d", tail[0].Seq, mid+1)
	}

	// limit caps the response.
	few := drainSSE(t, srv.URL+"/v1/risk/stream?nowait=1&limit=5")
	if len(few) != 5 {
		t.Fatalf("limit=5 returned %d", len(few))
	}

	// A caught-up nowait stream closes empty.
	empty := drainSSE(t, fmt.Sprintf("%s/v1/risk/stream?nowait=1&cursor=%d", srv.URL, all[len(all)-1].Seq))
	if len(empty) != 0 {
		t.Fatalf("caught-up drain returned %d deltas", len(empty))
	}

	if resp, err := http.Get(srv.URL + "/v1/risk/stream?cursor=banana"); err == nil {
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad cursor got %d", resp.StatusCode)
		}
		resp.Body.Close()
	}
}

func TestStreamResyncAfterOverflow(t *testing.T) {
	f := seedFeed(t, 8) // tiny ring: early deltas are long gone
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/risk/stream?nowait=1&cursor=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body := new(strings.Builder)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		body.WriteString(sc.Text())
		body.WriteByte('\n')
	}
	if !strings.Contains(body.String(), "event: resync") {
		t.Fatalf("no resync event for an overflowed cursor:\n%s", body.String())
	}
	if !strings.Contains(body.String(), "event: ") {
		t.Fatal("no deltas after resync")
	}
}

// TestStreamLargestCursor: a cursor at or just below the largest uint64 is
// past every buffered delta, so the stream sends nothing. That holds on a
// ring that has dropped deltas too: the overflow check must not wrap
// cursor+1 to 0 and replay the whole ring behind a resync.
func TestStreamLargestCursor(t *testing.T) {
	f := seedFeed(t, 8)
	cases := []struct{ name, query, lastEventID string }{
		{"cursor max", "cursor=18446744073709551615", ""},
		{"cursor max-1", "cursor=18446744073709551614", ""},
		{"Last-Event-ID max", "", "18446744073709551615"},
		{"Last-Event-ID max-1", "", "18446744073709551614"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			req := httptest.NewRequest(http.MethodGet, "/v1/risk/stream?nowait=1&"+c.query, nil)
			if c.lastEventID != "" {
				req.Header.Set("Last-Event-ID", c.lastEventID)
			}
			rec := httptest.NewRecorder()
			f.Handler().ServeHTTP(rec, req)
			if rec.Code != http.StatusOK || rec.Body.Len() != 0 {
				t.Fatalf("status %d, body %q; want 200 and no events", rec.Code, rec.Body.String())
			}
		})
	}
}

func TestStreamBlocksUntilIngest(t *testing.T) {
	f := seedFeed(t, 1<<20)
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()

	cursor := f.Engine().Seq()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet,
		fmt.Sprintf("%s/v1/risk/stream?cursor=%d&limit=1", srv.URL, cursor), nil)
	got := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			got <- err
			return
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if strings.HasPrefix(sc.Text(), "id: ") {
				got <- nil
				return
			}
		}
		got <- fmt.Errorf("stream closed without an event")
	}()
	// Give the handler a moment to block, then ingest to wake it.
	time.Sleep(50 * time.Millisecond)
	f.IngestObservations([]core.Observation{{Catalog: 424242, Epoch: f.Engine().LastObservationEpoch() + 7200, AltKm: 500}})
	if err := <-got; err != nil {
		t.Fatalf("blocked stream never woke: %v", err)
	}
}

func TestDstEndpoint(t *testing.T) {
	f := NewFeed(New(DefaultConfig()), 0)
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()

	start := time.Date(2024, 5, 1, 0, 0, 0, 0, time.UTC)
	post := func(q, body string) *http.Response {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/dst?"+q, "text/plain", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	resp := post("start="+start.Format(time.RFC3339), "-10 -60 -70 -40")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var st IngestStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Applied != 4 {
		t.Fatalf("applied %d, want 4", st.Applied)
	}
	if got := f.Engine().WeatherWatermark(); !got.Equal(start.Add(4 * time.Hour)) {
		t.Fatalf("watermark %v", got)
	}

	if resp := post("start="+start.Add(10*time.Hour).Format(time.RFC3339), "-10"); resp.StatusCode != http.StatusConflict {
		t.Fatalf("gapped POST got %d, want 409", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	if resp := post("start=notatime", "-10"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad start got %d", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	if resp := post("start="+start.Add(4*time.Hour).Format(time.RFC3339), "-10 pancake"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad reading got %d", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
}

// dstStart is where dstFeed's Dst stream begins, and dstNext the hour after
// its two seeded readings: a batch posted at dstNext extends the stream.
var (
	dstStart = time.Date(2024, 5, 1, 0, 0, 0, 0, time.UTC)
	dstNext  = dstStart.Add(2 * time.Hour)
)

// dstReadings are POST /v1/dst bodies posted at dstNext: whether the
// endpoint accepts each batch, which it must do whole or not at all.
var dstReadings = []struct {
	body string
	ok   bool
}{
	{"-10 -Inf -10", false},
	{"+Inf", false},
	{"inf", false},
	{"-infinity", false},
	{"INFINITY", false},
	{"0x1p3", false},
	{"-10 -0X1P-2", false},
	{"1e400", false},
	{"-10 pancake", false},
	{"NaN", true},
	{"nan -10 -1e1", true},
	{"NaN 20 -60", true},
}

// dstFeed returns a feed whose Dst stream holds an open storm run: two
// readings below the storm threshold from dstStart.
func dstFeed(tb testing.TB) *Feed {
	tb.Helper()
	f := NewFeed(New(DefaultConfig()), 0)
	if _, err := f.IngestDst(dstStart, []float64{-60, -70}); err != nil {
		tb.Fatal(err)
	}
	return f
}

// postDst drives POST /v1/dst?start=start through the feed's handler.
func postDst(f *Feed, start, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v1/dst?start="+url.QueryEscape(start), strings.NewReader(body))
	rec := httptest.NewRecorder()
	f.Handler().ServeHTTP(rec, req)
	return rec
}

// checkDstState asserts what an accepted batch must leave behind: only
// finite or NaN Dst hours stored, and a risk view and delta ring that encode
// as JSON, so no stream subscriber loses a delta.
func checkDstState(tb testing.TB, f *Feed) {
	tb.Helper()
	for i, v := range f.eng.wx {
		if math.IsInf(v, 0) {
			tb.Fatalf("stored Dst hour %d is %v", i, v)
		}
	}
	if _, err := json.Marshal(f.Risk()); err != nil {
		tb.Fatalf("risk view does not encode: %v", err)
	}
	for _, d := range f.ring {
		if _, err := json.Marshal(d); err != nil {
			tb.Fatalf("delta %d does not encode: %v", d.Seq, err)
		}
	}
}

// TestDstEndpointReadings pins which readings POST /v1/dst accepts. A
// rejected batch answers 400 and applies nothing, so Version and Seq stay
// put. NaN is a missing hour: it is applied and ends the open storm run.
func TestDstEndpointReadings(t *testing.T) {
	for _, c := range dstReadings {
		t.Run(c.body, func(t *testing.T) {
			f := dstFeed(t)
			before, emitted := f.Risk(), len(f.ring)
			rec := postDst(f, dstNext.Format(time.RFC3339), c.body)
			if !c.ok {
				if rec.Code != http.StatusBadRequest {
					t.Fatalf("status %d, want 400", rec.Code)
				}
				if after := f.Risk(); after.Version != before.Version || after.Seq != before.Seq {
					t.Fatalf("rejected batch moved version/seq from %d/%d to %d/%d", before.Version, before.Seq, after.Version, after.Seq)
				}
				return
			}
			if rec.Code != http.StatusOK {
				t.Fatalf("status %d (%s), want 200", rec.Code, strings.TrimSpace(rec.Body.String()))
			}
			if len(f.ring) == emitted {
				t.Fatal("NaN hour emitted no delta, want the open storm run to close")
			}
			if first := f.ring[emitted]; first.Kind != KindStormClose || first.At != dstNext.Unix() || first.PeakNT != -70 {
				t.Fatalf("first delta %+v, want the storm closing at %s with peak -70", first, dstNext)
			}
			checkDstState(t, f)
		})
	}
}

func TestWatermarkLagGauge(t *testing.T) {
	f := seedFeed(t, 0)
	wm := f.Engine().WeatherWatermark()
	f.SetWatermarkLag(wm.Add(90 * time.Second))
	// The gauge is process-global; just exercise the zero-watermark guard too.
	NewFeed(New(DefaultConfig()), 0).SetWatermarkLag(wm)
}
