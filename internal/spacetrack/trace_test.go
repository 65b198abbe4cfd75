package spacetrack

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"cosmicdance/internal/obs"
	"cosmicdance/internal/testkit"
	"cosmicdance/internal/tle"
)

// TestTraceHeaderPropagation pins the trace plumbing end to end: an arriving
// Cosmic-Trace header is honoured and echoed, a header-less request gets an
// ID minted from the server's seeded stream, and the completed request lands
// in the flight recorder with its phase spans.
func TestTraceHeaderPropagation(t *testing.T) {
	archive, _, end := buildArchive(t, 5)
	srv := NewServer(archive, end)
	srv.Trace = obs.NewIDStream(42, 0)
	flight := obs.NewFlightRecorder(64, srv.Now)
	srv.Flight = flight
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	const path = "/NORAD/elements/gp.php?GROUP=starlink&FORMAT=tle"

	// A client-minted ID is honoured and echoed verbatim.
	want := obs.TraceID(0xdeadbeefcafef00d).String()
	resp, _ := doGet(t, ts, path, map[string]string{obs.TraceHeader: want})
	if got := resp.Header.Get(obs.TraceHeader); got != want {
		t.Fatalf("echoed trace %q, want %q", got, want)
	}

	// A header-less request gets a server-minted ID — the stream's first.
	minted := obs.NewIDStream(42, 0).Next().String()
	resp, _ = doGet(t, ts, path, nil)
	if got := resp.Header.Get(obs.TraceHeader); got != minted {
		t.Fatalf("minted trace %q, want %q", got, minted)
	}

	// A malformed header degrades to a minted ID, never an error.
	resp, _ = doGet(t, ts, path, map[string]string{obs.TraceHeader: "not-hex"})
	if resp.StatusCode != http.StatusOK || resp.Header.Get(obs.TraceHeader) == "" {
		t.Fatalf("malformed header: status %d trace %q", resp.StatusCode, resp.Header.Get(obs.TraceHeader))
	}

	// The flight recorder holds all three requests with their spans.
	events := flight.Dump()
	if len(events) != 3 {
		t.Fatalf("flight recorded %d events, want 3", len(events))
	}
	first := events[0]
	if first.Kind != "request" || first.Trace != want || first.Endpoint != "group" || first.Status != http.StatusOK {
		t.Fatalf("first flight event = %+v", first)
	}
	names := make([]string, len(first.Spans))
	for i, sp := range first.Spans {
		names[i] = sp.Name
	}
	if got := strings.Join(names, ","); got != "admission,catalog_read,gzip" {
		t.Fatalf("request spans = %q, want admission,catalog_read,gzip", got)
	}
	if events[1].Trace != minted {
		t.Fatalf("second flight event trace %q, want minted %q", events[1].Trace, minted)
	}
}

// stepClock is a deterministic clock that moves forward by step on every
// read, so each span boundary the server records lands on a distinct,
// reproducible instant.
type stepClock struct {
	mu   sync.Mutex
	now  time.Time
	step time.Duration
}

func (c *stepClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(c.step)
	return c.now
}

// TestFlightRecorderGolden pins the flight recorder's JSON dump after one
// group fetch, one history window and one ingest batch: every event's
// spans, their names and order, and their start_ns/end_ns on a clock that
// ticks a millisecond per read.
func TestFlightRecorderGolden(t *testing.T) {
	archive, _, end := buildArchive(t, 5)
	cat := NewCatalog(archive, end)
	srv := NewServer(cat, end)
	clock := &stepClock{now: end, step: time.Millisecond}
	srv.Now = clock.Now
	srv.Trace = obs.NewIDStream(42, 0)
	srv.Flight = obs.NewFlightRecorder(64, srv.Now)
	var ingested obs.TraceID
	srv.OnIngest = func(_ string, _ []*tle.TLE, _ int, trace obs.TraceID) { ingested = trace }
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if resp, _ := doGet(t, ts, "/NORAD/elements/gp.php?GROUP=starlink&FORMAT=tle", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("group: status %d", resp.StatusCode)
	}
	from := end.Add(-48 * time.Hour).Format(time.RFC3339)
	sats := archive.GroupLatest("starlink", end)
	history := fmt.Sprintf("/history?catalog=%d&from=%s&to=%s", sats[0].CatalogNumber, from, end.Format(time.RFC3339))
	if resp, _ := doGet(t, ts, history, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("history: status %d", resp.StatusCode)
	}
	var buf bytes.Buffer
	if err := tle.Write(&buf, []*tle.TLE{cloneSet(sats[0], 91000, end.Add(-time.Minute))}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/ingest?group=starlink", "text/plain", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: status %d", resp.StatusCode)
	}
	if want := obs.ParseTraceID(resp.Header.Get(obs.TraceHeader)); ingested != want || want == 0 {
		t.Fatalf("OnIngest saw trace %s, want the request's %s", ingested, want)
	}

	var dump bytes.Buffer
	if err := srv.Flight.WriteJSON(&dump); err != nil {
		t.Fatal(err)
	}
	testkit.Golden(t, "flight_recorder.golden", dump.Bytes())
}

// TestRejectsCarryTraces pins the storm post-mortem's primary key: requests
// shed by the per-client bucket land in the flight recorder as reject events
// naming their trace IDs, and burn SLO error budget.
func TestRejectsCarryTraces(t *testing.T) {
	archive, _, end := buildArchive(t, 5)
	srv := NewServer(archive, end) // pinned clock: the bucket never refills
	srv.RatePerSec = 1
	srv.Burst = 2
	flight := obs.NewFlightRecorder(64, srv.Now)
	srv.Flight = flight
	srv.SLO = obs.NewSLOTracker(nil, []obs.Objective{
		{Endpoint: "group", Availability: 0.99, LatencyP99Ms: 400, Window: 5 * time.Minute},
	}, srv.Now)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const path = "/NORAD/elements/gp.php?GROUP=starlink&FORMAT=tle"
	stream := obs.NewIDStream(7, 1)
	var traces []string
	var rejected []string
	for i := 0; i < 5; i++ {
		id := stream.Next().String()
		traces = append(traces, id)
		resp, _ := doGet(t, ts, path, map[string]string{obs.TraceHeader: id})
		if resp.StatusCode == http.StatusTooManyRequests {
			rejected = append(rejected, id)
			// The echo precedes admission, so even the reject names its trace.
			if got := resp.Header.Get(obs.TraceHeader); got != id {
				t.Fatalf("reject echoed %q, want %q", got, id)
			}
		}
	}
	if len(rejected) != 3 {
		t.Fatalf("rejected %d of 5, want 3 (burst 2, frozen clock)", len(rejected))
	}

	got := flight.RejectedTraces()
	if len(got) != len(rejected) {
		t.Fatalf("flight names %d rejected traces %v, want %d %v", len(got), got, len(rejected), rejected)
	}
	want := map[string]bool{}
	for _, id := range rejected {
		want[id] = true
	}
	for _, id := range got {
		if !want[id] {
			t.Fatalf("flight names unrejected trace %s", id)
		}
	}
	for _, ev := range flight.Dump() {
		if ev.Kind == "reject" && (ev.Detail != "per_client" || ev.Status != http.StatusTooManyRequests) {
			t.Fatalf("reject event = %+v", ev)
		}
	}

	rep := srv.SLO.Report()
	if len(rep) != 1 || rep[0].Ops != 5 || rep[0].Errors != 3 {
		t.Fatalf("slo = %+v, want 5 ops / 3 errors", rep)
	}
	if rep[0].Verdict != "fail" {
		t.Fatalf("60%% error rate passed the SLO: %+v", rep[0])
	}
}

// TestLatencyExemplars pins the exemplar path: a traced request leaves its
// trace ID on the latency bucket it landed in, JSON-snapshot only.
func TestLatencyExemplars(t *testing.T) {
	archive, _, end := buildArchive(t, 5)
	srv := NewServer(archive, end)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	id := obs.TraceID(0x1122334455667788)
	resp, _ := doGet(t, ts, "/NORAD/elements/gp.php?GROUP=starlink&FORMAT=tle",
		map[string]string{obs.TraceHeader: id.String()})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}

	for _, m := range obs.Default().Snapshot().Histograms {
		if m.Name != "spacetrack_server_latency_seconds" || !strings.Contains(m.Labels, `endpoint="group"`) {
			continue
		}
		for _, ex := range m.Exemplars {
			if ex == id.String() {
				return
			}
		}
		t.Fatalf("trace %s not among exemplars %v", id, m.Exemplars)
	}
	t.Fatal("group latency histogram missing from snapshot")
}

// TestClientTraceReusedAcrossRetries pins the client side of propagation:
// one ID per logical request, sent on every attempt, so a storm post-mortem
// sees the same trace rejected and then served.
func TestClientTraceReusedAcrossRetries(t *testing.T) {
	archive, _, end := buildArchive(t, 5)
	inner := NewServer(archive, end).Handler()
	var seen []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen = append(seen, r.Header.Get(obs.TraceHeader))
		if len(seen) < 3 {
			w.Header().Set("Retry-After", "0")
			http.Error(w, "shedding", http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()

	c, _ := noSleepClient(t, ts)
	c.Trace = obs.NewIDStream(42, 3)
	if _, err := c.FetchGroup(context.Background(), "starlink"); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 {
		t.Fatalf("server saw %d attempts, want 3", len(seen))
	}
	want := obs.NewIDStream(42, 3).Next().String()
	for i, got := range seen {
		if got != want {
			t.Fatalf("attempt %d sent trace %q, want %q on every retry", i, got, want)
		}
	}
}

// TestHealthzBody is the fixed-clock regression test for the enriched
// /healthz: catalog epoch per group, daemon-contributed info, and a Now
// that reads the injected clock, all deterministic for identical state.
func TestHealthzBody(t *testing.T) {
	archive, _, end := buildArchive(t, 5)
	cat := NewCatalog(archive, end)
	srv := NewServer(cat, end)
	srv.HealthInfo = func() map[string]string {
		return map[string]string{"fleet": "small", "feed_seq": "17"}
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, body := doGet(t, ts, "/healthz", nil)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("healthz: status %d type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	var hs HealthStatus
	if err := json.Unmarshal(body, &hs); err != nil {
		t.Fatalf("unmarshal healthz: %v\n%s", err, body)
	}
	if hs.Status != "ok" {
		t.Fatalf("status %q", hs.Status)
	}
	if want := end.UTC().Format(time.RFC3339); hs.Now != want {
		t.Fatalf("now %q, want the pinned clock %q", hs.Now, want)
	}
	if len(hs.Groups) != 1 || hs.Groups[0].Group != "starlink" || hs.Groups[0].Version == 0 {
		t.Fatalf("groups = %+v", hs.Groups)
	}
	if hs.Info["fleet"] != "small" || hs.Info["feed_seq"] != "17" {
		t.Fatalf("info = %+v", hs.Info)
	}

	// The body is deterministic for identical state: the catalog epoch only
	// moves on ingest, and the clock is pinned.
	_, again := doGet(t, ts, "/healthz", nil)
	if string(again) != string(body) {
		t.Fatalf("healthz body drifted between identical-state reads:\n%s\n---\n%s", body, again)
	}
}
