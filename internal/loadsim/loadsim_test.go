package loadsim

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"strconv"
	"testing"
	"time"
)

// stormConfig is the storm-spike scenario the acceptance gate measures:
// pollers and ingesters run steadily while a spike fleet slams the group
// endpoint against a capacity-limited server.
func stormConfig(seed int64) Config {
	return Config{
		Seed:           seed,
		Duration:       10 * time.Minute,
		Bulk:           2,
		Poll:           2,
		Spike:          6,
		Ingesters:      2,
		RatePerSec:     20,
		Burst:          10,
		CapacityPerSec: 8,
		CapacityBurst:  4,
		ArchiveDays:    10,
	}
}

func mustRun(t *testing.T, cfg Config) *Report {
	t.Helper()
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestRunSameSeedByteIdentical(t *testing.T) {
	cfg := stormConfig(7)
	cfg.Feed = 2
	cfg.FaultSchedule = "429:1/31,reset:1/37"
	a, err := mustRun(t, cfg).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	b, err := mustRun(t, cfg).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("same seed/mix/schedule diverged:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
	}
	// A different seed must actually change the run, or the determinism
	// above is vacuous.
	other := stormConfig(8)
	other.FaultSchedule = cfg.FaultSchedule
	c, err := mustRun(t, other).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical reports")
	}
}

// TestIncrementalFeedWorkload drives the feed subscribers against live
// ingest: the risk view must revalidate (304s), the delta stream must carry
// the ingest-driven events, and with no admission pressure the subscriber
// never fails.
func TestIncrementalFeedWorkload(t *testing.T) {
	rep := mustRun(t, Config{
		Seed:        11,
		Duration:    10 * time.Minute,
		Ingesters:   2,
		Feed:        3,
		RatePerSec:  50,
		Burst:       50,
		ArchiveDays: 10,
	})
	var feed *WorkloadStats
	for i := range rep.Workloads {
		if rep.Workloads[i].Name == "feed" {
			feed = &rep.Workloads[i]
		}
	}
	if feed == nil {
		t.Fatalf("no feed workload in report: %+v", rep.Workloads)
	}
	if feed.Clients != 3 || feed.Ops == 0 {
		t.Fatalf("feed workload did not run: %+v", feed)
	}
	if feed.Failures != 0 {
		t.Fatalf("feed subscribers failed without admission pressure: %+v", feed)
	}
	if feed.StreamEvents == 0 {
		t.Fatalf("delta stream carried no events despite live ingest: %+v", feed)
	}
	if feed.NotModified == 0 {
		t.Fatalf("risk view never revalidated: %+v", feed)
	}
	if rep.Ingest.Applied == 0 {
		t.Fatalf("ingest workload idle: %+v", rep.Ingest)
	}
}

func TestStormSpikeBackpressure(t *testing.T) {
	rep := mustRun(t, stormConfig(42))

	// The spike overwhelmed the capacity bucket: load was shed with 503s.
	if rep.Server.Overloaded == 0 {
		t.Fatal("storm spike never tripped the capacity bucket")
	}
	saw503 := false
	for _, sc := range rep.Statuses {
		if sc.Code == http.StatusServiceUnavailable && sc.Count > 0 {
			saw503 = true
		}
	}
	if !saw503 {
		t.Fatalf("no 503s on the wire: %+v", rep.Statuses)
	}

	// Backpressure never costs writes: every ingested set landed.
	if rep.Ingest.Dropped != 0 {
		t.Fatalf("dropped %d ingested sets under admission control", rep.Ingest.Dropped)
	}
	if rep.Ingest.Attempted == 0 || rep.Ingest.Applied != rep.Ingest.Attempted {
		t.Fatalf("ingest applied %d of %d attempted", rep.Ingest.Applied, rep.Ingest.Attempted)
	}

	// Shedding keeps the tail bounded: a spike operation retries through
	// Retry-After instead of queueing unboundedly.
	for _, w := range rep.Workloads {
		if w.Name != "spike" {
			continue
		}
		if w.Ops == 0 {
			t.Fatal("spike workload never ran")
		}
		if w.P99Ms <= 0 || w.P99Ms > 30_000 {
			t.Fatalf("spike p99 = %vms, want bounded (0, 30s]", w.P99Ms)
		}
	}

	// The pollers' conditional fetches paid off in 304s.
	for _, w := range rep.Workloads {
		if w.Name == "poll" && w.NotModified == 0 {
			t.Fatal("pollers never revalidated via 304")
		}
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	if _, err := Run(context.Background(), Config{Duration: 0, Poll: 1}); err == nil {
		t.Error("zero duration accepted")
	}
	if _, err := Run(context.Background(), Config{Duration: time.Minute}); err == nil {
		t.Error("empty mix accepted")
	}
	if _, err := Run(context.Background(), Config{Duration: time.Minute, Poll: 1, FaultSchedule: "bogus"}); err == nil {
		t.Error("bad fault schedule accepted")
	}
}

func TestTransportTransferTimeAndFaults(t *testing.T) {
	start := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	clock := NewClock(start)
	payload := bytes.Repeat([]byte("x"), 1000)
	mux := http.NewServeMux()
	mux.HandleFunc("/plain", func(w http.ResponseWriter, r *http.Request) {
		w.Write(payload)
	})
	mux.HandleFunc("/short", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", strconv.Itoa(2*len(payload)))
		w.Write(payload)
	})
	mux.HandleFunc("/reset", func(w http.ResponseWriter, r *http.Request) {
		panic(http.ErrAbortHandler)
	})
	tr := &Transport{Handler: mux, Clock: clock}
	get := func(path string) (*http.Response, error) {
		req, err := http.NewRequest(http.MethodGet, "http://sim"+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		return tr.RoundTrip(req)
	}

	before := clock.Now()
	resp, err := get("/plain")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil || !bytes.Equal(body, payload) {
		t.Fatalf("plain body: err=%v len=%d", err, len(body))
	}
	if got, want := clock.Now().Sub(before), perRequest+1000*perByte; got != want {
		t.Fatalf("transfer time %v, want %v (perRequest + 1000 bytes x perByte)", got, want)
	}

	// Declared length beyond the served bytes ends in a short read.
	resp, err = get("/short")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(resp.Body); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("short body read err = %v, want unexpected EOF", err)
	}

	// An aborted handler is a transport error, not a response.
	if _, err := get("/reset"); !errors.Is(err, errReset) {
		t.Fatalf("reset err = %v, want errReset", err)
	}
	if tr.resets != 1 || tr.requests != 3 {
		t.Fatalf("resets=%d requests=%d, want 1 and 3", tr.resets, tr.requests)
	}
}
