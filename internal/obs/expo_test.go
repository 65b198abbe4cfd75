package obs_test

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cosmicdance/internal/obs"
	"cosmicdance/internal/testkit"
)

// expoRegistry builds a registry with one of everything, deterministic
// values, for the exposition goldens.
func expoRegistry() *obs.Registry {
	r := obs.NewRegistry()
	r.Counter("artifact_cache_hits_total", "kind", "weather").Add(3)
	r.Counter("artifact_cache_hits_total", "kind", "dataset").Add(1)
	r.Counter("parallel_tasks_total").Add(2048)
	r.Gauge("spacetrackd_up").Set(1)
	h := r.Histogram("parallel_batch_workers", []float64{1, 2, 4, 8})
	for _, v := range []float64{1, 1, 4, 8, 16} {
		h.Observe(v)
	}
	return r
}

// TestPrometheusGolden pins the Prometheus text exposition: stable ordering,
// stable float formatting, cumulative buckets.
func TestPrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := expoRegistry().Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	testkit.Golden(t, "exposition_prometheus.golden", buf.Bytes())
	// Re-snapshotting identical state must render byte-identically.
	var again bytes.Buffer
	if err := expoRegistry().Snapshot().WritePrometheus(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("two expositions of identical state differ")
	}
}

// TestJSONGolden pins the JSON exposition shape.
func TestJSONGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := expoRegistry().Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	testkit.Golden(t, "exposition_json.golden", buf.Bytes())
	var decoded obs.Snapshot
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("exposition is not valid JSON: %v", err)
	}
	if len(decoded.Counters) != 3 || len(decoded.Gauges) != 1 || len(decoded.Histograms) != 1 {
		t.Fatalf("decoded %d/%d/%d metrics", len(decoded.Counters), len(decoded.Gauges), len(decoded.Histograms))
	}
}

func TestMetricsHandler(t *testing.T) {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/metrics", nil)
	obs.Handler(expoRegistry()).ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		`artifact_cache_hits_total{kind="weather"} 3`,
		"# TYPE parallel_batch_workers histogram",
		`parallel_batch_workers_bucket{le="+Inf"} 5`,
		"parallel_batch_workers_count 5",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("exposition missing %q:\n%s", want, body)
		}
	}
}

func TestWriteRunReport(t *testing.T) {
	clock := testkit.NewClock(time.Date(2024, 5, 10, 0, 0, 0, 0, time.UTC))
	tr := obs.NewTracer(clock.Now)
	root := tr.Start("analyze")
	child := tr.Start("weather")
	clock.Advance(250 * time.Millisecond)
	child.End()
	clock.Advance(100 * time.Millisecond)
	root.End()

	var buf bytes.Buffer
	if err := obs.WriteRunReport(&buf, expoRegistry(), tr); err != nil {
		t.Fatal(err)
	}
	testkit.Golden(t, "run_report.golden", buf.Bytes())
	// A nil tracer is a legal report input.
	if err := obs.WriteRunReport(&bytes.Buffer{}, expoRegistry(), nil); err != nil {
		t.Fatal(err)
	}
}
