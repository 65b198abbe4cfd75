package obs_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"cosmicdance/internal/obs"
	"cosmicdance/internal/testkit"
)

// promtextLine matches one sample line of the text exposition format
// (version 0.0.4): metric name, optional label list, and a value. Label
// values are validated separately so escape errors fail with a pointed
// message instead of a generic mismatch.
var promtextLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\\\|\\"|\\n)*"(,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\\\|\\"|\\n)*")*\})? (-?[0-9.e+E-]+|[+-]Inf|NaN)$`)

var promtextType = regexp.MustCompile(`^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)$`)

// checkPromtext validates every line of an exposition against the grammar
// and returns the parsed (series, value) pairs of the sample lines.
func checkPromtext(t *testing.T, body string) map[string]string {
	t.Helper()
	samples := make(map[string]string)
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			if !promtextType.MatchString(line) {
				t.Fatalf("malformed comment line %q", line)
			}
			continue
		}
		if !promtextLine.MatchString(line) {
			t.Fatalf("line violates the promtext grammar: %q", line)
		}
		sp := strings.LastIndex(line, " ")
		samples[line[:sp]] = line[sp+1:]
	}
	return samples
}

// TestPromtextConformance drives the exposition through the promtext
// grammar with hostile label values (backslash, quote, newline, tab) and
// pins the escaped rendering with a golden. Only \\, \", and \n may be
// escaped; a tab passes through raw — strconv.Quote-style \t is a grammar
// violation this test exists to keep out.
func TestPromtextConformance(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("fetch_total", "path", `C:\tle\starlink`).Add(1)
	r.Counter("fetch_total", "path", `say "cheese"`).Add(2)
	r.Counter("fetch_total", "path", "line\nbreak").Add(3)
	r.Counter("fetch_total", "path", "tab\there").Add(4)
	r.Gauge("up").Set(1)
	h := r.Histogram("latency_ms", []float64{5, 50}, "endpoint", "group")
	h.Observe(3)
	h.Observe(500)

	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	samples := checkPromtext(t, buf.String())
	testkit.Golden(t, "promtext_escaping.golden", buf.Bytes())

	for series, want := range map[string]string{
		`fetch_total{path="C:\\tle\\starlink"}`:         "1",
		`fetch_total{path="say \"cheese\""}`:            "2",
		`fetch_total{path="line\nbreak"}`:               "3",
		"fetch_total{path=\"tab\there\"}":               "4", // raw tab inside the quotes
		`latency_ms_bucket{endpoint="group",le="+Inf"}`: "2",
		`latency_ms_count{endpoint="group"}`:            "2",
		`latency_ms_sum{endpoint="group"}`:              "503",
	} {
		if got := samples[series]; got != want {
			t.Fatalf("series %q = %q, want %q\nexposition:\n%s", series, got, want, buf.String())
		}
	}
}

// TestPromtextHistogramInvariants checks the format's histogram contract on
// a realistic registry: every family ends in a le="+Inf" bucket whose
// cumulative count equals the _count sample, and every histogram has _sum.
func TestPromtextHistogramInvariants(t *testing.T) {
	r := obs.NewRegistry()
	h := r.Histogram("latency_ms", []float64{1, 10, 100}, "endpoint", "group")
	for _, v := range []float64{0.5, 7, 80, 4000} {
		h.Observe(v)
	}
	empty := r.Histogram("latency_ms", []float64{1, 10, 100}, "endpoint", "history")
	_ = empty // registered, never observed: still must expose a full bucket set

	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	samples := checkPromtext(t, buf.String())
	for _, ep := range []string{"group", "history"} {
		inf, ok := samples[fmt.Sprintf(`latency_ms_bucket{endpoint=%q,le="+Inf"}`, ep)]
		if !ok {
			t.Fatalf("endpoint %s has no +Inf bucket:\n%s", ep, buf.String())
		}
		count, ok := samples[fmt.Sprintf(`latency_ms_count{endpoint=%q}`, ep)]
		if !ok {
			t.Fatalf("endpoint %s has no _count:\n%s", ep, buf.String())
		}
		if inf != count {
			t.Fatalf("endpoint %s: +Inf bucket %s != _count %s", ep, inf, count)
		}
		if _, ok := samples[fmt.Sprintf(`latency_ms_sum{endpoint=%q}`, ep)]; !ok {
			t.Fatalf("endpoint %s has no _sum:\n%s", ep, buf.String())
		}
	}
	if samples[`latency_ms_bucket{endpoint="group",le="+Inf"}`] != "4" {
		t.Fatalf("group +Inf bucket = %s, want 4", samples[`latency_ms_bucket{endpoint="group",le="+Inf"}`])
	}
}

func TestSnapshotEmptyRegistry(t *testing.T) {
	r := obs.NewRegistry()
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Gauges) != 0 || len(snap.Histograms) != 0 {
		t.Fatalf("empty registry snapshot = %+v", snap)
	}
	var prom bytes.Buffer
	if err := snap.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if prom.Len() != 0 {
		t.Fatalf("empty registry exposition = %q", prom.String())
	}
	var js bytes.Buffer
	if err := snap.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var back obs.Snapshot
	if err := json.Unmarshal(js.Bytes(), &back); err != nil {
		t.Fatalf("empty snapshot JSON invalid: %v", err)
	}
}

func TestSnapshotZeroCountHistogram(t *testing.T) {
	r := obs.NewRegistry()
	r.Histogram("latency_ms", []float64{1, 10})
	snap := r.Snapshot()
	if len(snap.Histograms) != 1 {
		t.Fatalf("snapshot has %d histograms", len(snap.Histograms))
	}
	hv := snap.Histograms[0]
	if hv.Count != 0 || hv.Sum != 0 || len(hv.Counts) != 3 || hv.Exemplars != nil {
		t.Fatalf("zero-count histogram = %+v", hv)
	}
	for i, n := range hv.Counts {
		if n != 0 {
			t.Fatalf("bucket %d = %d, want 0", i, n)
		}
	}
	var buf bytes.Buffer
	if err := snap.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`latency_ms_bucket{le="+Inf"} 0`, "latency_ms_sum 0", "latency_ms_count 0"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("zero-count exposition missing %q:\n%s", want, buf.String())
		}
	}
}

// TestDuplicateLabelRegistration pins both duplicate shapes: re-registering
// an identical (name, labels) set returns the shared handle for every metric
// kind, and repeating a label *key* inside one registration panics (it would
// render an illegal series).
func TestDuplicateLabelRegistration(t *testing.T) {
	r := obs.NewRegistry()
	if a, b := r.Gauge("g", "k", "v"), r.Gauge("g", "k", "v"); a != b {
		t.Fatal("duplicate gauge registration returned distinct handles")
	}
	if a, b := r.Histogram("h", []float64{1}, "k", "v"), r.Histogram("h", []float64{1}, "k", "v"); a != b {
		t.Fatal("duplicate histogram registration returned distinct handles")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("repeated label key did not panic")
		}
	}()
	r.Counter("c", "k", "a", "k", "b")
}

// TestHistogramExemplars pins the exemplar contract: ObserveExemplar lands
// the trace in the bucket its value selects, exemplars surface only in the
// JSON snapshot (the 0.0.4 text format predates exemplar syntax), and a
// zero trace observes without pinning.
func TestHistogramExemplars(t *testing.T) {
	r := obs.NewRegistry()
	h := r.Histogram("latency_ms", []float64{1, 10})
	h.ObserveExemplar(0.5, obs.TraceID(0xaa))
	h.ObserveExemplar(700, obs.TraceID(0xbb))
	h.ObserveExemplar(5, 0)                   // no trace: counted, not pinned
	h.ObserveExemplar(0.7, obs.TraceID(0xcc)) // last writer wins in bucket 0

	snap := r.Snapshot()
	hv := snap.Histograms[0]
	if hv.Count != 4 {
		t.Fatalf("count = %d, want 4", hv.Count)
	}
	want := []string{"00000000000000cc", "", "00000000000000bb"}
	if len(hv.Exemplars) != len(want) {
		t.Fatalf("exemplars = %v, want %v", hv.Exemplars, want)
	}
	for i := range want {
		if hv.Exemplars[i] != want[i] {
			t.Fatalf("exemplars = %v, want %v", hv.Exemplars, want)
		}
	}

	var prom bytes.Buffer
	if err := snap.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	checkPromtext(t, prom.String())
	if strings.Contains(prom.String(), "cc") && strings.Contains(prom.String(), "exemplar") {
		t.Fatalf("text exposition leaked exemplars:\n%s", prom.String())
	}

	var js bytes.Buffer
	if err := snap.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(js.String(), strconv.Quote("00000000000000bb")) {
		t.Fatalf("JSON snapshot missing exemplar:\n%s", js.String())
	}

	r.SetEnabled(false)
	h.ObserveExemplar(0.5, obs.TraceID(0xdd))
	if got := r.Snapshot().Histograms[0]; got.Count != 4 || got.Exemplars[0] != "00000000000000cc" {
		t.Fatalf("disabled registry recorded an exemplar: %+v", got)
	}
}
