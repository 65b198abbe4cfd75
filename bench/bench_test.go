package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestMedianAndQuartiles(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
	if q1, q3 := quartiles([]float64{1, 2, 3}); q1 != 1 || q3 != 3 {
		t.Errorf("quartiles(1,2,3) = %v, %v, want 1, 3", q1, q3)
	}
	if q1, q3 := quartiles([]float64{7}); q1 != 7 || q3 != 7 {
		t.Errorf("quartiles of one sample = %v, %v", q1, q3)
	}
}

func TestPercentilesCountFailuresAsInf(t *testing.T) {
	ops := make([]op, 0, 100)
	for i := 1; i <= 98; i++ {
		ops = append(ops, op{ms: float64(i), ok: true})
	}
	// Two failures, one of them fast: a failure misses every limit however
	// quickly it came back.
	ops = append(ops, op{ms: 0.5}, op{ms: 1})
	lat := latencies(ops)
	if got := percentile(lat, 50); got != 50 {
		t.Errorf("p50 = %v, want 50", got)
	}
	if got := percentile(lat, 99); !math.IsInf(got, 1) {
		t.Errorf("p99 = %v, want +Inf", got)
	}
	if got := percentile(lat, 98); got != 98 {
		t.Errorf("p98 = %v, want 98", got)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	sample := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{n: 30}, // even p75 leaves only 7 beyond
		{n: 40, want: 75, ok: true},
		{n: 100, want: 90, ok: true},  // p95 would leave 5
		{n: 199, want: 90, ok: true},  // p95 leaves 9
		{n: 200, want: 95, ok: true},  // p95 leaves exactly 10
		{n: 1000, want: 99, ok: true}, // p99.9 would leave 1
		{n: 10000, want: 99.9, ok: true},
	} {
		p, _, ok := tail(sample(tc.n))
		if ok != tc.ok || p != tc.want {
			t.Errorf("tail of %d samples = p%v (ok %v), want p%v (ok %v)", tc.n, p, ok, tc.want, tc.ok)
		}
	}
}

func TestSelfTimeSubtractsUnionOfOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Lane: 1, Name: "bench.iteration", Start: 0, End: 100},
		{ID: 2, Parent: 1, Lane: 1, Name: "http.client", Start: 10, End: 60},
		{ID: 3, Parent: 1, Lane: 1, Name: "incremental.fanout", Start: 40, End: 90},
		{ID: 4, Parent: 2, Lane: 1, Name: "spacetrack.server.ingest", Start: 20, End: 50},
		{ID: 5, Parent: 4, Lane: 1, Name: "spacetrack.catalog.ingest", Start: 25, End: 35},
		// A child that overruns its parent counts only inside the parent.
		{ID: 6, Parent: 5, Lane: 1, Name: "x.late", Start: 30, End: 45},
		// Overlapping children are subtracted once.
		{ID: 7, Lane: 2, Name: "x.parent", Start: 0, End: 100},
		{ID: 8, Parent: 7, Lane: 2, Name: "x.child", Start: 10, End: 60},
		{ID: 9, Parent: 7, Lane: 2, Name: "x.child", Start: 40, End: 90},
	}
	b := analyze(spans)
	want := map[string]int64{
		"http.client":               50 - 30, // minus the server span
		"incremental.fanout":        50,      // no children, overlaps a sibling
		"spacetrack.server.ingest":  30 - 10,
		"spacetrack.catalog.ingest": 10 - 5,
		"x.late":                    15,
		"x.parent":                  100 - 80,
		"x.child":                   50 + 50,
	}
	for name, self := range want {
		if got := b.layers[name].self; got != self {
			t.Errorf("%s self = %d, want %d", name, got, self)
		}
	}
	if b.wall != 100 {
		t.Errorf("wall = %d, want 100", b.wall)
	}
	// The layers cover [10, 90] of the root's [0, 100].
	if b.covered != 80 {
		t.Errorf("covered = %d, want 80", b.covered)
	}
}

func TestCallbackTimeCountsForTheCaller(t *testing.T) {
	spans := []span{
		{ID: 1, Lane: 1, Name: "bench.client", Start: 0, End: 100},
		{ID: 2, Parent: 1, Lane: 1, Name: "spacetrack.server.history", Start: 0, End: 100},
		{ID: 3, Parent: 2, Lane: 1, Name: "spacetrack.catalog.history_each", Start: 10, End: 90, Callback: 60},
	}
	b := analyze(spans)
	if got := b.layers["spacetrack.catalog.history_each"].self; got != 20 {
		t.Errorf("catalog self = %d, want 20", got)
	}
	if got := b.layers["spacetrack.server.history"].self; got != 80 {
		t.Errorf("server self = %d, want 80", got)
	}
}

func TestUnionLen(t *testing.T) {
	ivs := []interval{{5, 10}, {0, 3}, {2, 6}, {20, 30}}
	if got := unionLen(ivs, 0, 25); got != 10+5 {
		t.Errorf("unionLen = %d, want 15", got)
	}
	if got := unionLen(nil, 0, 10); got != 0 {
		t.Errorf("unionLen(nil) = %d", got)
	}
}

func TestPerSlice(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(d time.Duration) time.Time { return t0.Add(d) }
	cs := []cpuSample{
		{at(0), 0},
		{at(sliceLen), 20 * time.Millisecond},
		{at(2 * sliceLen), 30 * time.Millisecond},
		// Cut short when the load stopped: no sample.
		{at(2*sliceLen + sliceLen/4), 40 * time.Millisecond},
	}
	ops := []op{
		{ok: true, end: at(sliceLen / 2)},
		{ok: true, end: at(sliceLen)}, // on the boundary: the earlier slice
		{ok: false, end: at(sliceLen + 1)},
		{ok: true, end: at(2*sliceLen + 1)},
	}
	rates, cpu := perSlice(ops, cs)
	perSec := float64(time.Second / sliceLen)
	if want := []float64{2 * perSec, 0}; !slices.Equal(rates, want) {
		t.Errorf("rates = %v, want %v (a failed operation is no throughput)", rates, want)
	}
	if want := []float64{10, 10}; !slices.Equal(cpu, want) {
		t.Errorf("cpu per op = %v, want %v (a failed operation still cost CPU)", cpu, want)
	}
	// A window shorter than any full slice is one sample.
	rates, cpu = perSlice(ops[:1], cs[:1:1])
	if rates != nil || cpu != nil {
		t.Errorf("one CPU sample gave %v, %v", rates, cpu)
	}
	short := []cpuSample{{at(0), 0}, {at(sliceLen / 4), 5 * time.Millisecond}}
	rates, cpu = perSlice([]op{{ok: true, end: at(1)}}, short)
	if len(rates) != 1 || rates[0] != 4*perSec || len(cpu) != 1 || cpu[0] != 5 {
		t.Errorf("short window = %v, %v, want one sample", rates, cpu)
	}
}

// benchmarkFile is the part of BENCHMARK.json the smoke test checks.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmoke runs every workload at toy size, untraced and traced, and
// checks that every metric BENCHMARK.json names is reported with its unit
// and every correctness check passes.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the commands under test")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	e := &env{
		root:    root,
		binDir:  filepath.Join(dir, "bin"),
		workDir: filepath.Join(dir, "work"),
		outDir:  filepath.Join(dir, "trace"),
		seed:    42,
		window:  time.Second,
		sz:      sizes{scaleSats: 2000, scaleDays: 1, figure: 1, readOps: 200, ingestOps: 100, rounds: 1},
	}
	ws := newWorkloads()
	var names []string
	for _, w := range ws {
		names = append(names, w.name())
	}
	var declared []string
	for _, w := range bf.Workloads {
		declared = append(declared, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(declared, ",") {
		t.Errorf("BENCHMARK.json declares workloads %v, the harness runs %v", declared, names)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for _, traced := range []bool{false, true} {
		var out bytes.Buffer
		e.out = &out
		s, err := runBench(ctx, e, newWorkloads(), traced)
		if err != nil {
			t.Fatal(err)
		}
		if !s.Correct || s.Failed != 0 || s.Attempted == 0 {
			t.Errorf("traced=%v: correct=%v failed=%d attempted=%d\n%s", traced, s.Correct, s.Failed, s.Attempted, out.String())
		}
		want := bf.EndToEnd
		if traced {
			want = bf.PerLayer
		}
		for _, w := range names {
			for _, m := range want {
				got, ok := s.Metrics[w+"/"+m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("traced=%v: %s %s = %+v (present %v), want unit %s", traced, w, m.Name, got, ok, m.Unit)
				}
			}
		}
		if len(s.Metrics) != len(names)*len(want) {
			t.Errorf("traced=%v: %d metrics reported, BENCHMARK.json names %d per workload", traced, len(s.Metrics), len(want))
		}
		if strings.Contains(out.String(), "FAIL") {
			t.Errorf("traced=%v: a check failed:\n%s", traced, out.String())
		}
		if testing.Verbose() {
			t.Logf("traced=%v output:\n%s", traced, out.String())
		}
	}
}
