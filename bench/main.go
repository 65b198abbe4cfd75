// Command bench is the repository benchmark: it builds cmd/cosmicdance,
// cmd/figures and cmd/spacetrackd from the checkout, drives them through
// four workloads, checks that their outputs are correct and prints every
// end-to-end metric by name and unit. With -trace it instead runs each
// workload's composition in process, records a span around every call into
// a module's public functions, and prints where the time went layer by
// layer.
//
// Usage, from the repository root:
//
//	bash bench/run.sh [-workload all|NAME[,NAME...]] [-seed S] [-seconds N] [-trace 0|1] [-out DIR]
//
// The last line of standard output is one JSON object: {"correct",
// "attempted", "failed", "metrics"}. See bench/README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// op is one timed operation of a workload: a scale run, a warm render, a
// request, an ingest round trip.
type op struct {
	class string
	ms    float64
	ok    bool
	end   time.Time // when the operation completed
}

// run is one round of a workload: its set-ups and their measured windows.
type run struct {
	setups []float64 // seconds each set-up took
	ops    []op
	window time.Duration // time the ops were measured over
	units  float64       // successful requests or ingests in a serving window
	// rates (work per second) and cpuMS (CPU milliseconds per operation) are
	// samples of throughput and cost: one per process run, or one per slice
	// of a serving window. Their medians are the reported values.
	rates, cpuMS []float64
	rssMB        []float64 // peak RSS of each process under test
}

// check is one correctness check; a failed check fails the invocation.
type check struct {
	name   string
	ok     bool
	detail string
}

// tracedRun is what a workload's -trace run yields besides its spans.
type tracedRun struct {
	rec      *recorder
	overhead float64  // % of extra time per operation against the untraced composition
	lines    []string // the traced run's own end-to-end values
	checks   []check
}

// workload is one benchmark input. Each keeps the state its checks compare
// across the runs of one invocation.
type workload interface {
	name() string
	// run runs one round: it sets the workload up and measures it for
	// budget.
	run(ctx context.Context, e *env, budget time.Duration) (*run, error)
	// checks reports the checks that span every run so far.
	checks(e *env) []check
	// rate names the workload's throughput in its own unit of work.
	rate() string
	// traced runs the workload's in-process composition untraced and
	// traced.
	traced(ctx context.Context, e *env, budget time.Duration) (*tracedRun, error)
}

// sizes fixes how much work each workload does; the smoke test shrinks it.
type sizes struct {
	scaleSats, scaleDays int
	figure               int // render only this figure; 0 renders all
	readOps, ingestOps   int // cap per run; 0 runs until the window closes
	rounds               int
}

// full is the benchmark's size.
var full = sizes{scaleSats: 100000, scaleDays: 7, rounds: 3}

// env is one invocation's settings.
type env struct {
	root    string // repository checkout
	binDir  string // built commands
	workDir string // scratch space, removed at exit
	outDir  string // -trace span files
	seed    int64
	window  time.Duration // measured time per workload
	sz      sizes
	out     io.Writer
}

func (e *env) bin(name string) string { return filepath.Join(e.binDir, name) }

func (e *env) printf(format string, args ...any) { fmt.Fprintf(e.out, format, args...) }

func newWorkloads() []workload {
	return []workload{&scaleWorkload{}, &figuresWorkload{}, &serveRead{}, &liveIngest{}}
}

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics every workload reports with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"throughput_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
}

// layers are the module calls the harness wraps in spans, reported by their
// self time. Self time is absolute, so speeding up one layer moves only that
// layer's number; shares of the traced wall, which sum to about 100%, are
// printed for people only.
var layers = []string{
	"spaceweather.generate",
	"constellation.run",
	"constellation.run_chunk",
	"core.build",
	"core.build_chunk_partial",
	"core.analyze",
	"core.track_decay_onset",
	"core.associate_track",
	"artifact.encode_segment",
	"artifact.decode_segment",
	"artifact.store",
	"artifact.load",
	"report.render",
	"spacetrack.archive.index",
	"spacetrack.client.group",
	"spacetrack.client.history",
	"spacetrack.server.group",
	"spacetrack.server.history",
	"spacetrack.server.ingest",
	"spacetrack.catalog.group_latest",
	"spacetrack.catalog.history_each",
	"spacetrack.catalog.ingest",
	"incremental.feed.seed",
	"incremental.feed.ingest",
	"incremental.feed.dst",
	"incremental.feed.risk",
	"incremental.fanout",
	"http.client",
}

// layerCounts are the per-layer counts a traced run reports.
var layerCounts = []metricDef{
	{"constellation.samples", "count"},
	{"core.observations", "count"},
	{"core.associate_track.hit_ratio", "ratio"},
	{"artifact.segment_bytes", "bytes"},
	{"artifact.store.bytes", "bytes"},
	{"artifact.load.bytes", "bytes"},
	{"spacetrack.server.bytes", "bytes"},
	{"spacetrack.catalog.delta_sets", "count"},
	{"incremental.deltas", "count"},
	{"incremental.deltas_per_batch", "count"},
}

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the result line.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (s *summary) tally(c check) {
	s.Attempted++
	if !c.ok {
		s.Failed++
		s.Correct = false
	}
}

func (s *summary) put(e *env, key, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		// JSON has no infinities: a metric with no finite value fails the run.
		e.printf("metric %s has no finite value\n", key)
		s.Correct = false
		v = -1
	}
	s.Metrics[key] = metricValue{v, unit}
}

func main() {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	names := fs.String("workload", "all", "workloads to run: all, or a comma-separated list")
	seed := fs.Int64("seed", 42, "seed every workload's inputs derive from")
	seconds := fs.Int("seconds", 15, "measured seconds per workload")
	traceFlag := fs.Int("trace", 0, "1 runs the traced in-process compositions and prints per-layer metrics")
	outDir := fs.String("out", filepath.Join(".bench_build", "trace"), "directory for the -trace span files")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	ws, err := pick(*names)
	if err == nil && *seconds < 1 {
		err = fmt.Errorf("-seconds must be at least 1, got %d", *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	e := &env{
		root:    root,
		binDir:  filepath.Join(root, ".bench_build", "bin"),
		workDir: filepath.Join(root, ".bench_build", "work"),
		outDir:  *outDir,
		seed:    *seed,
		window:  time.Duration(*seconds) * time.Second,
		sz:      full,
		out:     os.Stdout,
	}
	s, err := runBench(ctx, e, ws, *traceFlag != 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(s)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !s.Correct {
		os.Exit(1)
	}
}

// pick resolves the -workload flag.
func pick(names string) ([]workload, error) {
	all := newWorkloads()
	if names == "all" {
		return all, nil
	}
	var ws []workload
	for _, n := range strings.Split(names, ",") {
		found := false
		for _, w := range all {
			if w.name() == n {
				ws = append(ws, w)
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown workload %q", n)
		}
	}
	return ws, nil
}

// runBench builds the commands under test and runs the workloads: with
// tracing off, every workload's runs in interleaved rounds with the order
// rotated each round; with tracing on, each workload's traced composition.
func runBench(ctx context.Context, e *env, ws []workload, traced bool) (*summary, error) {
	if err := os.MkdirAll(e.workDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(e.workDir)
	e.printf("noise cpus_online=%d nproc=%d gomaxprocs=%d go=%s\n", onlineCPUs(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	start := time.Now()
	if err := build(ctx, e.root, e.binDir); err != nil {
		return nil, err
	}
	e.printf("build %.2fs (in no metric)\n", time.Since(start).Seconds())
	// A guard against a hung process under test, well past the longest
	// workload's run. The build, which may compile everything from an empty
	// cache, is outside it.
	ctx, cancel := context.WithTimeout(ctx, time.Duration(len(ws))*170*time.Second)
	defer cancel()

	s := &summary{Correct: true, Metrics: map[string]metricValue{}}
	key := func(w workload, metric string) string {
		if len(ws) == 1 {
			return metric
		}
		return w.name() + "/" + metric
	}
	if traced {
		for _, w := range ws {
			traceWorkload(ctx, e, w, s, func(m string) string { return key(w, m) })
		}
		return s, nil
	}

	runs := make([][]*run, len(ws))
	budget := e.window / time.Duration(e.sz.rounds)
	for r := 0; r < e.sz.rounds; r++ {
		for i := range ws {
			k := (i + r) % len(ws)
			w := ws[k]
			before := readCPUTimes()
			res, err := w.run(ctx, e, budget)
			if err != nil {
				s.tally(check{name: w.name() + " run", detail: err.Error()})
				e.printf("check %s run FAIL %v\n", w.name(), err)
				continue
			}
			e.printf("run round=%d workload=%s setup_s=%.4f setups=%d ops=%d %s\n",
				r+1, w.name(), median(res.setups), len(res.setups), len(res.ops), noiseBetween(before, readCPUTimes()))
			runs[k] = append(runs[k], res)
		}
	}
	for i, w := range ws {
		reportWorkload(e, w, runs[i], s, func(m string) string { return key(w, m) })
	}
	return s, nil
}

// reportWorkload prints one workload's end-to-end metrics and checks and records
// them in the summary.
func reportWorkload(e *env, w workload, runs []*run, s *summary, key func(string) string) {
	var setups, rates, cpus, rss []float64
	var ops []op
	for _, r := range runs {
		setups = append(setups, r.setups...)
		rates = append(rates, r.rates...)
		cpus = append(cpus, r.cpuMS...)
		rss = append(rss, r.rssMB...)
		ops = append(ops, r.ops...)
	}
	lat := latencies(ops)
	values := map[string]float64{
		"setup_s":          median(setups),
		"latency_p50_ms":   percentile(lat, 50),
		"throughput_per_s": median(rates),
		"cpu_ms_per_op":    median(cpus),
		"peak_rss_mb":      median(rss),
	}
	samples := map[string][]float64{"setup_s": setups, "throughput_per_s": rates, "cpu_ms_per_op": cpus, "peak_rss_mb": rss}
	for _, m := range endToEnd {
		v := values[m.name]
		if xs, ok := samples[m.name]; ok {
			q1, q3 := quartiles(xs)
			e.printf("%s %s %.6g %s n=%d q1=%.6g q3=%.6g max=%.6g\n", w.name(), m.name, v, m.unit, len(xs), q1, q3, maximum(xs))
		} else {
			e.printf("%s %s %.6g %s n=%d\n", w.name(), m.name, v, m.unit, len(lat))
		}
		s.put(e, key(m.name), m.unit, v)
	}
	e.printf("%s %s %.6g 1/s n=%d\n", w.name(), w.rate(), values["throughput_per_s"], len(rates))
	printClasses(e, w.name(), ops)

	failed := failures(ops)
	s.Attempted += len(ops)
	s.Failed += failed
	s.Correct = s.Correct && failed == 0
	if len(ops) > 0 {
		e.printf("%s error_ratio %.6g ratio n=%d\n", w.name(), float64(failed)/float64(len(ops)), len(ops))
	}
	if len(ops) == 0 {
		s.tally(check{name: w.name() + " measured at least one operation"})
	}
	for _, c := range w.checks(e) {
		printCheck(e, w.name(), c)
		s.tally(c)
	}
}

// printClasses prints each operation class's median and its highest
// percentile backed by at least ten samples.
func printClasses(e *env, workload string, ops []op) {
	byClass := map[string][]op{}
	for _, o := range ops {
		byClass[o.class] = append(byClass[o.class], o)
	}
	classes := make([]string, 0, len(byClass))
	for c := range byClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		lat := latencies(byClass[c])
		e.printf("%s %s_p50_ms %.6g ms n=%d\n", workload, c, percentile(lat, 50), len(lat))
		if p, v, ok := tail(lat); ok {
			e.printf("%s %s_p%g_ms %.6g ms n=%d\n", workload, c, p, v, len(lat))
		}
	}
}

func printCheck(e *env, workload string, c check) {
	status := "ok"
	if !c.ok {
		status = "FAIL"
	}
	e.printf("check %s %s %s %s\n", workload, c.name, status, c.detail)
}

// traceWorkload runs one workload's traced composition and reports its
// per-layer metrics.
func traceWorkload(ctx context.Context, e *env, w workload, s *summary, key func(string) string) {
	before := readCPUTimes()
	tr, err := w.traced(ctx, e, e.window/time.Duration(e.sz.rounds))
	e.printf("run traced workload=%s %s\n", w.name(), noiseBetween(before, readCPUTimes()))
	if err != nil {
		c := check{name: "traced run", detail: err.Error()}
		printCheck(e, w.name(), c)
		s.tally(c)
		return
	}
	for _, l := range tr.lines {
		e.printf("%s traced %s\n", w.name(), l)
	}
	b := analyze(tr.rec.spans)
	wall := float64(b.wall)
	for _, l := range layers {
		var self float64
		if st := b.layers[l]; st != nil && wall > 0 {
			self = float64(st.self) / 1e6
			e.printf("%s %s.busy_ms %.6g ms\n", w.name(), l, float64(st.busy)/1e6)
			e.printf("%s %s.self_ms %.6g ms\n", w.name(), l, self)
			e.printf("%s %s.calls %d count\n", w.name(), l, st.calls)
			e.printf("%s %s.share %.6g %%\n", w.name(), l, 100*float64(st.self)/wall)
		}
		s.put(e, key(l+".self_ms"), "ms", self)
	}
	for _, c := range layerCounts {
		v := tr.rec.counts[c.name]
		if v != 0 {
			e.printf("%s %s %.6g %s\n", w.name(), c.name, v, c.unit)
		}
		s.put(e, key(c.name), c.unit, v)
	}
	coverage := 0.0
	if wall > 0 {
		coverage = 100 * float64(b.covered) / wall
	}
	e.printf("%s trace.coverage %.6g %% of %.6g ms traced wall\n", w.name(), coverage, wall/1e6)
	tr.checks = append(tr.checks, check{name: "layers cover at least 90% of the traced wall", ok: coverage >= 90})
	e.printf("%s trace.overhead %.6g %%\n", w.name(), tr.overhead)
	s.put(e, key("trace.coverage"), "%", coverage)
	s.put(e, key("trace.overhead"), "%", tr.overhead)
	path, err := tr.rec.writeSpans(e.outDir, w.name())
	if err != nil {
		tr.checks = append(tr.checks, check{name: "spans written", detail: err.Error()})
	} else {
		e.printf("%s spans %s (%d spans)\n", w.name(), path, len(tr.rec.spans))
	}
	for _, c := range tr.checks {
		printCheck(e, w.name(), c)
		s.tally(c)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
