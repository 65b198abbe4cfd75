package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// A span is one call into a layer, recorded by the harness around a public
// function of that layer's module. Names read "module.call". Spans named
// "bench.*" are the harness's own roots; every other span is a layer.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Lane   int    `json:"lane"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Callback is time inside the span that the layer spent running a
	// callback its caller supplied (the history writer a streaming archive
	// yields to). That time is the caller's work, so it counts towards the
	// parent's self time, not this span's.
	Callback int64 `json:"callback_ns,omitempty"`
}

// A lane is one serial timeline of the traced run: a client connection, the
// ingest writer, the set-up. Spans recorded on a server on behalf of a lane
// carry that lane, and the lane's stack of open spans gives them a parent.
//
// recorder keeps every span in memory and writes them out when the run
// ends. A nil *recorder records nothing, so one composition serves both the
// traced and the untraced run.
type recorder struct {
	origin time.Time

	mu     sync.Mutex
	spans  []span
	open   map[int][]int // lane → open span IDs, innermost last
	counts map[string]float64
}

func newRecorder() *recorder {
	return &recorder{origin: time.Now(), open: map[int][]int{}, counts: map[string]float64{}}
}

// now is the recorder clock: nanoseconds since the recorder started.
func (r *recorder) now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.origin)) //cosmiclint:allow nondet span timestamps are benchmark measurements, never program output
}

func (r *recorder) push(lane int, name string, parent int) int {
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Lane: lane, Name: name, Start: r.now()})
	r.open[lane] = append(r.open[lane], id)
	return id
}

// root opens a span with no parent and discards whatever the lane still had
// open, so a server span that ends late cannot adopt the next request.
func (r *recorder) root(lane int, name string) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.open[lane] = nil
	return r.push(lane, name, 0)
}

// begin opens a span whose parent is the lane's innermost open span.
func (r *recorder) begin(lane int, name string) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	parent := 0
	if st := r.open[lane]; len(st) > 0 {
		parent = st[len(st)-1]
	}
	return r.push(lane, name, parent)
}

// child opens a span under an explicit parent.
func (r *recorder) child(lane int, name string, parent int) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.push(lane, name, parent)
}

// end closes span id, crediting callback to its parent.
func (r *recorder) end(id int, callback time.Duration) {
	if r == nil || id == 0 {
		return
	}
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	sp := &r.spans[id-1]
	sp.End, sp.Callback = t, int64(callback)
	st := r.open[sp.Lane]
	for i := len(st) - 1; i >= 0; i-- {
		if st[i] == id {
			r.open[sp.Lane] = append(st[:i:i], st[i+1:]...)
			break
		}
	}
}

// interval records a finished span that was never on a lane's stack: one
// that starts in one goroutine and ends in another.
func (r *recorder) interval(lane int, name string, parent int, start, end int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Lane: lane, Name: name, Start: start, End: end})
}

// add accumulates a per-layer count.
func (r *recorder) add(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counts[name] += v
}

// layerStat is one layer's share of a traced run.
type layerStat struct {
	calls      int
	busy, self int64 // nanoseconds
}

// breakdown is what a traced run's spans say about where its time went.
type breakdown struct {
	layers  map[string]*layerStat
	wall    int64 // summed durations of the harness's root spans
	covered int64 // time in those roots inside at least one layer span of their lane
}

func isLayer(name string) bool { return !strings.HasPrefix(name, "bench.") }

// analyze computes every layer's busy and self time. A span's self time is
// its duration minus the union of its children's intervals (children may
// overlap one another), plus the callback time its children credit back.
func analyze(spans []span) breakdown {
	children := map[int][]int{}
	for i, sp := range spans {
		if sp.Parent != 0 {
			children[sp.Parent] = append(children[sp.Parent], i)
		}
	}
	b := breakdown{layers: map[string]*layerStat{}}
	for _, sp := range spans {
		if !isLayer(sp.Name) {
			continue
		}
		var ivs []interval
		var credit int64
		for _, c := range children[sp.ID] {
			ivs = append(ivs, interval{spans[c].Start, spans[c].End})
			credit += spans[c].Callback
		}
		st := b.layers[sp.Name]
		if st == nil {
			st = &layerStat{}
			b.layers[sp.Name] = st
		}
		dur := sp.End - sp.Start
		st.calls++
		st.busy += dur
		st.self += dur - unionLen(ivs, sp.Start, sp.End) - sp.Callback + credit
	}

	laneLayers := map[int][]interval{}
	for _, sp := range spans {
		if isLayer(sp.Name) {
			laneLayers[sp.Lane] = append(laneLayers[sp.Lane], interval{sp.Start, sp.End})
		}
	}
	for _, sp := range spans {
		if sp.Parent == 0 && !isLayer(sp.Name) {
			b.wall += sp.End - sp.Start
			b.covered += unionLen(laneLayers[sp.Lane], sp.Start, sp.End)
		}
	}
	return b
}

// writeSpans writes the recorded spans as JSON to dir/trace-<workload>.json.
func (r *recorder) writeSpans(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	doc := struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, spans}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		_ = f.Close()
		return "", err
	}
	return path, f.Close()
}
