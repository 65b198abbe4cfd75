package obs

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Tracer records timed spans: the pipeline's stages (weather generation
// inside fleet simulation inside dataset build inside a figure render) and a
// served request's phases (admission, catalog_read, gzip, feed_append) alike.
// Spans are strictly nested — Start opens a child of the innermost open span,
// End closes it — and every span lands in one start-ordered record list. The
// stage tree (Tree, WriteTree, RunReport.Trace) and the flat list a
// flight-recorder event carries (Spans) are two views of those records.
//
// The clock is injected: pipeline packages never read time.Now themselves
// (cosmiclint's nondet rule enforces this, internal/obs included), so the
// CLIs pass the wall clock in, the serving plane its service clock, and tests
// a testkit.Clock. A nil *Tracer is valid and disables tracing — every method
// no-ops, so instrumented code starts spans unconditionally.
type Tracer struct {
	now   func() time.Time
	epoch time.Time

	mu    sync.Mutex
	spans []SpanRecord
	cur   int // index+1 of the innermost open span, 0 if none
}

// SpanRecord is one recorded span. StartNS and EndNS are nanoseconds since
// the tracer was created; a still-open span ends at the clock reading of the
// view that rendered it.
type SpanRecord struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	parent  int    // index+1 of the enclosing span, 0 for a root
}

// NewTracer returns a tracer reading time from now. A request's phases rarely
// number more than four, so the record list starts with room for that many.
func NewTracer(now func() time.Time) *Tracer {
	if now == nil {
		panic("obs: NewTracer requires a clock")
	}
	return &Tracer{now: now, epoch: now(), spans: make([]SpanRecord, 0, 4)}
}

// Span is the handle Start returns. The zero Span (what a nil tracer hands
// out) is valid and inert.
type Span struct {
	tracer *Tracer
	id     int // index+1 into the tracer's records
}

// Start opens a span named name as a child of the innermost open span (or as
// a new root) and makes it current. On a nil tracer it returns the zero Span.
func (t *Tracer) Start(name string) Span {
	if t == nil {
		return Span{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, SpanRecord{Name: name, StartNS: t.sinceEpoch(), parent: t.cur})
	t.cur = len(t.spans)
	return Span{tracer: t, id: t.cur}
}

// End closes the span and makes its parent current again. Ending a span that
// is no longer open is a no-op; ending out of nesting order closes every
// still-open descendant at the same instant.
func (s Span) End() {
	t := s.tracer
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := t.cur; i != 0; i = t.spans[i-1].parent {
		if i == s.id {
			parent := t.spans[i-1].parent
			t.stampLocked(parent)
			t.cur = parent
			return
		}
	}
}

func (t *Tracer) sinceEpoch() int64 { return t.now().Sub(t.epoch).Nanoseconds() }

// stampLocked sets EndNS to the current clock reading on the open spans from
// the innermost one up to, not including, stop.
func (t *Tracer) stampLocked(stop int) {
	at := t.sinceEpoch()
	for i := t.cur; i != stop; i = t.spans[i-1].parent {
		t.spans[i-1].EndNS = at
	}
}

// stampOpenLocked renders every open span as running until now, for the
// views. The spans stay open: a later End restamps them.
func (t *Tracer) stampOpenLocked() {
	if t.cur != 0 {
		t.stampLocked(0)
	}
}

// Spans returns the flat view: every span in start order. The slice is the
// tracer's own backing store; callers treat it as read-only. On a nil tracer
// it returns nil.
func (t *Tracer) Spans() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stampOpenLocked()
	return t.spans
}

// SpanNode is the tree view of one span, the form JSON run reports carry.
type SpanNode struct {
	Name       string     `json:"name"`
	DurationNS int64      `json:"duration_ns"`
	Children   []SpanNode `json:"children,omitempty"`
}

// Tree returns the tree view: the recorded span forest. On a nil tracer it
// returns nil.
func (t *Tracer) Tree() []SpanNode {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stampOpenLocked()
	// children[p] lists, in start order, the spans whose parent is p.
	children := make([][]int, len(t.spans)+1)
	for i, s := range t.spans {
		children[s.parent] = append(children[s.parent], i+1)
	}
	var build func(ids []int) []SpanNode
	build = func(ids []int) []SpanNode {
		if len(ids) == 0 {
			return nil
		}
		out := make([]SpanNode, len(ids))
		for k, id := range ids {
			s := t.spans[id-1]
			out[k] = SpanNode{Name: s.Name, DurationNS: s.EndNS - s.StartNS, Children: build(children[id])}
		}
		return out
	}
	return build(children[0])
}

// WriteTree renders the tree view as indented text, durations rounded to the
// millisecond:
//
//	analyze                                    2.154s
//	  weather                                  0.312s
//	  fleet                                    1.204s
//	    weather                                0.000s
//
// A nil tracer writes nothing.
func (t *Tracer) WriteTree(w io.Writer) error {
	if t == nil {
		return nil
	}
	for _, n := range t.Tree() {
		if err := writeNode(w, n, 0); err != nil {
			return err
		}
	}
	return nil
}

func writeNode(w io.Writer, n SpanNode, depth int) error {
	label := strings.Repeat("  ", depth) + n.Name
	const nameCol = 42
	pad := nameCol - len(label)
	if pad < 1 {
		pad = 1
	}
	d := time.Duration(n.DurationNS).Round(time.Millisecond)
	if _, err := fmt.Fprintf(w, "%s%s%.3fs\n", label, strings.Repeat(" ", pad), d.Seconds()); err != nil {
		return err
	}
	for _, c := range n.Children {
		if err := writeNode(w, c, depth+1); err != nil {
			return err
		}
	}
	return nil
}

type tracerKey struct{}

// WithTracer returns a context carrying t, for a request's handlers to mark
// their phases on the tracer admission started.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	return context.WithValue(ctx, tracerKey{}, t)
}

// TracerFrom returns the context's tracer, or nil (a valid no-op receiver)
// when the request is untraced.
func TracerFrom(ctx context.Context) *Tracer {
	t, _ := ctx.Value(tracerKey{}).(*Tracer)
	return t
}

// TraceHeader is the HTTP header that carries a request's trace ID from
// client to server. The value is the TraceID's 16-hex-digit rendering; the
// server echoes it back on the response so either side of a wire capture can
// be joined against the flight recorder.
const TraceHeader = "Cosmic-Trace"

// TraceID identifies one logical request end to end. IDs are drawn from a
// seeded splitmix64 stream (see IDStream), never from crypto/rand or any
// other ambient entropy: the same seed and request sequence must yield the
// same IDs, because trace IDs appear in the spaceload report and that report
// is gated byte-identical across same-seed runs. Zero means "no trace".
type TraceID uint64

// String renders the ID as 16 lowercase hex digits (zero-padded), the wire
// and report form.
func (t TraceID) String() string {
	const hexdigits = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = hexdigits[t&0xf]
		t >>= 4
	}
	return string(b[:])
}

// ParseTraceID parses the wire form, exactly 16 lower-case hex digits, so
// that a parsed ID renders back to the header it came from. It returns 0
// (the "no trace" sentinel) for anything else, upper-case digits included:
// a bad header must degrade to an untraced request, never an error path.
func ParseTraceID(s string) TraceID {
	if len(s) != 16 {
		return 0
	}
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil || TraceID(v).String() != s {
		return 0
	}
	return TraceID(v)
}

// IDStream mints TraceIDs from a seeded splitmix64 sequence. Distinct actors
// get distinct streams (the stream index perturbs the seed the same way the
// loadsim per-actor RNG does), so IDs are unique across the fleet without
// any coordination, and replaying a run re-mints the same IDs in the same
// order. Next is safe for concurrent use; the sequence is then unique but
// interleaving-dependent, so deterministic harnesses should mint from a
// single goroutine.
type IDStream struct {
	state atomic.Uint64
}

// NewIDStream returns a stream derived from seed and a stream index. The
// mixing constants match internal/loadsim's per-actor RNG derivation so the
// two families of streams stay disjoint for distinct (seed, stream) pairs.
func NewIDStream(seed uint64, stream uint64) *IDStream {
	s := &IDStream{}
	s.state.Store(seed*0x9E3779B97F4A7C15 + stream*0xD1B54A32D192ED03 + 0x632BE59BD9B4E019)
	return s
}

// Next mints the stream's next TraceID. It never returns zero: zero is the
// "no trace" sentinel, so a zero output is re-rolled.
func (s *IDStream) Next() TraceID {
	for {
		z := s.state.Add(0x9E3779B97F4A7C15)
		z ^= z >> 30
		z *= 0xBF58476D1CE4E5B9
		z ^= z >> 27
		z *= 0x94D049BB133111EB
		z ^= z >> 31
		if z != 0 {
			return TraceID(z)
		}
	}
}
