package obs_test

import (
	"bytes"
	"context"
	"testing"
	"time"

	"cosmicdance/internal/obs"
	"cosmicdance/internal/testkit"
)

func TestTracerTree(t *testing.T) {
	clock := testkit.NewClock(time.Date(2024, 5, 10, 0, 0, 0, 0, time.UTC))
	tr := obs.NewTracer(clock.Now)

	run := tr.Start("figures")
	sub := tr.Start("dataset")
	w := tr.Start("weather")
	clock.Advance(312 * time.Millisecond)
	w.End()
	f := tr.Start("fleet")
	clock.Advance(1204 * time.Millisecond)
	f.End()
	clock.Advance(484 * time.Millisecond)
	sub.End()
	render := tr.Start("render:fig1")
	clock.Advance(150 * time.Millisecond)
	render.End()
	run.End()

	tree := tr.Tree()
	if len(tree) != 1 {
		t.Fatalf("got %d roots, want 1", len(tree))
	}
	root := tree[0]
	if root.Name != "figures" || len(root.Children) != 2 {
		t.Fatalf("root = %+v", root)
	}
	if got, want := root.DurationNS, int64(2150*time.Millisecond); got != want {
		t.Fatalf("root duration %d, want %d", got, want)
	}
	ds := root.Children[0]
	if ds.Name != "dataset" || len(ds.Children) != 2 {
		t.Fatalf("dataset node = %+v", ds)
	}
	if ds.Children[0].Name != "weather" || ds.Children[0].DurationNS != int64(312*time.Millisecond) {
		t.Fatalf("weather node = %+v", ds.Children[0])
	}

	var buf bytes.Buffer
	if err := tr.WriteTree(&buf); err != nil {
		t.Fatal(err)
	}
	testkit.Golden(t, "trace_tree.golden", buf.Bytes())
}

// TestTracerSpans drives the one tracer through each behaviour both of its
// views rely on, checking the flat view (what a flight-recorder event
// carries) and the tree view (what -trace prints) after each script.
func TestTracerSpans(t *testing.T) {
	ms := int64(time.Millisecond)
	for _, tc := range []struct {
		name  string
		run   func(t *testing.T, tr *obs.Tracer, clock *testkit.Clock)
		spans []obs.SpanRecord
		tree  []obs.SpanNode
	}{{
		name: "sequential_request_spans",
		run: func(t *testing.T, tr *obs.Tracer, clock *testkit.Clock) {
			clock.Advance(time.Millisecond)
			adm := tr.Start("admission")
			clock.Advance(2 * time.Millisecond)
			adm.End()
			read := tr.Start("catalog_read")
			clock.Advance(3 * time.Millisecond)
			read.End()
		},
		spans: []obs.SpanRecord{
			{Name: "admission", StartNS: 1 * ms, EndNS: 3 * ms},
			{Name: "catalog_read", StartNS: 3 * ms, EndNS: 6 * ms},
		},
		tree: []obs.SpanNode{
			{Name: "admission", DurationNS: 2 * ms},
			{Name: "catalog_read", DurationNS: 3 * ms},
		},
	}, {
		name: "open_span_renders_at_current_clock",
		run: func(t *testing.T, tr *obs.Tracer, clock *testkit.Clock) {
			tr.Start("gzip")
			clock.Advance(5 * time.Millisecond)
		},
		spans: []obs.SpanRecord{{Name: "gzip", StartNS: 0, EndNS: 5 * ms}},
		tree:  []obs.SpanNode{{Name: "gzip", DurationNS: 5 * ms}},
	}, {
		name: "double_end_is_a_noop",
		run: func(t *testing.T, tr *obs.Tracer, clock *testkit.Clock) {
			sp := tr.Start("open")
			clock.Advance(5 * time.Millisecond)
			if tree := tr.Tree(); tree[0].DurationNS != 5*ms {
				t.Fatalf("open span node %+v", tree[0])
			}
			sp.End()
			clock.Advance(time.Hour)
			sp.End()
		},
		spans: []obs.SpanRecord{{Name: "open", EndNS: 5 * ms}},
		tree:  []obs.SpanNode{{Name: "open", DurationNS: 5 * ms}},
	}, {
		name: "multiple_roots",
		run: func(t *testing.T, tr *obs.Tracer, clock *testkit.Clock) {
			a := tr.Start("first")
			clock.Advance(time.Millisecond)
			a.End()
			b := tr.Start("second")
			clock.Advance(2 * time.Millisecond)
			b.End()
		},
		spans: []obs.SpanRecord{
			{Name: "first", EndNS: 1 * ms},
			{Name: "second", StartNS: 1 * ms, EndNS: 3 * ms},
		},
		tree: []obs.SpanNode{
			{Name: "first", DurationNS: 1 * ms},
			{Name: "second", DurationNS: 2 * ms},
		},
	}, {
		name: "ending_a_parent_closes_its_children",
		run: func(t *testing.T, tr *obs.Tracer, clock *testkit.Clock) {
			outer := tr.Start("outer")
			tr.Start("inner")
			clock.Advance(time.Millisecond)
			outer.End()
			clock.Advance(time.Millisecond)
			tr.Start("after").End()
		},
		spans: []obs.SpanRecord{
			{Name: "outer", EndNS: 1 * ms},
			{Name: "inner", EndNS: 1 * ms},
			{Name: "after", StartNS: 2 * ms, EndNS: 2 * ms},
		},
		tree: []obs.SpanNode{
			{Name: "outer", DurationNS: 1 * ms, Children: []obs.SpanNode{{Name: "inner", DurationNS: 1 * ms}}},
			{Name: "after"},
		},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			clock := testkit.NewClock(time.Date(2024, 5, 10, 0, 0, 0, 0, time.UTC))
			tr := obs.NewTracer(clock.Now)
			tc.run(t, tr, clock)
			spans := tr.Spans()
			if len(spans) != len(tc.spans) {
				t.Fatalf("got %d spans %+v, want %+v", len(spans), spans, tc.spans)
			}
			for i, want := range tc.spans {
				if got := spans[i]; got.Name != want.Name || got.StartNS != want.StartNS || got.EndNS != want.EndNS {
					t.Fatalf("span %d = %+v, want %+v", i, got, want)
				}
			}
			if got := tr.Tree(); !equalNodes(got, tc.tree) {
				t.Fatalf("tree = %+v, want %+v", got, tc.tree)
			}
		})
	}

	t.Run("context_round_trip", func(t *testing.T) {
		if got := obs.TracerFrom(context.Background()); got != nil {
			t.Fatalf("empty context carried a tracer: %v", got)
		}
		tr := obs.NewTracer(testkit.NewClock(time.Unix(0, 0)).Now)
		if got := obs.TracerFrom(obs.WithTracer(context.Background(), tr)); got != tr {
			t.Fatal("context did not round-trip the tracer")
		}
	})
}

// TestTracerNilSafety pins the no-op receiver a request without a tracer in
// its context hands to its handlers.
func TestTracerNilSafety(t *testing.T) {
	var tr *obs.Tracer
	sp := tr.Start("anything")
	if sp != (obs.Span{}) {
		t.Fatal("nil tracer returned a live span")
	}
	sp.End() // must not panic
	if tr.Spans() != nil || tr.Tree() != nil {
		t.Fatal("nil tracer recorded spans")
	}
	if err := tr.WriteTree(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

func TestNewTracerRequiresClock(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewTracer(nil) did not panic")
		}
	}()
	obs.NewTracer(nil)
}

func equalNodes(a, b []obs.SpanNode) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].DurationNS != b[i].DurationNS || !equalNodes(a[i].Children, b[i].Children) {
			return false
		}
	}
	return true
}

func TestTraceIDWireForm(t *testing.T) {
	for _, tc := range []struct {
		id   obs.TraceID
		want string
	}{
		{0, "0000000000000000"},
		{0xdeadbeef, "00000000deadbeef"},
		{0xffffffffffffffff, "ffffffffffffffff"},
		{0x0123456789abcdef, "0123456789abcdef"},
	} {
		if got := tc.id.String(); got != tc.want {
			t.Fatalf("TraceID(%#x).String() = %q, want %q", uint64(tc.id), got, tc.want)
		}
		if back := obs.ParseTraceID(tc.id.String()); back != tc.id {
			t.Fatalf("round trip of %#x gave %#x", uint64(tc.id), uint64(back))
		}
	}
}

func TestParseTraceIDMalformed(t *testing.T) {
	for _, s := range []string{"", "deadbeef", "00000000deadbee", "00000000deadbeef0", "zzzzzzzzzzzzzzzz", "00000000DEADBEEF-",
		"ABCDEF0123456789", "00000000deadBeef", "+0000000deadbeef", "0x000000deadbeef", "00000000_eadbeef"} {
		if got := obs.ParseTraceID(s); got != 0 {
			t.Fatalf("ParseTraceID(%q) = %#x, want 0", s, uint64(got))
		}
	}
}

// FuzzParseTraceID holds ParseTraceID to the wire form: a nonzero ID
// parses only from its own rendering, so the header a server echoes is
// byte for byte the one the client sent.
func FuzzParseTraceID(f *testing.F) {
	f.Add("0123456789abcdef")
	f.Add("ABCDEF0123456789")
	f.Add("ffffffffffffffff")
	f.Add("0000000000000000")
	f.Add("+123456789abcdef")
	f.Fuzz(func(t *testing.T, s string) {
		id := obs.ParseTraceID(s)
		if id == 0 {
			return
		}
		if back := obs.ParseTraceID(id.String()); back != id {
			t.Fatalf("%q parses to %#x, whose rendering parses to %#x", s, uint64(id), uint64(back))
		}
		if s != id.String() {
			t.Fatalf("%q parses to %#x, which renders as %q", s, uint64(id), id.String())
		}
	})
}

// TestIDStreamDeterministic pins the property the byte-identical report gate
// leans on: same (seed, stream) mints the same IDs in the same order, and
// distinct streams stay disjoint.
func TestIDStreamDeterministic(t *testing.T) {
	a := obs.NewIDStream(42, 7)
	b := obs.NewIDStream(42, 7)
	other := obs.NewIDStream(42, 8)
	seen := make(map[obs.TraceID]bool)
	for i := 0; i < 1000; i++ {
		ida, idb := a.Next(), b.Next()
		if ida != idb {
			t.Fatalf("iteration %d: same-seed streams diverged: %s vs %s", i, ida, idb)
		}
		if ida == 0 {
			t.Fatalf("iteration %d: minted the zero sentinel", i)
		}
		if seen[ida] {
			t.Fatalf("iteration %d: duplicate ID %s within one stream", i, ida)
		}
		seen[ida] = true
		if o := other.Next(); seen[o] {
			t.Fatalf("iteration %d: stream 8 collided with stream 7 on %s", i, o)
		}
	}
}
