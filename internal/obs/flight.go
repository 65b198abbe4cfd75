package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// FlightEvent is one entry in the flight recorder: a request outcome, an
// ingest batch, a feed delta, or an SSE resync. AtNS is nanoseconds on the
// recorder's injected clock since its epoch, so dumps from same-seed runs
// are byte-identical. Seq orders events globally even when AtNS ties. Spans
// is the flat view of the request's Tracer.
type FlightEvent struct {
	Seq        uint64       `json:"seq"`
	AtNS       int64        `json:"at_ns"`
	Kind       string       `json:"kind"` // request | reject | ingest | delta | resync
	Trace      string       `json:"trace,omitempty"`
	Endpoint   string       `json:"endpoint,omitempty"`
	Status     int          `json:"status,omitempty"`
	DurationNS int64        `json:"duration_ns,omitempty"`
	Detail     string       `json:"detail,omitempty"`
	Spans      []SpanRecord `json:"spans,omitempty"`
}

// FlightRecorder is a fixed-size ring of recent FlightEvents — the black box
// a post-mortem reads after a 429/503 storm or an SSE overflow resync. The
// hot path is lock-free: Record claims a slot with one atomic add and
// publishes the event with one atomic pointer store, so recording costs no
// more than a histogram observation and the ≤2% obs-overhead gate covers it.
// The ring keeps the newest events; old slots are overwritten in place.
type FlightRecorder struct {
	seq   atomic.Uint64
	slots []atomic.Pointer[FlightEvent]
	now   func() time.Time
	epoch time.Time

	// Burst detection: rejected-request timestamps inside BurstWindow are
	// counted under a mutex (rejects are the cold path — they happen when
	// the server is shedding, not serving). When the count crosses
	// BurstThreshold the OnBurst hook fires, at most once per window.
	burstMu        sync.Mutex
	burstThreshold int
	burstWindow    time.Duration
	rejects        []time.Time
	lastBurst      time.Time
	burstFired     bool
	onBurst        func()
}

// NewFlightRecorder returns a recorder with the given ring size on clock
// now. The clock must be injected (virtual under loadsim, boot-anchored
// under spacetrackd); the recorder's epoch is the clock reading at
// construction, so AtNS values are run-relative and deterministic.
func NewFlightRecorder(size int, now func() time.Time) *FlightRecorder {
	if size <= 0 {
		size = 1024
	}
	if now == nil {
		panic("obs: NewFlightRecorder requires an injected clock")
	}
	return &FlightRecorder{
		slots: make([]atomic.Pointer[FlightEvent], size),
		now:   now,
		epoch: now(),
	}
}

// SetBurstHook arms the overload-burst detector: when threshold or more
// reject events land within window, fire hook (once per window). Call before
// serving begins; the hook runs outside the recorder's locks and must not
// call back into RecordReject.
func (f *FlightRecorder) SetBurstHook(threshold int, window time.Duration, hook func()) {
	if f == nil {
		return
	}
	f.burstMu.Lock()
	f.burstThreshold = threshold
	f.burstWindow = window
	f.onBurst = hook
	f.burstMu.Unlock()
}

// Record appends ev to the ring, stamping Seq and AtNS. Safe for concurrent
// use; a nil recorder is a no-op.
func (f *FlightRecorder) Record(ev FlightEvent) {
	if f == nil {
		return
	}
	ev.Seq = f.seq.Add(1)
	ev.AtNS = f.now().Sub(f.epoch).Nanoseconds()
	e := ev
	f.slots[(ev.Seq-1)%uint64(len(f.slots))].Store(&e)
}

// RecordReject records a shed request (429/503) and feeds the burst
// detector. The returned bool reports whether this reject tripped a burst.
func (f *FlightRecorder) RecordReject(ev FlightEvent) bool {
	if f == nil {
		return false
	}
	ev.Kind = "reject"
	f.Record(ev)

	f.burstMu.Lock()
	if f.burstThreshold <= 0 {
		f.burstMu.Unlock()
		return false
	}
	now := f.now()
	cut := now.Add(-f.burstWindow)
	keep := f.rejects[:0]
	for _, t := range f.rejects {
		if t.After(cut) {
			keep = append(keep, t)
		}
	}
	f.rejects = append(keep, now)
	tripped := false
	if len(f.rejects) >= f.burstThreshold {
		if !f.burstFired || now.Sub(f.lastBurst) >= f.burstWindow {
			f.burstFired = true
			f.lastBurst = now
			tripped = true
		}
	}
	hook := f.onBurst
	f.burstMu.Unlock()
	if tripped && hook != nil {
		hook()
	}
	return tripped
}

// Len reports how many events the ring currently holds (at most its size).
func (f *FlightRecorder) Len() int {
	if f == nil {
		return 0
	}
	n := f.seq.Load()
	if n > uint64(len(f.slots)) {
		return len(f.slots)
	}
	return int(n)
}

// Dump returns the ring's events sorted by Seq ascending — oldest retained
// first. Slots being overwritten concurrently resolve to whichever event the
// atomic pointer holds; the dump is always a set of complete events.
func (f *FlightRecorder) Dump() []FlightEvent {
	if f == nil {
		return nil
	}
	evs := make([]FlightEvent, 0, len(f.slots))
	for i := range f.slots {
		if p := f.slots[i].Load(); p != nil {
			evs = append(evs, *p)
		}
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].Seq < evs[j].Seq })
	return evs
}

// FlightDump is the recorder's serialized form.
type FlightDump struct {
	Schema string        `json:"schema"`
	Events []FlightEvent `json:"events"`
}

// WriteJSON writes the dump as indented JSON with schema "flightrecorder/v1".
// Event order is Seq order and all fields are value types, so identical ring
// contents render byte-identically.
func (f *FlightRecorder) WriteJSON(w io.Writer) error {
	d := FlightDump{Schema: "flightrecorder/v1", Events: f.Dump()}
	if d.Events == nil {
		d.Events = []FlightEvent{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// Handler serves the recorder's dump — the GET /debug/flightrecorder
// endpoint of cmd/spacetrackd.
func (f *FlightRecorder) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		// A short read is the client's problem; headers are already gone.
		_ = f.WriteJSON(w)
	})
}

// RejectedTraces returns the sorted, deduplicated trace IDs of every reject
// event still in the ring — the storm post-mortem's "who got shed" list.
func (f *FlightRecorder) RejectedTraces() []string {
	if f == nil {
		return nil
	}
	seen := make(map[string]bool)
	for _, ev := range f.Dump() {
		if ev.Kind == "reject" && ev.Trace != "" {
			seen[ev.Trace] = true
		}
	}
	out := make([]string, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}
