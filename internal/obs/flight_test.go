package obs_test

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"cosmicdance/internal/obs"
	"cosmicdance/internal/testkit"
)

func TestFlightRecorderRing(t *testing.T) {
	clock := testkit.NewClock(time.Unix(0, 0).UTC())
	f := obs.NewFlightRecorder(4, clock.Now)
	if f.Len() != 0 || f.Dump() != nil && len(f.Dump()) != 0 {
		t.Fatal("fresh recorder not empty")
	}
	for i := 0; i < 6; i++ {
		clock.Advance(time.Millisecond)
		f.Record(obs.FlightEvent{Kind: "request", Endpoint: "group", Status: 200 + i})
	}
	if f.Len() != 4 {
		t.Fatalf("Len = %d, want ring size 4", f.Len())
	}
	evs := f.Dump()
	if len(evs) != 4 {
		t.Fatalf("dump has %d events, want 4", len(evs))
	}
	// The ring keeps the newest 4 of 6: seqs 3..6, ascending.
	for i, ev := range evs {
		if ev.Seq != uint64(i+3) {
			t.Fatalf("event %d has seq %d, want %d (%+v)", i, ev.Seq, i+3, evs)
		}
		if ev.AtNS != int64(ev.Seq)*int64(time.Millisecond) {
			t.Fatalf("event %d stamped %d ns, want %d", i, ev.AtNS, int64(ev.Seq)*int64(time.Millisecond))
		}
	}
}

func TestFlightRecorderWriteJSONStable(t *testing.T) {
	clock := testkit.NewClock(time.Unix(0, 0).UTC())
	f := obs.NewFlightRecorder(8, clock.Now)
	f.Record(obs.FlightEvent{Kind: "ingest", Trace: "00000000000000aa", Detail: "starlink +2"})
	clock.Advance(time.Second)
	f.Record(obs.FlightEvent{Kind: "delta", Trace: "00000000000000aa", Detail: "DECAY_RISK"})

	var a, b bytes.Buffer
	if err := f.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := f.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two dumps of identical ring contents differ")
	}
	var dump obs.FlightDump
	if err := json.Unmarshal(a.Bytes(), &dump); err != nil {
		t.Fatalf("dump is not valid JSON: %v", err)
	}
	if dump.Schema != "flightrecorder/v1" {
		t.Fatalf("schema %q", dump.Schema)
	}
	if len(dump.Events) != 2 || dump.Events[1].AtNS != int64(time.Second) {
		t.Fatalf("events = %+v", dump.Events)
	}
}

func TestFlightRecorderEmptyDumpIsValid(t *testing.T) {
	clock := testkit.NewClock(time.Unix(0, 0).UTC())
	f := obs.NewFlightRecorder(2, clock.Now)
	var buf bytes.Buffer
	if err := f.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var dump obs.FlightDump
	if err := json.Unmarshal(buf.Bytes(), &dump); err != nil {
		t.Fatal(err)
	}
	if dump.Events == nil || len(dump.Events) != 0 {
		t.Fatalf("empty dump events = %#v, want []", dump.Events)
	}
}

func TestFlightRecorderHandler(t *testing.T) {
	clock := testkit.NewClock(time.Unix(0, 0).UTC())
	f := obs.NewFlightRecorder(8, clock.Now)
	f.Record(obs.FlightEvent{Kind: "request", Endpoint: "group", Status: 200})

	rec := httptest.NewRecorder()
	f.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/flightrecorder", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	var dump obs.FlightDump
	if err := json.Unmarshal(rec.Body.Bytes(), &dump); err != nil {
		t.Fatal(err)
	}
	if len(dump.Events) != 1 || dump.Events[0].Endpoint != "group" {
		t.Fatalf("events = %+v", dump.Events)
	}

	rec = httptest.NewRecorder()
	f.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/debug/flightrecorder", nil))
	if rec.Code != 405 {
		t.Fatalf("POST status %d, want 405", rec.Code)
	}
}

// TestFlightRecorderBurst pins the overload detector: the hook fires when
// the threshold lands inside the window, at most once per window, and
// rejects outside the window do not count.
func TestFlightRecorderBurst(t *testing.T) {
	clock := testkit.NewClock(time.Unix(0, 0).UTC())
	f := obs.NewFlightRecorder(64, clock.Now)
	fired := 0
	f.SetBurstHook(3, 10*time.Second, func() { fired++ })

	reject := func() bool {
		clock.Advance(time.Second)
		return f.RecordReject(obs.FlightEvent{Endpoint: "group", Status: 503, Trace: "00000000000000ff"})
	}
	if reject() || reject() {
		t.Fatal("burst tripped below threshold")
	}
	if !reject() {
		t.Fatal("third reject in-window did not trip the burst")
	}
	if fired != 1 {
		t.Fatalf("hook fired %d times, want 1", fired)
	}
	// Still inside the same window: more rejects must not re-fire.
	if reject() {
		t.Fatal("burst re-fired inside its window")
	}
	// Step past the window, then pile up a fresh burst.
	clock.Advance(30 * time.Second)
	reject()
	reject()
	if !reject() {
		t.Fatal("fresh burst after the window did not trip")
	}
	if fired != 2 {
		t.Fatalf("hook fired %d times, want 2", fired)
	}
	// Every reject landed in the ring with kind forced to "reject".
	for _, ev := range f.Dump() {
		if ev.Kind != "reject" {
			t.Fatalf("event kind %q", ev.Kind)
		}
	}
}

func TestFlightRecorderRejectedTraces(t *testing.T) {
	clock := testkit.NewClock(time.Unix(0, 0).UTC())
	f := obs.NewFlightRecorder(16, clock.Now)
	f.Record(obs.FlightEvent{Kind: "request", Trace: "000000000000000b", Status: 200})
	f.RecordReject(obs.FlightEvent{Trace: "000000000000000c", Status: 503})
	f.RecordReject(obs.FlightEvent{Trace: "000000000000000a", Status: 429})
	f.RecordReject(obs.FlightEvent{Trace: "000000000000000c", Status: 503}) // dup
	f.RecordReject(obs.FlightEvent{Status: 503})                            // untraced
	got := f.RejectedTraces()
	want := []string{"000000000000000a", "000000000000000c"}
	if len(got) != len(want) {
		t.Fatalf("RejectedTraces = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("RejectedTraces = %v, want %v", got, want)
		}
	}
}

func TestFlightRecorderNilSafe(t *testing.T) {
	var f *obs.FlightRecorder
	f.Record(obs.FlightEvent{Kind: "request"})
	if f.RecordReject(obs.FlightEvent{}) {
		t.Fatal("nil recorder tripped a burst")
	}
	f.SetBurstHook(1, time.Second, func() { t.Fatal("hook on nil recorder") })
	if f.Len() != 0 || f.Dump() != nil || f.RejectedTraces() != nil {
		t.Fatal("nil recorder is not a no-op")
	}
}

// TestFlightRecorderConcurrent hammers the lock-free ring from many
// goroutines under -race: every dumped event must be complete and the dump
// must stay Seq-sorted.
func TestFlightRecorderConcurrent(t *testing.T) {
	clock := testkit.NewClock(time.Unix(0, 0).UTC())
	f := obs.NewFlightRecorder(32, clock.Now)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				f.Record(obs.FlightEvent{Kind: "request", Endpoint: "group", Status: 200, DurationNS: int64(g)})
			}
		}(g)
	}
	wg.Wait()
	evs := f.Dump()
	if len(evs) != 32 {
		t.Fatalf("dump has %d events, want 32", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("dump not Seq-sorted at %d: %d then %d", i, evs[i-1].Seq, evs[i].Seq)
		}
	}
	for _, ev := range evs {
		if ev.Kind != "request" || ev.Status != 200 {
			t.Fatalf("torn event: %+v", ev)
		}
	}
}
