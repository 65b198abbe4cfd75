package trigger

import (
	"math"
	"testing"
	"time"

	"cosmicdance/internal/dst"
	"cosmicdance/internal/units"
)

var tr0 = time.Date(2024, 5, 10, 0, 0, 0, 0, time.UTC)

func feedSeries(t *testing.T, e *Engine, vals []float64) []Event {
	t.Helper()
	var out []Event
	e.Subscribe(func(ev Event) { out = append(out, ev) })
	for i, v := range vals {
		e.Feed(tr0.Add(time.Duration(i)*time.Hour), units.NanoTesla(v))
	}
	return out
}

func TestNewValidatesLevels(t *testing.T) {
	if _, err := New(-50, -60); err == nil {
		t.Error("clear deeper than onset accepted")
	}
	if _, err := New(-50, -50); err == nil {
		t.Error("clear equal to onset accepted")
	}
	if _, err := New(-50, -40); err != nil {
		t.Errorf("valid levels rejected: %v", err)
	}
}

func TestOnsetAndClear(t *testing.T) {
	e, err := New(-50, -40)
	if err != nil {
		t.Fatal(err)
	}
	events := feedSeries(t, e, []float64{-10, -55, -80, -45, -30, -10})
	if len(events) != 2 {
		t.Fatalf("events = %+v", events)
	}
	if events[0].Kind != Onset || events[0].Reading != -55 {
		t.Errorf("onset = %+v", events[0])
	}
	// -45 is between clear (-40) and onset: hysteresis keeps the storm
	// active; it clears at -30.
	if events[1].Kind != Cleared || events[1].Reading != -30 {
		t.Errorf("cleared = %+v", events[1])
	}
	if events[1].Peak != -80 {
		t.Errorf("cleared peak = %v, want -80", events[1].Peak)
	}
	if e.Active() {
		t.Error("engine still active after clear")
	}
}

// TestMissingHourIsSkipped: a NaN reading mid-storm is a missing hour. It
// must neither escalate (ClassifyDst(NaN) falls through to G5) nor clear,
// so the storm keeps its real category.
func TestMissingHourIsSkipped(t *testing.T) {
	e, err := New(-50, -30)
	if err != nil {
		t.Fatal(err)
	}
	var events []Event
	e.Subscribe(func(ev Event) { events = append(events, ev) })
	for i, v := range []float64{-60, math.NaN(), -60, -10} {
		e.Feed(tr0.Add(time.Duration(i)*time.Hour), units.NanoTesla(v))
		if i == 1 && (len(events) != 1 || events[0].Category != units.G1Minor || !e.Active()) {
			t.Fatalf("events after the missing hour = %+v, want the G1 onset alone, no escalation, and the storm active", events)
		}
	}
	if len(events) != 2 || events[0].Kind != Onset || events[1].Kind != Cleared {
		t.Fatalf("events = %+v, want onset then cleared", events)
	}
	if events[1].Category != units.G1Minor || events[1].Peak != -60 {
		t.Fatalf("cleared = %+v, want category G1 and peak -60", events[1])
	}
}

func TestHysteresisPreventsFlapping(t *testing.T) {
	e, err := New(-50, -40)
	if err != nil {
		t.Fatal(err)
	}
	// Oscillation between -52 and -45 must produce a single onset.
	events := feedSeries(t, e, []float64{-52, -45, -52, -45, -52, -45})
	onsets := 0
	for _, ev := range events {
		if ev.Kind == Onset {
			onsets++
		}
	}
	if onsets != 1 {
		t.Errorf("onsets = %d, want 1 (hysteresis)", onsets)
	}
}

func TestEscalationThroughCategories(t *testing.T) {
	e, err := New(-50, -40)
	if err != nil {
		t.Fatal(err)
	}
	events := feedSeries(t, e, []float64{-60, -120, -110, -250, -380, -100, -10})
	var kinds []Kind
	var cats []units.GScale
	for _, ev := range events {
		kinds = append(kinds, ev.Kind)
		cats = append(cats, ev.Category)
	}
	// Onset (G1), escalate to G2, G4, G5, then cleared.
	want := []Kind{Onset, Escalation, Escalation, Escalation, Cleared}
	if len(kinds) != len(want) {
		t.Fatalf("events = %v", kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Errorf("event %d = %v, want %v", i, kinds[i], want[i])
		}
	}
	if cats[1] != units.G2Moderate || cats[2] != units.G4Severe || cats[3] != units.G5Extreme {
		t.Errorf("escalation categories = %v", cats)
	}
	// The cleared event carries the storm's category at peak.
	if cats[4] != units.G5Extreme {
		t.Errorf("cleared category = %v, want extreme", cats[4])
	}
}

func TestMinGapRefractory(t *testing.T) {
	e, err := New(-50, -40)
	if err != nil {
		t.Fatal(err)
	}
	e.MinGap = 6 * time.Hour
	// Storm, clear, then a dip 2 hours later (suppressed), then a dip 10
	// hours later (fires).
	events := feedSeries(t, e, []float64{
		-60, -20, // onset + cleared
		-10, -60, -20, // dip at +2h after clear: suppressed entirely
		-10, -10, -10, -10, -10, -10, -10, -60, // +10h: fires
	})
	onsets := 0
	for _, ev := range events {
		if ev.Kind == Onset {
			onsets++
		}
	}
	if onsets != 2 {
		t.Errorf("onsets = %d, want 2 (one suppressed by MinGap)", onsets)
	}
}

func TestKindString(t *testing.T) {
	if Onset.String() != "onset" || Escalation.String() != "escalation" || Cleared.String() != "cleared" {
		t.Error("kind strings")
	}
	if Kind(9).String() != "Kind(9)" {
		t.Errorf("unknown kind = %q", Kind(9).String())
	}
}

func TestReplayMatchesStormCatalog(t *testing.T) {
	// Replaying an index must fire exactly one onset per detected storm
	// (with no MinGap and clear == one step above onset behaviourally
	// aligned with run detection).
	vals := []float64{-10, -60, -70, -10, -10, -90, -10, -55, -58, -10}
	x := dst.FromValues(tr0, vals)
	e, err := New(units.StormThreshold, -49.99)
	if err != nil {
		t.Fatal(err)
	}
	events := e.Replay(x)
	onsets := 0
	for _, ev := range events {
		if ev.Kind == Onset {
			onsets++
		}
	}
	storms := x.Storms(units.StormThreshold)
	if onsets != len(storms) {
		t.Errorf("onsets = %d, storms = %d", onsets, len(storms))
	}
	// Every storm also cleared within the series.
	cleared := 0
	for _, ev := range events {
		if ev.Kind == Cleared {
			cleared++
		}
	}
	if cleared != onsets {
		t.Errorf("cleared = %d, onsets = %d", cleared, onsets)
	}
}

func TestMay2024ScenarioTriggers(t *testing.T) {
	// The super-storm must produce an onset that escalates to extreme.
	weather := dst.FromValues(tr0, []float64{-10, -80, -200, -412, -300, -150, -45, -20})
	e, err := New(units.StormThreshold, -30)
	if err != nil {
		t.Fatal(err)
	}
	events := e.Replay(weather)
	sawExtreme := false
	for _, ev := range events {
		if ev.Kind == Escalation && ev.Category == units.G5Extreme {
			sawExtreme = true
		}
	}
	if !sawExtreme {
		t.Errorf("no extreme escalation in %v", events)
	}
	final := events[len(events)-1]
	if final.Kind != Cleared || final.Peak != -412 {
		t.Errorf("final event = %+v", final)
	}
}
