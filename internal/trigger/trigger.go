// Package trigger turns a Dst stream into discrete storm events for
// downstream consumers — the paper's §6 integration, where CosmicDance feeds
// storm signals into LEOScope's trigger-based measurement scheduler. The
// engine is a small hysteresis state machine: it fires an Onset when
// intensity crosses the storm threshold, Escalations as the storm deepens
// through G-scale categories, and a Cleared when intensity recovers past the
// (less intense) clear level, with a configurable refractory gap against
// flapping.
package trigger

import (
	"fmt"
	"math"
	"time"

	"cosmicdance/internal/dst"
	"cosmicdance/internal/units"
)

// Kind labels a trigger event.
type Kind int

// Event kinds.
const (
	// Onset: intensity crossed the storm threshold.
	Onset Kind = iota
	// Escalation: an active storm deepened into a higher G-scale category.
	Escalation
	// Cleared: intensity recovered past the clear level.
	Cleared
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Onset:
		return "onset"
	case Escalation:
		return "escalation"
	case Cleared:
		return "cleared"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is one fired trigger.
type Event struct {
	Kind     Kind
	At       time.Time
	Reading  units.NanoTesla
	Category units.GScale
	// Peak is the deepest reading of the storm so far (Cleared events carry
	// the storm's final peak).
	Peak units.NanoTesla
}

// Handler consumes trigger events.
type Handler func(Event)

// Engine is the hysteresis state machine. Construct with New.
type Engine struct {
	onset units.NanoTesla
	clear units.NanoTesla
	// MinGap suppresses a new Onset within this duration after a Cleared,
	// so a storm's ragged tail does not schedule duplicate campaigns.
	MinGap time.Duration

	handlers []Handler

	active     bool
	peak       units.NanoTesla
	category   units.GScale
	clearedAt  time.Time
	hasCleared bool
}

// New builds an engine firing at onset (e.g. −50 nT) and clearing at clear.
// clear must be less intense (greater) than onset.
func New(onset, clear units.NanoTesla) (*Engine, error) {
	if clear <= onset {
		return nil, fmt.Errorf("trigger: clear level %v must be less intense than onset %v", clear, onset)
	}
	return &Engine{onset: onset, clear: clear}, nil
}

// Subscribe registers a handler for all future events.
func (e *Engine) Subscribe(h Handler) { e.handlers = append(e.handlers, h) }

// Active reports whether a storm is currently in progress.
func (e *Engine) Active() bool { return e.active }

func (e *Engine) emit(ev Event) {
	for _, h := range e.handlers {
		h(ev)
	}
}

// Feed advances the state machine with one reading. Readings must arrive in
// time order. A NaN reading is a missing hour and is skipped: it neither
// opens, escalates nor clears a storm.
func (e *Engine) Feed(at time.Time, v units.NanoTesla) {
	if math.IsNaN(float64(v)) {
		return
	}
	switch {
	case !e.active && v <= e.onset:
		if e.hasCleared && e.MinGap > 0 && at.Sub(e.clearedAt) < e.MinGap {
			return // refractory: the previous storm just cleared
		}
		e.active = true
		e.peak = v
		e.category = units.ClassifyDst(v)
		e.emit(Event{Kind: Onset, At: at, Reading: v, Category: e.category, Peak: v})
	case e.active && v > e.clear:
		e.active = false
		e.hasCleared = true
		e.clearedAt = at
		e.emit(Event{Kind: Cleared, At: at, Reading: v, Category: units.ClassifyDst(e.peak), Peak: e.peak})
	case e.active:
		if v < e.peak {
			e.peak = v
		}
		if c := units.ClassifyDst(v); c > e.category {
			e.category = c
			e.emit(Event{Kind: Escalation, At: at, Reading: v, Category: c, Peak: e.peak})
		}
	}
}

// State is the engine's resumable position in the Dst stream: everything
// Feed consults besides its arguments. Capturing it mid-storm and feeding
// the same suffix after Restore fires exactly the events the uninterrupted
// engine would have (handlers are not part of the state — a restored engine
// starts with none).
type State struct {
	Active     bool
	Peak       units.NanoTesla
	Category   units.GScale
	ClearedAt  time.Time
	HasCleared bool
}

// State snapshots the machine for a later Restore.
func (e *Engine) State() State {
	return State{
		Active:     e.active,
		Peak:       e.peak,
		Category:   e.category,
		ClearedAt:  e.clearedAt,
		HasCleared: e.hasCleared,
	}
}

// Restore rewinds the machine to a snapshotted position. Thresholds and
// MinGap are construction parameters, not state — the caller rebuilds the
// engine with New and the same configuration first.
func (e *Engine) Restore(s State) {
	e.active = s.Active
	e.peak = s.Peak
	e.category = s.Category
	e.clearedAt = s.ClearedAt
	e.hasCleared = s.HasCleared
}

// Replay feeds an entire Dst index through the engine and returns the fired
// events (handlers also run).
func (e *Engine) Replay(x *dst.Index) []Event {
	var out []Event
	e.Subscribe(func(ev Event) { out = append(out, ev) })
	for i, v := range x.Values() {
		e.Feed(x.TimeAt(i), units.NanoTesla(v))
	}
	return out
}
