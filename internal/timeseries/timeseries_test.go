package timeseries

import (
	"errors"
	"testing"
	"time"
)

var t0 = time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)

func TestHourlyBasics(t *testing.T) {
	h := NewHourly(t0.Add(30*time.Minute), 24) // start truncates to the hour
	if !h.Start.Equal(t0) {
		t.Errorf("Start = %v, want truncated %v", h.Start, t0)
	}
	if h.Len() != 24 {
		t.Errorf("Len = %d", h.Len())
	}
	if !h.End().Equal(t0.Add(24 * time.Hour)) {
		t.Errorf("End = %v", h.End())
	}
	h.Set(3, -63)
	if v, ok := h.ValueAt(t0.Add(3*time.Hour + 45*time.Minute)); !ok || v != -63 {
		t.Errorf("ValueAt = %v, %v", v, ok)
	}
	if _, ok := h.ValueAt(t0.Add(-time.Hour)); ok {
		t.Error("ValueAt before start should be !ok")
	}
	if _, ok := h.ValueAt(t0.Add(24 * time.Hour)); ok {
		t.Error("ValueAt at End should be !ok")
	}
	if !h.TimeAt(5).Equal(t0.Add(5 * time.Hour)) {
		t.Errorf("TimeAt(5) = %v", h.TimeAt(5))
	}
}

func TestHourlySlice(t *testing.T) {
	h := NewHourly(t0, 48)
	for i := 0; i < 48; i++ {
		h.Set(i, float64(i))
	}
	sub := h.Slice(t0.Add(10*time.Hour), t0.Add(20*time.Hour))
	if sub.Len() != 10 {
		t.Fatalf("sub len = %d, want 10", sub.Len())
	}
	if sub.Values()[0] != 10 || sub.Values()[9] != 19 {
		t.Errorf("sub values = %v", sub.Values())
	}
	// Clamping.
	all := h.Slice(t0.Add(-100*time.Hour), t0.Add(1000*time.Hour))
	if all.Len() != 48 {
		t.Errorf("clamped slice len = %d, want 48", all.Len())
	}
	empty := h.Slice(t0.Add(20*time.Hour), t0.Add(10*time.Hour))
	if empty.Len() != 0 {
		t.Errorf("inverted slice len = %d, want 0", empty.Len())
	}
}

func TestHourlyAppend(t *testing.T) {
	h := NewHourly(t0, 0)
	a := FromValues(t0, []float64{1, 2})
	b := FromValues(t0.Add(2*time.Hour), []float64{3})
	if err := h.Append(a); err != nil {
		t.Fatal(err)
	}
	if err := h.Append(b); err != nil {
		t.Fatal(err)
	}
	if h.Len() != 3 || h.Values()[2] != 3 {
		t.Errorf("after append: len=%d values=%v", h.Len(), h.Values())
	}
	// Gap → error.
	c := FromValues(t0.Add(10*time.Hour), []float64{9})
	if err := h.Append(c); !errors.Is(err, ErrMisaligned) {
		t.Errorf("gap append err = %v, want ErrMisaligned", err)
	}
	// Empty append is a no-op.
	if err := h.Append(NewHourly(t0, 0)); err != nil {
		t.Errorf("empty append err = %v", err)
	}
}
