package incremental

import (
	"encoding/binary"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// FuzzDstHandler posts arbitrary bodies and start parameters to /v1/dst on
// a feed holding an open storm run. The handler must fail closed: no input
// panics or answers 5xx, a rejected batch leaves Version and Seq where they
// were, and an accepted one leaves only finite or NaN hours stored and a
// risk view and delta ring that encode as JSON.
func FuzzDstHandler(f *testing.F) {
	for _, c := range dstReadings {
		f.Add(dstNext.Format(time.RFC3339), c.body)
	}
	f.Add("notatime", "-10")
	f.Add(dstStart.Add(10*time.Hour).Format(time.RFC3339), "-10")
	f.Add(dstStart.Format(time.RFC3339), "-60 -70 -80 NaN")
	f.Fuzz(func(t *testing.T, start, body string) {
		feed := dstFeed(t)
		before := feed.Risk()
		rec := postDst(feed, start, body)
		switch {
		case rec.Code >= http.StatusInternalServerError:
			t.Fatalf("status %d for start %q body %q", rec.Code, start, body)
		case rec.Code < 200 || rec.Code > 299:
			if after := feed.Risk(); after.Version != before.Version || after.Seq != before.Seq {
				t.Fatalf("status %d moved version/seq from %d/%d to %d/%d", rec.Code, before.Version, before.Seq, after.Version, after.Seq)
			}
		default:
			checkDstState(t, feed)
		}
	})
}

// FuzzRiskStream drives GET /v1/risk/stream?nowait=1 with arbitrary cursor,
// Last-Event-ID and limit values on a feed whose ring has dropped deltas.
// The handler answers 200 or 400. A 200 stream opens with one resync exactly
// when the ring dropped deltas the cursor still wanted; its event ids
// strictly increase past the cursor (or the resync point), and limit bounds
// how many it sends.
func FuzzRiskStream(f *testing.F) {
	f.Add("", "", "")
	f.Add("1", "", "")
	f.Add("", "1", "3")
	f.Add("18446744073709551615", "", "")
	f.Add("", "18446744073709551615", "")
	f.Add("18446744073709551614", "", "1")
	f.Add("banana", "", "")
	f.Add("", "banana", "-1")
	feed := seedFeed(f, 8)
	oldest := feed.ring[0].Seq
	if oldest <= 1 {
		f.Fatal("the seeded ring dropped no deltas")
	}
	f.Fuzz(func(t *testing.T, cursorArg, lastEventID, limitArg string) {
		q := url.Values{"nowait": {"1"}}
		if cursorArg != "" {
			q.Set("cursor", cursorArg)
		}
		if limitArg != "" {
			q.Set("limit", limitArg)
		}
		req := httptest.NewRequest(http.MethodGet, "/v1/risk/stream?"+q.Encode(), nil)
		if lastEventID != "" {
			req.Header.Set("Last-Event-ID", lastEventID)
		}
		rec := httptest.NewRecorder()
		feed.Handler().ServeHTTP(rec, req)
		if rec.Code == http.StatusBadRequest {
			return
		}
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d", rec.Code)
		}

		var cursor uint64
		var err error
		if cursorArg != "" {
			if cursor, err = strconv.ParseUint(cursorArg, 10, 64); err != nil {
				t.Fatalf("cursor %q accepted", cursorArg)
			}
		} else if n, err := strconv.ParseUint(lastEventID, 10, 64); err == nil {
			cursor = n
		}
		limit := 0
		if limitArg != "" {
			if limit, err = strconv.Atoi(limitArg); err != nil || limit < 0 {
				t.Fatalf("limit %q accepted", limitArg)
			}
		}

		events := strings.Split(strings.TrimSuffix(rec.Body.String(), "\n\n"), "\n\n")
		if events[0] == "" {
			events = nil
		}
		wantResync := cursor < oldest-1
		gotResync := len(events) > 0 && strings.HasPrefix(events[0], "event: resync\n")
		if gotResync != wantResync {
			t.Fatalf("cursor %d (oldest %d): leading resync %v, want %v", cursor, oldest, gotResync, wantResync)
		}
		last := cursor
		if gotResync {
			events, last = events[1:], oldest-1
		}
		for i, ev := range events {
			idLine, _, _ := strings.Cut(ev, "\n")
			id, err := strconv.ParseUint(strings.TrimPrefix(idLine, "id: "), 10, 64)
			if err != nil || !strings.HasPrefix(idLine, "id: ") {
				t.Fatalf("event %d is not a delta: %q", i, ev)
			}
			if id <= last {
				t.Fatalf("event id %d after %d", id, last)
			}
			last = id
		}
		if limit > 0 && len(events) > limit {
			t.Fatalf("sent %d events past limit %d", len(events), limit)
		}
	})
}

// FuzzEngineState builds an EngineState straight from the fuzz bytes, so
// column lengths, funnel counters, float bits (NaN and ±Inf included) and
// sums that wrap reach FromState without a codec's CRCs rejecting them
// first. FromState must fail closed: it returns an error, or an engine whose
// State equals the input, floats compared by their bits.
func FuzzEngineState(f *testing.F) {
	f.Add([]byte{})
	// Two storms, the second open at the end, over two catalogs with
	// three and two rows.
	f.Add([]byte{0, 8, 10, 60, 80, 120, 40, 10, 70, 90, 2, 1, 3, 5, 2,
		6, 150, 0, 0, 9, 151, 1, 1, 9, 152, 2, 2, 12, 149, 0, 0, 24, 150, 1, 1, 1, 2})
	for _, flags := range []byte{1, 2, 4, 8, 16, 32, 64, 128} {
		f.Add([]byte{flags, 4, 255, 0, 0, 0, 0, 0, 0, 248, 127, 60, 70, 5, 2, 3, 255, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		st := fuzzState(data)
		e, err := FromState(DefaultConfig(), st)
		if err != nil {
			return
		}
		if msg := stateDiff(st, e.State()); msg != "" {
			t.Fatalf("FromState accepted a state it does not snapshot back: %s", msg)
		}
	})
}

// fuzzBytes reads fuzz input as a stream; past its end every read is zero.
type fuzzBytes []byte

func (b *fuzzBytes) u8() byte {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return v
}

func (b *fuzzBytes) u64() uint64 {
	var v [8]byte
	*b = (*b)[copy(v[:], *b):]
	return binary.LittleEndian.Uint64(v[:])
}

// f64 draws a float: one byte picks a value at the engine's boundaries,
// and the byte 255 reads the next eight bytes as raw bits.
func (b *fuzzBytes) f64() float64 {
	picks := [...]float64{550, -60, -10, 100, 650, math.NaN(), math.Inf(1), math.Inf(-1),
		0, math.Copysign(0, -1), 99.999, 650.001, -50, -49.5, 1e-4, 53}
	if c := b.u8(); c != 255 {
		return picks[int(c)%len(picks)]
	}
	return math.Float64frombits(b.u64())
}

// fuzzState lays an EngineState out of the bytes. By default the state is
// consistent: Dst hours from 0 to −255 nT, ascending catalogs, ascending
// epochs, altitudes from 400 to 655 km and a funnel that adds up. Each bit
// of the first byte makes one part wild instead: 0 the weather start, 1 the
// funnel counters, 2 the history lengths, 3 the raw-altitude column's
// length, 4 the catalog order, 5 the epoch order, 6 the altitudes and 7 the
// Dst hours, which then draw from f64 or raw 64-bit values.
func fuzzState(data []byte) EngineState {
	b := fuzzBytes(data)
	flags := b.u8()
	wild := func(bit uint) bool { return flags&(1<<bit) != 0 }
	var st EngineState
	st.Wx = make([]float64, int(b.u8())%48)
	if len(st.Wx) > 0 {
		st.WxStart = time.Date(2024, 5, 1, 0, 0, 0, 0, time.UTC).Unix()
	}
	if wild(0) {
		st.WxStart = int64(b.u64())
	}
	for i := range st.Wx {
		if wild(7) {
			st.Wx[i] = b.f64()
		} else {
			st.Wx[i] = -float64(b.u8())
		}
	}
	cat := 44700
	for range int(b.u8()) % 6 {
		if wild(4) {
			cat += int(int8(b.u8()))
		} else {
			cat += 1 + int(b.u8())
		}
		st.Cats = append(st.Cats, cat)
		st.ObsCounts = append(st.ObsCounts, int(b.u8())%6)
	}
	if wild(2) {
		for i := range st.ObsCounts {
			st.ObsCounts[i] += int(b.u64())
		}
	}
	rows := 0
	for _, c := range st.ObsCounts {
		rows += max(c, 0) % 8
	}
	epoch := st.WxStart
	for range rows {
		if wild(5) {
			epoch += int64(int8(b.u8())) * 3600
		} else {
			epoch += 600 * (1 + int64(b.u8()))
		}
		st.Epochs = append(st.Epochs, epoch)
		if wild(6) {
			st.Alts = append(st.Alts, b.f64())
		} else {
			st.Alts = append(st.Alts, 400+float64(b.u8()))
		}
		st.BStars = append(st.BStars, b.f64())
		st.Incls = append(st.Incls, b.f64())
	}
	st.GrossErrors, st.Duplicates = int(b.u8())%4, int(b.u8())%4
	st.TotalObservations = rows + st.GrossErrors + st.Duplicates
	if wild(1) {
		st.TotalObservations, st.GrossErrors, st.Duplicates = int(b.u64()), int(b.u64()), int(b.u64())
	}
	raw := st.TotalObservations
	if wild(3) || raw < 0 || raw > 1024 {
		raw = int(b.u8())
	}
	for range raw {
		st.RawAlts = append(st.RawAlts, b.f64())
	}
	st.Seq, st.Version = b.u64(), b.u64()
	return st
}

// stateDiff describes the first difference between two engine states, or
// returns "" when they are equal. An empty column equals a nil one, and
// floats compare by their bits.
func stateDiff(a, b EngineState) string {
	floats := func(name string, x, y []float64) string {
		if len(x) != len(y) {
			return fmt.Sprintf("%s: %d values, %d restored", name, len(x), len(y))
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return fmt.Sprintf("%s[%d]: %x, restored %x", name, i, math.Float64bits(x[i]), math.Float64bits(y[i]))
			}
		}
		return ""
	}
	for _, m := range []string{
		floats("Wx", a.Wx, b.Wx),
		floats("RawAlts", a.RawAlts, b.RawAlts),
		floats("Alts", a.Alts, b.Alts),
		floats("BStars", a.BStars, b.BStars),
		floats("Incls", a.Incls, b.Incls),
	} {
		if m != "" {
			return m
		}
	}
	switch {
	case a.WxStart != b.WxStart:
		return fmt.Sprintf("WxStart %d, restored %d", a.WxStart, b.WxStart)
	case !slices.Equal(a.Cats, b.Cats):
		return fmt.Sprintf("Cats %v, restored %v", a.Cats, b.Cats)
	case !slices.Equal(a.ObsCounts, b.ObsCounts):
		return fmt.Sprintf("ObsCounts %v, restored %v", a.ObsCounts, b.ObsCounts)
	case !slices.Equal(a.Epochs, b.Epochs):
		return fmt.Sprintf("Epochs %v, restored %v", a.Epochs, b.Epochs)
	case a.TotalObservations != b.TotalObservations || a.GrossErrors != b.GrossErrors || a.Duplicates != b.Duplicates:
		return fmt.Sprintf("funnel %d/%d/%d, restored %d/%d/%d", a.TotalObservations, a.GrossErrors, a.Duplicates,
			b.TotalObservations, b.GrossErrors, b.Duplicates)
	case a.Seq != b.Seq || a.Version != b.Version:
		return fmt.Sprintf("seq/version %d/%d, restored %d/%d", a.Seq, a.Version, b.Seq, b.Version)
	}
	return ""
}
