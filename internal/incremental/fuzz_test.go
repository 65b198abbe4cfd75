package incremental

import (
	"net/http"
	"net/http/httptest"
	"net/url"
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
