package incremental

import (
	"net/http"
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
