package spacetrack

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"cosmicdance/internal/tle"
)

// poisonBatch is a two-set ingest body: a good set for catalog 91000 and,
// for 91001, a set whose ndot field (columns 34-43) reads "1.00000000",
// which the parser accepts and the encoder cannot fit in the field.
func poisonBatch(t testing.TB, template *tle.TLE, epoch time.Time) string {
	t.Helper()
	good := cloneSet(template, 91000, epoch)
	g1, g2, err := good.Format()
	if err != nil {
		t.Fatal(err)
	}
	p1, p2, err := cloneSet(template, 91001, epoch).Format()
	if err != nil {
		t.Fatal(err)
	}
	p1 = p1[:33] + "1.00000000" + p1[43:68]
	p1 += strconv.Itoa(tle.Checksum(p1))
	return good.Name + "\n" + g1 + "\n" + g2 + "\nPOISON\n" + p1 + "\n" + p2 + "\n"
}

// serve runs one request through h and returns the recorder.
func serve(h http.Handler, method, path, body string, gz bool) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	if gz {
		req.Header.Set("Accept-Encoding", "gzip")
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// decodeSets inflates a gzip response body and reads every element set in
// it, failing on a cut stream or any unreadable record.
func decodeSets(t *testing.T, body []byte) []*tle.TLE {
	t.Helper()
	zr, err := gzip.NewReader(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("gzip header: %v", err)
	}
	text, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("gzip stream: %v", err)
	}
	sets, err := tle.ReadAll(bytes.NewReader(text))
	if err != nil {
		t.Fatalf("%v in\n%s", err, text)
	}
	return sets
}

// TestIngestRejectsUnservableSets pins ingest's serve-back check: a batch
// holding a set the server could not serve back is refused whole with
// 400, so the catalog never holds a set that would cut short, or make
// unreadable, every later response holding it. Two such sets: an ndot
// field of "1.00000000", which the encoder cannot fit in its 10 columns
// (before the check the batch got 200, and every history GET of catalog
// 91001 ended in a truncated gzip stream), and a 3LE name beginning "1 ",
// which reads back as an element line.
func TestIngestRejectsUnservableSets(t *testing.T) {
	archive, _, end := buildArchive(t, 5)
	template := archive.GroupLatest("starlink", end)[0]
	named := cloneSet(template, 91001, end.Add(-time.Minute))
	l1, l2, err := named.Format()
	if err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string]string{
		"ndot 1.0": poisonBatch(t, template, end.Add(-time.Minute)),
		"name 1 X": "0 1 X\n" + l1 + "\n" + l2 + "\n",
	} {
		cat := NewCatalog(archive, end)
		h := NewServer(cat, end).Handler()
		rec := serve(h, http.MethodPost, "/ingest?group=starlink", body, false)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s: %d %s, want 400", name, rec.Code, rec.Body)
		}
		if n := cat.DeltaSets(); n != 0 {
			t.Fatalf("%s: a refused batch applied %d sets", name, n)
		}
		if v, _, _ := cat.GroupVersion("starlink"); v != 1 {
			t.Fatalf("%s: a refused batch moved the group to version %d", name, v)
		}
		for _, path := range []string{"/history?catalog=91001", "/NORAD/elements/gp.php?GROUP=starlink"} {
			rec := serve(h, http.MethodGet, path, "", true)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s, %s: %d", name, path, rec.Code)
			}
			decodeSets(t, rec.Body.Bytes())
		}
	}
}

// TestIngestCreatesServedGroup pins group GETs against the catalog's
// group index: a group that exists only because an ingest created it is
// served, with validators from its own version, and a group nobody
// ingested into is 404.
func TestIngestCreatesServedGroup(t *testing.T) {
	archive, _, end := buildArchive(t, 5)
	template := archive.GroupLatest("starlink", end)[0]
	h := NewServer(NewCatalog(archive, end), end).Handler()
	l1, l2, err := cloneSet(template, 70001, end.Add(-time.Minute)).Format()
	if err != nil {
		t.Fatal(err)
	}
	if rec := serve(h, http.MethodPost, "/ingest?group=oneweb", "ONEWEB-1\n"+l1+"\n"+l2+"\n", false); rec.Code != http.StatusOK {
		t.Fatalf("ingest: %d %s", rec.Code, rec.Body)
	}
	rec := serve(h, http.MethodGet, "/NORAD/elements/gp.php?GROUP=oneweb", "", true)
	if rec.Code != http.StatusOK {
		t.Fatalf("ingested group: %d %s", rec.Code, rec.Body)
	}
	if sets := decodeSets(t, rec.Body.Bytes()); len(sets) != 1 || sets[0].CatalogNumber != 70001 {
		t.Fatalf("ingested group served %+v, want catalog 70001 alone", sets)
	}
	if etag := rec.Header().Get("ETag"); !strings.HasPrefix(etag, `"oneweb-v1-`) {
		t.Fatalf("ingested group ETag %s, want version 1", etag)
	}
	if rec := serve(h, http.MethodGet, "/NORAD/elements/gp.php?GROUP=iridium", "", true); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown group: %d, want 404", rec.Code)
	}
}

// TestIngestBodyBounded pins POST /ingest's body bound: a batch of valid
// sets just over maxIngestBody is refused whole with 413 and applies
// nothing, while the same batch less its last set is accepted. Before the
// bound the handler read and held any body, 15 MB of sets included.
func TestIngestBodyBounded(t *testing.T) {
	archive, _, end := buildArchive(t, 5)
	template := archive.GroupLatest("starlink", end)[0]
	var body strings.Builder
	last := 0
	for cat := 91000; body.Len() <= maxIngestBody; cat++ {
		l1, l2, err := cloneSet(template, cat, end.Add(-time.Minute)).Format()
		if err != nil {
			t.Fatal(err)
		}
		last = body.Len()
		fmt.Fprintf(&body, "INGEST-%d\n%s\n%s\n", cat, l1, l2)
	}
	cat := NewCatalog(archive, end)
	h := NewServer(cat, end).Handler()
	rec := serve(h, http.MethodPost, "/ingest?group=starlink", body.String(), false)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("%d-byte batch: %d %s, want 413", body.Len(), rec.Code, rec.Body)
	}
	if n := cat.DeltaSets(); n != 0 {
		t.Fatalf("a refused batch applied %d sets", n)
	}
	if v, _, _ := cat.GroupVersion("starlink"); v != 1 {
		t.Fatalf("a refused batch moved the group to version %d", v)
	}
	rec = serve(h, http.MethodPost, "/ingest?group=starlink", body.String()[:last], false)
	if rec.Code != http.StatusOK {
		t.Fatalf("%d-byte batch: %d %s, want 200", last, rec.Code, rec.Body)
	}
}

// FuzzIngestHandler drives POST /ingest with arbitrary bodies on a small
// Catalog. The handler answers 200, 400 or (for a body over
// maxIngestBody) 413. A 400 or 413 applies nothing; a 200
// applies exactly the sets it reports, and afterwards every catalog in the
// batch serves a history, and the group a 3LE listing, that decodes whole.
func FuzzIngestHandler(f *testing.F) {
	archive, _, end := buildFleetArchive(f, 2, 20)
	template := archive.GroupLatest("starlink", end)[0]
	good := cloneSet(template, 91000, end.Add(-time.Minute))
	l1, l2, err := good.Format()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(poisonBatch(f, template, end.Add(-time.Minute)))
	f.Add(good.Name + "\n" + l1 + "\n" + l2 + "\n")
	f.Add(l1 + "\n" + l2 + "\n" + l1 + "\n" + l2 + "\n")
	f.Add("0 1 X\n" + l1 + "\n" + l2 + "\n")
	f.Add("not a tle\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, body string) {
		cat := NewCatalog(archive, end)
		h := NewServer(cat, end).Handler()
		rec := serve(h, http.MethodPost, "/ingest?group=starlink", body, false)
		switch rec.Code {
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			if n := cat.DeltaSets(); n != 0 {
				t.Fatalf("%d applied %d sets", rec.Code, n)
			}
			if v, _, _ := cat.GroupVersion("starlink"); v != 1 {
				t.Fatalf("%d moved the group to version %d", rec.Code, v)
			}
			return
		case http.StatusOK:
		default:
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		var ack struct{ Received, Applied int }
		if err := json.Unmarshal(rec.Body.Bytes(), &ack); err != nil {
			t.Fatalf("ack %q: %v", rec.Body, err)
		}
		if n := cat.DeltaSets(); n != ack.Applied {
			t.Fatalf("ack says %d applied, delta holds %d", ack.Applied, n)
		}
		sets, err := tle.ReadAll(strings.NewReader(body))
		if err != nil || len(sets) != ack.Received {
			t.Fatalf("batch rereads as %d sets (%v), ack says %d", len(sets), err, ack.Received)
		}
		seen := map[int]bool{}
		for _, s := range sets {
			if seen[s.CatalogNumber] {
				continue
			}
			seen[s.CatalogNumber] = true
			path := "/history?catalog=" + strconv.Itoa(s.CatalogNumber) + "&from=1957-01-01T00:00:00Z&to=2058-01-01T00:00:00Z"
			rec := serve(h, http.MethodGet, path, "", true)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: %d", path, rec.Code)
			}
			if len(decodeSets(t, rec.Body.Bytes())) == 0 {
				t.Fatalf("%s: the ingested sets are missing", path)
			}
		}
		rec = serve(h, http.MethodGet, "/NORAD/elements/gp.php?GROUP=starlink", "", true)
		if rec.Code != http.StatusOK {
			t.Fatalf("group: %d", rec.Code)
		}
		decodeSets(t, rec.Body.Bytes())
	})
}
