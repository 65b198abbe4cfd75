package artifact

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"slices"
	"testing"
	"time"

	"cosmicdance/internal/core"
	"cosmicdance/internal/dst"
)

// testPartial builds a real chunk partial from the shared archive fixture —
// the same cleaning path the chunked pipeline stores.
func testPartial(t testing.TB) *core.ChunkPartial {
	t.Helper()
	w := testWeather(t)
	res := testArchive(t, w)
	cfg := core.DefaultConfig()
	cfg.Parallelism = 1
	p, err := core.BuildChunkPartial(context.Background(), cfg, res.Samples)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Tracks) == 0 {
		t.Fatal("fixture partial has no tracks")
	}
	return p
}

// tinyPartial is a hand-built partial small enough for the exhaustive
// byte-flip sweep.
func tinyPartial() *core.ChunkPartial {
	return &core.ChunkPartial{
		Tracks: []*core.Track{
			{
				Catalog: 100,
				Points: []core.TrackPoint{
					{Epoch: 1000, AltKm: 549.5, BStar: 1e-4, Incl: 53},
					{Epoch: 2000, AltKm: 549.1, BStar: 1.1e-4, Incl: 53},
				},
				OperationalAltKm: 550,
				RaisingRemoved:   1,
			},
			{
				Catalog:          205,
				Points:           []core.TrackPoint{{Epoch: 1500, AltKm: 610.2, BStar: 2e-4, Incl: 42}},
				OperationalAltKm: 610,
			},
		},
		RawAlts: []float64{120.5, 549.5, 549.5, 610.2},
		Stats: core.CleaningStats{
			TotalObservations: 5,
			GrossErrors:       1,
			RaisingRemoved:    1,
			NonOperational:    1,
			Duplicates:        1,
		},
	}
}

func encodeSegmentBytes(t testing.TB, chunk int, p *core.ChunkPartial) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeSegment(&buf, chunk, p); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// widePartial is an 800-track partial of 86 points a track and one raw
// altitude per point (68,800 each), the shape of an 800-satellite, 45-day
// chunk.
func widePartial() *core.ChunkPartial {
	p := &core.ChunkPartial{}
	for i := 0; i < 800; i++ {
		tr := &core.Track{Catalog: 44000 + i, OperationalAltKm: 550}
		for k := 0; k < 86; k++ {
			alt := 550 - 0.01*float64(k)
			tr.Points = append(tr.Points, core.TrackPoint{Epoch: int64(k) * 12600, AltKm: float32(alt), BStar: 1e-4, Incl: 53})
			p.RawAlts = append(p.RawAlts, alt)
		}
		p.Tracks = append(p.Tracks, tr)
	}
	slices.Sort(p.RawAlts)
	p.Stats.TotalObservations = len(p.RawAlts)
	return p
}

// TestSegmentBytesExact pins segmentBytes to the length EncodeSegment
// writes, and gates a chunk's encode: segmentBlob, sizing its buffer by
// segmentBytes, allocates under 1.5 times the 800-track segment it returns.
// An unsized buffer doubles its way up to the segment and allocates about
// 2.45 times.
func TestSegmentBytesExact(t *testing.T) {
	wide := widePartial()
	for _, p := range []*core.ChunkPartial{tinyPartial(), testPartial(t), wide} {
		if got, want := segmentBytes(p), len(encodeSegmentBytes(t, 5, p)); got != want {
			t.Fatalf("%d-track partial: segmentBytes = %d, EncodeSegment wrote %d", len(p.Tracks), got, want)
		}
	}
	var blob []byte
	var err error
	n := allocated(func() { blob, err = segmentBlob(5, wide) })
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, encodeSegmentBytes(t, 5, wide)) || cap(blob) != len(blob) {
		t.Fatalf("segmentBlob returned %d bytes in a %d-byte buffer, unlike EncodeSegment's", len(blob), cap(blob))
	}
	t.Logf("800-track segment: %d bytes, %d allocated (%.2fx)", len(blob), n, float64(n)/float64(len(blob)))
	if float64(n) >= 1.5*float64(len(blob)) {
		t.Fatalf("encoding a %d-byte segment allocated %d bytes, want under 1.5x", len(blob), n)
	}
}

func TestSegmentRoundTrip(t *testing.T) {
	for _, p := range []*core.ChunkPartial{tinyPartial(), testPartial(t)} {
		enc := encodeSegmentBytes(t, 7, p)
		chunk, got, err := DecodeSegment(bytes.NewReader(enc))
		if err != nil {
			t.Fatal(err)
		}
		if chunk != 7 {
			t.Fatalf("chunk index %d, want 7", chunk)
		}
		if !reflect.DeepEqual(got, p) {
			t.Fatal("partial changed across the round trip")
		}
		// Canonical form: re-encoding the decoded partial is byte-identical.
		if !bytes.Equal(enc, encodeSegmentBytes(t, chunk, got)) {
			t.Fatal("re-encoding the decoded segment produced different bytes")
		}
	}
}

// encodeBody frames partial p as a snapshot of kind: a segment, or a
// dataset (a three-hour weather series, then p as its body). Writing the
// dataset through the section helpers lets the tables below forge dataset
// bodies EncodeDataset would never produce.
func encodeBody(t testing.TB, kind Kind, chunk int, p *core.ChunkPartial) []byte {
	t.Helper()
	var buf bytes.Buffer
	sw := newSectionWriter(&buf, kind)
	base := uint32(0)
	if kind == KindDataset {
		writeWeather(sw, dst.FromValues(time.Date(2024, 5, 10, 0, 0, 0, 0, time.UTC), []float64{-20, -150, -90}))
		base = datasetPartialBase
	}
	writePartial(sw, base, chunk, p)
	if err := sw.close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decodeBody decodes a snapshot of kind, segment or dataset.
func decodeBody(kind Kind, data []byte) error {
	if kind == KindDataset {
		_, err := DecodeDataset(bytes.NewReader(data), core.DefaultConfig())
		return err
	}
	_, _, err := DecodeSegment(bytes.NewReader(data))
	return err
}

// bodyKinds are the snapshot kinds that carry a partial body.
var bodyKinds = []Kind{KindSegment, KindDataset}

// TestSegmentEveryByteFlipFailsClosed corrupts each byte of a small segment,
// and of a small dataset carrying the same body, in turn; every flip must
// fail decoding with ErrCorrupt or ErrVersionSkew — never a panic, never
// silently wrong data.
func TestSegmentEveryByteFlipFailsClosed(t *testing.T) {
	for _, kind := range bodyKinds {
		enc := encodeBody(t, kind, 0, tinyPartial())
		if err := decodeBody(kind, enc); err != nil {
			t.Fatalf("%s: unflipped snapshot rejected: %v", kind, err)
		}
		for i := range enc {
			bad := bytes.Clone(enc)
			bad[i] ^= 0x5a
			err := decodeBody(kind, bad)
			if err == nil {
				t.Fatalf("%s: flip at byte %d/%d decoded successfully", kind, i, len(enc))
			}
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersionSkew) {
				t.Fatalf("%s: flip at byte %d: unexpected error class: %v", kind, i, err)
			}
		}
	}
}

func TestSegmentTruncationFailsClosed(t *testing.T) {
	enc := encodeSegmentBytes(t, 2, testPartial(t))
	for _, n := range []int{0, 1, 4, 11, 12, len(enc) / 2, len(enc) - 1} {
		if _, _, err := DecodeSegment(bytes.NewReader(enc[:n])); err == nil {
			t.Fatalf("segment truncated to %d bytes decoded successfully", n)
		}
	}
	// Trailing garbage is corruption too: a snapshot is exactly framed.
	if _, _, err := DecodeSegment(bytes.NewReader(append(bytes.Clone(enc), 0))); err == nil {
		t.Fatal("segment with trailing garbage decoded successfully")
	}
	// A segment must not decode as another kind, nor another kind as a segment.
	if err := decodeAny(KindWeather, enc); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("segment decoded as weather: %v", err)
	}
	w := testWeather(t)
	if _, _, err := DecodeSegment(bytes.NewReader(encodeWeatherBytes(t, w))); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("weather decoded as segment: %v", err)
	}
}

// TestSegmentNonCanonicalRejected encodes partials that violate the
// assembler's invariants, as segments and as dataset bodies; the decoders
// must refuse each one so a forged or damaged snapshot can never smuggle a
// non-canonical partial into a build.
func TestSegmentNonCanonicalRejected(t *testing.T) {
	cases := []struct {
		name   string
		kinds  []Kind
		chunk  int
		mutate func(p *core.ChunkPartial)
	}{
		{"tracks out of catalog order", bodyKinds, 0, func(p *core.ChunkPartial) {
			p.Tracks[0], p.Tracks[1] = p.Tracks[1], p.Tracks[0]
		}},
		{"duplicate catalog", bodyKinds, 0, func(p *core.ChunkPartial) {
			p.Tracks[1].Catalog = p.Tracks[0].Catalog
		}},
		{"empty track", bodyKinds, 0, func(p *core.ChunkPartial) {
			p.Tracks[1].Points = nil
		}},
		{"raw altitudes out of canonical order", bodyKinds, 0, func(p *core.ChunkPartial) {
			p.RawAlts[0], p.RawAlts[1] = p.RawAlts[1], p.RawAlts[0]
		}},
		// A segment may carry any chunk index; a dataset is the one chunk 0.
		{"chunk index not 0", []Kind{KindDataset}, 3, func(*core.ChunkPartial) {}},
	}
	for _, c := range cases {
		for _, kind := range c.kinds {
			p := tinyPartial()
			c.mutate(p)
			if err := decodeBody(kind, encodeBody(t, kind, c.chunk, p)); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s %s: got %v, want ErrCorrupt", kind, c.name, err)
			}
		}
	}
}
