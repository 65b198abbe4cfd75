package artifact

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"
	"time"
	"unsafe"

	"cosmicdance/internal/constellation"
	"cosmicdance/internal/core"
	"cosmicdance/internal/dst"
	"cosmicdance/internal/obs"
	"cosmicdance/internal/spaceweather"
	"cosmicdance/internal/units"
)

// failWriter fails the test on any write — the pipeline must stay silent.
type failWriter struct{ t *testing.T }

func (w failWriter) Write(p []byte) (int, error) {
	w.t.Errorf("unexpected pipeline warning: %s", p)
	return len(p), nil
}

// failLogger is a structured logger that fails the test if the pipeline
// warns (the replacement for the old Warn func(error) hook in tests).
func failLogger(t *testing.T) *slog.Logger {
	return obs.NewLogger(failWriter{t}, slog.LevelWarn)
}

// --- small deterministic fixtures ---

func testWeatherCfg() spaceweather.Config {
	start := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	return spaceweather.Config{
		Start:              start,
		Hours:              24 * 45,
		Seed:               3,
		QuietMean:          -12,
		QuietStd:           8,
		QuietRho:           0.9,
		MildPerYear:        20,
		ModeratePerYear:    4,
		MildExcessMean:     15,
		ModerateExcessMean: 30,
		CycleAmplitude:     0.5,
		CyclePeak:          time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC),
		Storms: []spaceweather.StormSpec{{
			Peak:           units.NanoTesla(-180),
			PeakAt:         start.Add(10 * 24 * time.Hour),
			MainPhaseHours: 6,
			RecoveryTau:    30,
			Commencement:   25,
		}},
		Overrides: []spaceweather.Override{{
			At:    start.Add(10 * 24 * time.Hour),
			Value: -181,
		}},
	}
}

func testWeather(t testing.TB) *dst.Index {
	t.Helper()
	w, err := spaceweather.Generate(testWeatherCfg())
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func testFleetCfg() constellation.Config {
	cfg := constellation.DefaultConfig()
	cfg.Start = time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	cfg.Hours = 24 * 45
	cfg.Seed = 11
	cfg.InitialFleet = 8
	cfg.Launches = []constellation.Launch{{At: cfg.Start.Add(5 * 24 * time.Hour), Shell: 0, Count: 4}}
	cfg.Scripted = []constellation.ScriptedEvent{{
		Catalog: 44713, At: cfg.Start.Add(12 * 24 * time.Hour),
		Action: constellation.ScriptSafeMode, DurationDays: 3,
	}}
	cfg.Parallelism = 1
	return cfg
}

func testArchive(t testing.TB, weather *dst.Index) *constellation.Result {
	t.Helper()
	res, err := constellation.Run(context.Background(), testFleetCfg(), weather)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func testDataset(t testing.TB, weather *dst.Index, res *constellation.Result) *core.Dataset {
	t.Helper()
	b := core.NewBuilder(core.DefaultConfig(), weather)
	b.AddSamples(res.Samples)
	d, err := b.Build(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func encodeWeatherBytes(t testing.TB, w *dst.Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeWeather(&buf, w); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func encodeArchiveBytes(t testing.TB, res *constellation.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeArchive(&buf, res); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func encodeDatasetBytes(t testing.TB, d *core.Dataset) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeDataset(&buf, d); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// --- round trips ---

func TestWeatherRoundTrip(t *testing.T) {
	w := testWeather(t)
	enc := encodeWeatherBytes(t, w)
	got, err := DecodeWeather(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Start().Equal(w.Start()) {
		t.Fatalf("start %v, want %v", got.Start(), w.Start())
	}
	if !reflect.DeepEqual(got.Values(), w.Values()) {
		t.Fatal("hourly values changed across the round trip")
	}
	// Canonical form: re-encoding the decoded series is byte-identical.
	if !bytes.Equal(enc, encodeWeatherBytes(t, got)) {
		t.Fatal("re-encoding the decoded weather produced different bytes")
	}
}

func TestArchiveRoundTrip(t *testing.T) {
	w := testWeather(t)
	res := testArchive(t, w)
	enc := encodeArchiveBytes(t, res)
	got, err := DecodeArchive(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, res) {
		t.Fatal("archive changed across the round trip")
	}
	if !bytes.Equal(enc, encodeArchiveBytes(t, got)) {
		t.Fatal("re-encoding the decoded archive produced different bytes")
	}
}

func TestDatasetRoundTrip(t *testing.T) {
	w := testWeather(t)
	res := testArchive(t, w)
	d := testDataset(t, w, res)
	enc := encodeDatasetBytes(t, d)
	got, err := DecodeDataset(bytes.NewReader(enc), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Partial(), d.Partial()) {
		t.Fatal("dataset state changed across the round trip")
	}
	// Cleaned altitudes are not stored; reassembly must rederive them.
	gotClean, err := got.CleanAltitudeCDF()
	if err != nil {
		t.Fatal(err)
	}
	wantClean, err := d.CleanAltitudeCDF()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotClean, wantClean) {
		t.Fatal("cleaned-altitude distribution changed across the round trip")
	}
	if !reflect.DeepEqual(got.Weather().Values(), d.Weather().Values()) {
		t.Fatal("embedded weather changed across the round trip")
	}
	if !bytes.Equal(enc, encodeDatasetBytes(t, got)) {
		t.Fatal("re-encoding the decoded dataset produced different bytes")
	}
}

// TestSnapshotBytesPinned fixes the wire format across commits: each kind's
// encoding of the package's fixtures has a pinned length and SHA-256. The
// round trips and fuzzers above would still pass if the encoder and decoder
// changed together; this test would not, and a cache written by an earlier
// build would no longer serve this one. A deliberate format change bumps
// SchemaVersion and re-pins these values.
func TestSnapshotBytesPinned(t *testing.T) {
	if SchemaVersion != 4 {
		t.Fatalf("SchemaVersion %d: re-pin the encodings below for the new format", SchemaVersion)
	}
	w := testWeather(t)
	res := testArchive(t, w)
	st := testEngine(t).State()
	for _, c := range []struct {
		kind Kind
		enc  []byte
		n    int
		sum  string
	}{
		{KindWeather, encodeWeatherBytes(t, w), 8700,
			"901143c3b8fd4df8b3514ac01a32ebbf78b487e0e36bf82ea168953997175243"},
		{KindArchive, encodeArchiveBytes(t, res), 41868,
			"0e0aa4376560ee04c8f27cdc2ad4fd0460d0372568701044eeb702abe3cb62de"},
		{KindDataset, encodeDatasetBytes(t, testDataset(t, w, res)), 31516,
			"2ec000f0f825b63046594fa241ab39254ba755e6c081496344613a24ce7b5506"},
		{KindSegment, encodeSegmentBytes(t, 3, testPartial(t)), 22832,
			"7e250418d718ac60a5d2a826dd80b5aabe87670cd8dc9daffaffaba4beddba2a"},
		{KindIncremental, encodeEngineStateBytes(t, &st), 49720,
			"f42e865957e89475ecda43ee7a5761194faeaa391cc965f93bf3f15de684b111"},
	} {
		sum := sha256.Sum256(c.enc)
		if got := hex.EncodeToString(sum[:]); len(c.enc) != c.n || got != c.sum {
			t.Errorf("%s: %d bytes, SHA-256 %s; pinned %d bytes, %s", c.kind, len(c.enc), got, c.n, c.sum)
		}
	}
}

// perDecodeAlloc returns the heap bytes one call of decode allocates,
// averaged over n calls. Like the serving path's allocation gates it counts
// on one P with the collector off.
func perDecodeAlloc(n int, decode func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	decode()
	return float64(allocated(func() {
		for range n {
			decode()
		}
	})) / float64(n)
}

// TestDecodeAllocation gates the decoders' heap use on 400 satellites over
// 45 days: 34,589 samples, cleaned to 34,582 track points. Column values
// decode straight from the read buffer into the records a decoder returns,
// so it allocates those records, its record sections and one read buffer:
// at most 40 B per point for a segment and 60 B per sample for an archive,
// each its measurement (35.0 and 52.5) plus 15%. Decoding each column
// through a payload of its own took 63.2 and 92.8, and through typed
// columns 83.6 and 133.1. A dataset decode allocates at most 1.15 times
// the bytes the dataset keeps of its body (its point arena, raw-altitude
// column and track directory); through payloads it allocated about 2.15
// times.
func TestDecodeAllocation(t *testing.T) {
	cfg := testFleetCfg()
	cfg.InitialFleet = 400
	cfg.Launches = nil
	cfg.Scripted = nil
	weather := testWeather(t)
	res, err := constellation.Run(context.Background(), cfg, weather)
	if err != nil {
		t.Fatal(err)
	}
	ccfg := core.DefaultConfig()
	ccfg.Parallelism = 1
	p, err := core.BuildChunkPartial(context.Background(), ccfg, res.Samples)
	if err != nil {
		t.Fatal(err)
	}
	points := 0
	for _, tr := range p.Tracks {
		points += len(tr.Points)
	}
	seg := encodeSegmentBytes(t, 0, p)
	arch := encodeArchiveBytes(t, res)
	perPoint := perDecodeAlloc(10, func() {
		if _, _, err := DecodeSegment(bytes.NewReader(seg)); err != nil {
			t.Fatal(err)
		}
	}) / float64(points)
	perSample := perDecodeAlloc(10, func() {
		if _, err := DecodeArchive(bytes.NewReader(arch)); err != nil {
			t.Fatal(err)
		}
	}) / float64(len(res.Samples))

	d := testDataset(t, weather, res)
	set := encodeDatasetBytes(t, d)
	kept := float64(points)*float64(unsafe.Sizeof(core.TrackPoint{})) +
		float64(len(d.Partial().RawAlts))*8 +
		float64(len(d.Tracks()))*float64(unsafe.Sizeof(core.Track{})+8)
	perKept := perDecodeAlloc(10, func() {
		if _, err := DecodeDataset(bytes.NewReader(set), ccfg); err != nil {
			t.Fatal(err)
		}
	}) / kept
	t.Logf("segment: %.1f B per point over %d points; archive: %.1f B per sample over %d samples; dataset: %.3f times the %.0f bytes it keeps",
		perPoint, points, perSample, len(res.Samples), perKept, kept)
	if perPoint > 40 {
		t.Errorf("DecodeSegment allocates %.1f B per point, want <= 40", perPoint)
	}
	if perSample > 60 {
		t.Errorf("DecodeArchive allocates %.1f B per sample, want <= 60", perSample)
	}
	if perKept > 1.15 {
		t.Errorf("DecodeDataset allocates %.3f times the bytes it keeps, want <= 1.15", perKept)
	}
}

// --- fail-closed decoding ---

func decodeAny(kind Kind, data []byte) error {
	return decodeFrom(kind, bytes.NewReader(data))
}

// TestEveryByteFlipFailsClosed corrupts each byte of a weather snapshot and
// of a small segment in turn, read from a source that can say how many
// bytes remain and from one that cannot; no flip may decode. A column's
// values land in their destination before its CRC is checked, so the
// sweep covers both the framing and a body's columns: a damaged column must
// fail the decode, never reach the caller partly filled.
func TestEveryByteFlipFailsClosed(t *testing.T) {
	for _, c := range []struct {
		kind Kind
		enc  []byte
	}{
		{KindWeather, encodeWeatherBytes(t, testWeather(t))},
		{KindSegment, encodeSegmentBytes(t, 0, tinyPartial())},
	} {
		for i := range c.enc {
			bad := bytes.Clone(c.enc)
			bad[i] ^= 0x5a
			for _, r := range []io.Reader{bytes.NewReader(bad), struct{ io.Reader }{bytes.NewReader(bad)}} {
				err := decodeFrom(c.kind, r)
				if err == nil {
					t.Fatalf("%s: flip at byte %d/%d decoded successfully", c.kind, i, len(c.enc))
				}
				if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersionSkew) {
					t.Fatalf("%s: flip at byte %d: unexpected error class: %v", c.kind, i, err)
				}
			}
		}
	}
}

func TestTruncationFailsClosed(t *testing.T) {
	w := testWeather(t)
	res := testArchive(t, w)
	d := testDataset(t, w, res)
	cases := []struct {
		kind Kind
		enc  []byte
	}{
		{KindWeather, encodeWeatherBytes(t, w)},
		{KindArchive, encodeArchiveBytes(t, res)},
		{KindDataset, encodeDatasetBytes(t, d)},
	}
	for _, c := range cases {
		for _, n := range []int{0, 1, 4, 11, 12, len(c.enc) / 2, len(c.enc) - 1} {
			if err := decodeAny(c.kind, c.enc[:n]); err == nil {
				t.Fatalf("%s truncated to %d bytes decoded successfully", c.kind, n)
			}
		}
		// Trailing garbage is corruption too: a snapshot is exactly framed.
		if err := decodeAny(c.kind, append(bytes.Clone(c.enc), 0)); err == nil {
			t.Fatalf("%s with trailing garbage decoded successfully", c.kind)
		}
		// A snapshot of one kind must not decode as another.
		other := KindArchive
		if c.kind == KindArchive {
			other = KindWeather
		}
		if err := decodeAny(other, c.enc); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s decoded as %s: %v", c.kind, other, err)
		}
	}
}

func TestVersionSkewFailsClosed(t *testing.T) {
	w := testWeather(t)
	enc := encodeWeatherBytes(t, w)

	// Container version lives at offset 4 (after the magic).
	bad := bytes.Clone(enc)
	bad[4] = 99
	if err := decodeAny(KindWeather, bad); !errors.Is(err, ErrVersionSkew) {
		t.Fatalf("container skew: got %v, want ErrVersionSkew", err)
	}
	// Schema version lives at offset 8 (after magic, version, kind).
	bad = bytes.Clone(enc)
	bad[8] = 99
	if err := decodeAny(KindWeather, bad); !errors.Is(err, ErrVersionSkew) {
		t.Fatalf("schema skew: got %v, want ErrVersionSkew", err)
	}
	// A foreign file (the legacy COSM archive magic) is corrupt, not skewed.
	if err := decodeAny(KindWeather, []byte("COSM\x01\x00\x00\x00rest-of-archive")); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("foreign file: got %v, want ErrCorrupt", err)
	}
}

// TestSectionClaimAllocatesAsBytesArrive: the reader allocates for the
// bytes a snapshot holds, not the lengths it claims. A 1 KiB entry whose
// first section claims 1 GiB fails closed after allocating under 4 MiB,
// whether its source can say how many bytes remain (a bytes.Reader, a cache
// entry) or not.
func TestSectionClaimAllocatesAsBytesArrive(t *testing.T) {
	enc := encodeWeatherBytes(t, testWeather(t))
	// Header (12 bytes) and section id 0 (4 bytes), then the false length.
	bad := binary.LittleEndian.AppendUint64(bytes.Clone(enc[:16]), 1<<30)
	bad = append(bad, make([]byte, 1024-len(bad))...)
	for _, src := range []struct {
		name string
		r    io.Reader
	}{
		{"sized", bytes.NewReader(bad)},
		{"unsized", struct{ io.Reader }{bytes.NewReader(bad)}},
	} {
		var err error
		n := allocated(func() { _, err = DecodeWeather(src.r) })
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: 1 GiB claim in a 1 KiB entry: got %v, want ErrCorrupt", src.name, err)
		}
		if n >= 4<<20 {
			t.Fatalf("%s: decoding the 1 KiB entry allocated %d bytes, want < 4 MiB", src.name, n)
		}
	}
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fp := FingerprintWeather(testWeatherCfg())
	if err := os.WriteFile(c.Path(KindWeather, fp), bad, 0o644); err != nil {
		t.Fatal(err)
	}
	var ok bool
	if n := allocated(func() { _, ok = c.LoadWeather(fp) }); ok || n >= 4<<20 {
		t.Fatalf("cache load of the 1 KiB entry: hit %v after allocating %d bytes, want a miss under 4 MiB", ok, n)
	}
	if _, err := os.Stat(c.Path(KindWeather, fp)); !os.IsNotExist(err) {
		t.Fatalf("damaged entry not evicted: %v", err)
	}

	// A record count sizes nothing before the section holding the records
	// has arrived and can hold them. Each forgery has valid CRCs and claims
	// 2^24 records over an empty table; a decoder that sized its table by
	// the claim allocated 1.9 GB for the archive and 403 MB for the others.
	for _, kind := range []Kind{KindArchive, KindSegment, KindDataset} {
		forged := forgedClaim(t, kind)
		for _, src := range []struct {
			name string
			r    func() io.Reader
		}{
			{"sized", func() io.Reader { return bytes.NewReader(forged) }},
			{"unsized", func() io.Reader { return struct{ io.Reader }{bytes.NewReader(forged)} }},
		} {
			var err error
			n := allocated(func() { err = decodeFrom(kind, src.r()) })
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s %s: 2^24 records claimed in %d bytes: got %v, want ErrCorrupt", kind, src.name, len(forged), err)
			}
			if n >= 1<<20 {
				t.Fatalf("%s %s: decoding %d bytes allocated %d bytes, want < 1 MiB", kind, src.name, len(forged), n)
			}
		}
	}

	// A point count sizes the arena only from a source that holds every
	// column it implies; from any other the arena grows as epochs arrive.
	// Each forgery claims n points in its meta and an epoch column of 8n
	// bytes, then ends 16 KiB into that column. 2^31 points, the meta's
	// bound, is a column past the largest section; 2^28 is a column of
	// exactly the largest section, 2 GiB, whose values start to arrive.
	for _, points := range []int64{1 << 31, 1 << 28} {
		for _, kind := range bodyKinds {
			forged := forgedPoints(t, kind, points)
			for _, src := range []struct {
				name string
				r    io.Reader
			}{
				{"sized", bytes.NewReader(forged)},
				{"unsized", struct{ io.Reader }{bytes.NewReader(forged)}},
			} {
				var err error
				n := allocated(func() { err = decodeFrom(kind, src.r) })
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("%s %s: %d points claimed in %d bytes: got %v, want ErrCorrupt", kind, src.name, points, len(forged), err)
				}
				if n >= 1<<20 {
					t.Fatalf("%s %s: %d points claimed in %d bytes allocated %d bytes, want < 1 MiB", kind, src.name, points, len(forged), n)
				}
			}
		}
	}
}

// forgedPoints is the start of a segment or dataset whose body claims n
// points and n raw altitudes over no tracks, then the header of an 8n-byte
// epoch column and 16 KiB of it: a stream cut short inside the column.
func forgedPoints(t *testing.T, kind Kind, n int64) []byte {
	t.Helper()
	var buf bytes.Buffer
	sw := newSectionWriter(&buf, kind)
	base := uint32(0)
	if kind == KindDataset {
		writeWeather(sw, dst.FromValues(time.Date(2024, 5, 10, 0, 0, 0, 0, time.UTC), []float64{-20}))
		base = datasetPartialBase
	}
	var meta recordBuf
	meta.i64(0) // chunk
	meta.u32(0) // tracks
	meta.i64(n) // points
	meta.i64(n) // raw altitudes
	for range 5 {
		meta.i64(0) // cleaning counters
	}
	sw.section(base, meta.buf)
	sw.section(base+1, nil)
	sw.putU32(base + 2)
	if err := sw.bw.Flush(); err != nil {
		t.Fatal(err)
	}
	out := binary.LittleEndian.AppendUint64(buf.Bytes(), uint64(8*n))
	return append(out, make([]byte, 16<<10)...)
}

// forgedClaim is a well-framed snapshot of kind (archive, segment or
// dataset) whose meta claims 2^24 satellites or tracks, the most the
// count bounds allow, and whose table or directory is empty.
func forgedClaim(t *testing.T, kind Kind) []byte {
	t.Helper()
	const n = 1 << 24
	var buf bytes.Buffer
	sw := newSectionWriter(&buf, kind)
	var meta recordBuf
	switch kind {
	case KindArchive:
		meta.i64(0) // start
		meta.u32(0) // hours
		meta.u32(n) // satellites
		meta.i64(0) // samples
		sw.section(0, meta.buf)
		sw.section(1, nil)
	default:
		base := uint32(0)
		if kind == KindDataset {
			writeWeather(sw, dst.FromValues(time.Date(2024, 5, 10, 0, 0, 0, 0, time.UTC), []float64{-20}))
			base = datasetPartialBase
		}
		meta.i64(0) // chunk
		meta.u32(n) // tracks
		for range 7 {
			meta.i64(0) // points, raw altitudes, five cleaning counters
		}
		sw.section(base, meta.buf)
		sw.section(base+1, nil)
	}
	if err := sw.close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decodeFrom decodes a snapshot of any kind but engine state from r.
func decodeFrom(kind Kind, r io.Reader) error {
	var err error
	switch kind {
	case KindWeather:
		_, err = DecodeWeather(r)
	case KindArchive:
		_, err = DecodeArchive(r)
	case KindSegment:
		_, _, err = DecodeSegment(r)
	default:
		_, err = DecodeDataset(r, core.DefaultConfig())
	}
	return err
}

// --- fingerprints ---

func TestFingerprintParallelismInvariant(t *testing.T) {
	wcfg := testWeatherCfg()
	fcfg := testFleetCfg()
	ccfg := core.DefaultConfig()
	wfp := FingerprintWeather(wcfg)

	f1, f2 := fcfg, fcfg
	f1.Parallelism, f2.Parallelism = 1, 8
	if FingerprintFleet(wfp, f1) != FingerprintFleet(wfp, f2) {
		t.Fatal("fleet fingerprint depends on Parallelism")
	}
	c1, c2 := ccfg, ccfg
	c1.Parallelism, c2.Parallelism = 1, 8
	ffp := FingerprintFleet(wfp, fcfg)
	if FingerprintDataset(ffp, c1) != FingerprintDataset(ffp, c2) {
		t.Fatal("dataset fingerprint depends on Parallelism")
	}

	// Every real input must move the fingerprint.
	seeded := fcfg
	seeded.Seed++
	if FingerprintFleet(wfp, seeded) == FingerprintFleet(wfp, fcfg) {
		t.Fatal("fleet fingerprint ignores the seed")
	}
	wcfg2 := wcfg
	wcfg2.Seed++
	if FingerprintWeather(wcfg2) == wfp {
		t.Fatal("weather fingerprint ignores the seed")
	}
	ccfg2 := ccfg
	ccfg2.DecayFilterKm++
	if FingerprintDataset(ffp, ccfg2) == FingerprintDataset(ffp, ccfg) {
		t.Fatal("dataset fingerprint ignores cleaning parameters")
	}
	// And the upstream fingerprint must flow downstream.
	if FingerprintFleet(FingerprintWeather(wcfg2), fcfg) == FingerprintFleet(wfp, fcfg) {
		t.Fatal("fleet fingerprint ignores the weather fingerprint")
	}

	// Perturbing any other leaf field, or any slice's count, must move the
	// fingerprint too.
	everyLeafMoves(t, testWeatherCfg, FingerprintWeather)
	everyLeafMoves(t, testFleetCfg, func(c constellation.Config) Fingerprint { return FingerprintFleet(wfp, c) })
	everyLeafMoves(t, core.DefaultConfig, func(c core.Config) Fingerprint { return FingerprintDataset(ffp, c) })
}

// everyLeafMoves perturbs, one at a time on a fresh config from mk, every
// leaf field fp must see — every field but Parallelism, each slice through
// its first element — and each slice's count, and fails if fp does not move.
func everyLeafMoves[C any](t *testing.T, mk func() C, fp func(C) Fingerprint) {
	t.Helper()
	type leaf struct {
		path string
		at   func(reflect.Value) reflect.Value
	}
	var leaves []leaf
	var walk func(v reflect.Value, path string, at func(reflect.Value) reflect.Value)
	walk = func(v reflect.Value, path string, at func(reflect.Value) reflect.Value) {
		switch {
		case v.Type() == reflect.TypeFor[time.Time]():
			leaves = append(leaves, leaf{path, at})
		case v.Kind() == reflect.Struct:
			for i := range v.NumField() {
				name := v.Type().Field(i).Name
				if name != "Parallelism" {
					walk(v.Field(i), path+"."+name, func(r reflect.Value) reflect.Value { return at(r).Field(i) })
				}
			}
		case v.Kind() == reflect.Slice:
			leaves = append(leaves, leaf{path + ".len", at})
			if v.Len() > 0 {
				walk(v.Index(0), path+"[0]", func(r reflect.Value) reflect.Value { return at(r).Index(0) })
			}
		default:
			leaves = append(leaves, leaf{path, at})
		}
	}
	base := mk()
	walk(reflect.ValueOf(base), reflect.TypeOf(base).Name(), func(r reflect.Value) reflect.Value { return r })
	want := fp(base)
	for _, l := range leaves {
		c := mk()
		v := l.at(reflect.ValueOf(&c).Elem())
		switch {
		case v.Type() == reflect.TypeFor[time.Time]():
			v.Set(reflect.ValueOf(v.Interface().(time.Time).Add(time.Hour)))
		case v.Kind() == reflect.Slice:
			v.Set(reflect.Append(v, reflect.Zero(v.Type().Elem())))
		case v.CanInt():
			v.SetInt(v.Int() + 1)
		case v.CanFloat():
			v.SetFloat(v.Float() + 1)
		case v.Kind() == reflect.Bool:
			v.SetBool(!v.Bool())
		case v.Kind() == reflect.String:
			v.SetString(v.String() + "x")
		default:
			t.Fatalf("%s: no perturbation for a %s", l.path, v.Type())
		}
		if fp(c) == want {
			t.Errorf("fingerprint ignores %s", l.path)
		}
	}
	if len(leaves) < 5 {
		t.Fatalf("walked only %d leaves of a %T", len(leaves), base)
	}
}

// --- cache ---

func TestCacheHitBitIdentical(t *testing.T) {
	w := testWeather(t)
	res := testArchive(t, w)
	cold := testDataset(t, w, res)

	cache, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fp := FingerprintDataset(FingerprintFleet(FingerprintWeather(testWeatherCfg()), testFleetCfg()), core.DefaultConfig())
	if _, ok := cache.LoadDataset(fp, core.DefaultConfig()); ok {
		t.Fatal("hit on an empty cache")
	}
	if err := cache.StoreDataset(fp, cold); err != nil {
		t.Fatal(err)
	}
	warm, ok := cache.LoadDataset(fp, core.DefaultConfig())
	if !ok {
		t.Fatal("miss after store")
	}
	// The headline guarantee: warm equals cold, bit for bit.
	if !bytes.Equal(encodeDatasetBytes(t, warm), encodeDatasetBytes(t, cold)) {
		t.Fatal("cache hit is not bit-identical to the cold build")
	}
	if !reflect.DeepEqual(warm.Partial(), cold.Partial()) {
		t.Fatal("cache hit state differs from the cold build")
	}
}

func TestCacheDropsDamagedEntries(t *testing.T) {
	w := testWeather(t)
	dir := t.TempDir()
	cache, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	fp := FingerprintWeather(testWeatherCfg())
	if err := cache.StoreWeather(fp, w); err != nil {
		t.Fatal(err)
	}
	path := cache.Path(KindWeather, fp)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := cache.LoadWeather(fp); ok {
		t.Fatal("damaged entry served")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("damaged entry not removed")
	}
	// And the cache recovers: store again, load again.
	if err := cache.StoreWeather(fp, w); err != nil {
		t.Fatal(err)
	}
	if _, ok := cache.LoadWeather(fp); !ok {
		t.Fatal("miss after re-store")
	}
}

func TestCacheStoreIsAtomic(t *testing.T) {
	dir := t.TempDir()
	cache, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	w := testWeather(t)
	if err := cache.StoreWeather(FingerprintWeather(testWeatherCfg()), w); err != nil {
		t.Fatal(err)
	}
	entries, err := filepath.Glob(filepath.Join(dir, "tmp-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("staging files left behind: %v", entries)
	}
}

// --- pipeline ---

func TestPipelineWarmEqualsCold(t *testing.T) {
	dir := t.TempDir()
	cache, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	wcfg, fcfg, ccfg := testWeatherCfg(), testFleetCfg(), core.DefaultConfig()

	coldPipe := NewPipeline(cache)
	coldPipe.Log = failLogger(t)
	cold, err := coldPipe.Dataset(context.Background(), wcfg, fcfg, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	// Within one pipeline the dataset is memoized: same pointer.
	again, err := coldPipe.Dataset(context.Background(), wcfg, fcfg, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	if again != cold {
		t.Fatal("pipeline did not memoize the dataset")
	}
	// The dataset snapshot is self-contained: building it stores no archive
	// of the run it came from.
	if archives, err := filepath.Glob(filepath.Join(dir, KindArchive.String()+"-*.cda")); err != nil || len(archives) != 0 {
		t.Fatalf("cold Dataset stored archives %v (glob: %v)", archives, err)
	}

	// A fresh pipeline over the same cache must load, not rebuild — and the
	// loaded dataset must be bit-identical. Parallelism differs on purpose:
	// it must not move the cache key.
	warmCfgs := fcfg
	warmCfgs.Parallelism = 4
	warmCore := ccfg
	warmCore.Parallelism = 4
	warmPipe := NewPipeline(cache)
	warmPipe.Log = failLogger(t)
	warm, err := warmPipe.Dataset(context.Background(), wcfg, warmCfgs, warmCore)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeDatasetBytes(t, warm), encodeDatasetBytes(t, cold)) {
		t.Fatal("warm pipeline dataset is not bit-identical to the cold build")
	}

	// Weather and fleet come back identical through their own entries.
	coldW, err := coldPipe.Weather(context.Background(), wcfg)
	if err != nil {
		t.Fatal(err)
	}
	warmW, err := warmPipe.Weather(context.Background(), wcfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeWeatherBytes(t, warmW), encodeWeatherBytes(t, coldW)) {
		t.Fatal("warm weather is not bit-identical")
	}
	coldF, err := coldPipe.Fleet(context.Background(), wcfg, fcfg)
	if err != nil {
		t.Fatal(err)
	}
	warmF, err := warmPipe.Fleet(context.Background(), wcfg, warmCfgs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeArchiveBytes(t, warmF), encodeArchiveBytes(t, coldF)) {
		t.Fatal("warm archive is not bit-identical")
	}
}

func TestPipelineWithoutCache(t *testing.T) {
	pipe := NewPipeline(nil)
	d, err := pipe.Dataset(context.Background(), testWeatherCfg(), testFleetCfg(), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Tracks()) == 0 {
		t.Fatal("no tracks")
	}
}
