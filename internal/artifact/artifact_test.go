package artifact

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

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

// --- fail-closed decoding ---

func decodeAny(kind Kind, data []byte) error {
	switch kind {
	case KindWeather:
		_, err := DecodeWeather(bytes.NewReader(data))
		return err
	case KindArchive:
		_, err := DecodeArchive(bytes.NewReader(data))
		return err
	default:
		_, err := DecodeDataset(bytes.NewReader(data), core.DefaultConfig())
		return err
	}
}

// TestEveryByteFlipFailsClosed corrupts each byte of a weather snapshot in
// turn; no flip may decode successfully. Weather is small enough for the
// exhaustive sweep; the framing is shared by all three kinds.
func TestEveryByteFlipFailsClosed(t *testing.T) {
	w := testWeather(t)
	enc := encodeWeatherBytes(t, w)
	for i := range enc {
		bad := bytes.Clone(enc)
		bad[i] ^= 0x5a
		if err := decodeAny(KindWeather, bad); err == nil {
			t.Fatalf("flip at byte %d/%d decoded successfully", i, len(enc))
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
