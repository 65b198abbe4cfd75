package artifact

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"cosmicdance/internal/incremental"
)

// testEngine builds a live engine over the shared deterministic fixtures
// (45 days of weather including a scripted storm, a 12-satellite archive),
// fully ingested, so its snapshot exercises every column.
func testEngine(t testing.TB) *incremental.Engine {
	t.Helper()
	w := testWeather(t)
	res := testArchive(t, w)
	eng := incremental.New(incremental.DefaultConfig())
	eng.IngestSamples(res.Samples)
	if _, err := eng.IngestDst(w.Start(), w.Values()); err != nil {
		t.Fatal(err)
	}
	return eng
}

func encodeEngineStateBytes(t testing.TB, st *incremental.EngineState) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeEngineState(&buf, st); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestEngineStateRoundTrip(t *testing.T) {
	eng := testEngine(t)
	st := eng.State()
	got, err := DecodeEngineState(bytes.NewReader(encodeEngineStateBytes(t, &st)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*got, st) {
		t.Fatalf("engine state did not round-trip:\n got %+v\nwant %+v", *got, st)
	}

	// The decoded state must restore into a working engine whose materialized
	// dataset is byte-identical to the original's.
	e2, err := incremental.FromState(incremental.DefaultConfig(), *got)
	if err != nil {
		t.Fatalf("decoded state rejected by FromState: %v", err)
	}
	d1, err := eng.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	d2, err := e2.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeDatasetBytes(t, d1), encodeDatasetBytes(t, d2)) {
		t.Fatal("restored engine materializes a different dataset")
	}
	if e2.Seq() != eng.Seq() || e2.Version() != eng.Version() {
		t.Fatalf("stream cursors drifted: seq %d/%d version %d/%d",
			e2.Seq(), eng.Seq(), e2.Version(), eng.Version())
	}
}

func TestEngineStateFailsClosed(t *testing.T) {
	eng := testEngine(t)
	st := eng.State()
	enc := encodeEngineStateBytes(t, &st)

	for _, n := range []int{0, 1, 4, 11, 12, len(enc) / 2, len(enc) - 1} {
		if _, err := DecodeEngineState(bytes.NewReader(enc[:n])); err == nil {
			t.Fatalf("engine state truncated to %d bytes decoded successfully", n)
		}
	}
	if _, err := DecodeEngineState(bytes.NewReader(append(bytes.Clone(enc), 0))); err == nil {
		t.Fatal("engine state with trailing garbage decoded successfully")
	}
	// Every section payload is CRC-guarded: flip a sample of bytes across the
	// whole snapshot (the header and framing are covered by the exhaustive
	// weather sweep, which shares the codec).
	for i := 0; i < len(enc); i += 61 {
		bad := bytes.Clone(enc)
		bad[i] ^= 0x5a
		if _, err := DecodeEngineState(bytes.NewReader(bad)); err == nil {
			t.Fatalf("flip at byte %d/%d decoded successfully", i, len(enc))
		}
	}
	// A snapshot of another kind must not decode as engine state.
	if _, err := DecodeEngineState(bytes.NewReader(encodeWeatherBytes(t, testWeather(t)))); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("weather snapshot decoded as engine state: %v", err)
	}
}
