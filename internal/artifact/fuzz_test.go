package artifact

import (
	"bytes"
	"context"
	"testing"

	"cosmicdance/internal/core"
	"cosmicdance/internal/incremental"
)

// FuzzSnapshotRoundTrip feeds arbitrary bytes to the weather, archive,
// dataset and engine-state decoders. The properties under test:
//
//  1. No input panics a decoder — damage is an error, never a crash.
//  2. Any input that decodes successfully is in canonical form: re-encoding
//     the decoded value reproduces the input byte for byte. (This is the
//     cache's bit-identity guarantee, stated as a decoder invariant.)
//  3. An engine state either fails incremental.FromState or restores an
//     engine whose own snapshot is the input, byte for byte: the restart
//     path from bytes to engine fails closed.
//
// The seed corpus holds one valid encoding of each kind, so the fuzzer
// mutates real snapshots rather than hunting for the magic from scratch.
func FuzzSnapshotRoundTrip(f *testing.F) {
	w := testWeather(f)
	res := testArchive(f, w)
	d := testDataset(f, w, res)
	f.Add(encodeWeatherBytes(f, w))
	f.Add(encodeArchiveBytes(f, res))
	f.Add(encodeDatasetBytes(f, d))
	f.Add([]byte{})
	f.Add([]byte("CDAS"))
	st := testEngine(f).State()
	f.Add(encodeEngineStateBytes(f, &st))

	cfg := core.DefaultConfig()
	f.Fuzz(func(t *testing.T, data []byte) {
		if w, err := DecodeWeather(bytes.NewReader(data)); err == nil {
			var buf bytes.Buffer
			if err := EncodeWeather(&buf, w); err != nil {
				t.Fatalf("re-encode weather: %v", err)
			}
			if !bytes.Equal(buf.Bytes(), data) {
				t.Fatal("accepted weather snapshot is not canonical")
			}
		}
		if res, err := DecodeArchive(bytes.NewReader(data)); err == nil {
			var buf bytes.Buffer
			if err := EncodeArchive(&buf, res); err != nil {
				t.Fatalf("re-encode archive: %v", err)
			}
			if !bytes.Equal(buf.Bytes(), data) {
				t.Fatal("accepted archive snapshot is not canonical")
			}
		}
		if ds, err := DecodeDataset(bytes.NewReader(data), cfg); err == nil {
			var buf bytes.Buffer
			if err := EncodeDataset(&buf, ds); err != nil {
				t.Fatalf("re-encode dataset: %v", err)
			}
			if !bytes.Equal(buf.Bytes(), data) {
				t.Fatal("accepted dataset snapshot is not canonical")
			}
		}
		if st, err := DecodeEngineState(bytes.NewReader(data)); err == nil {
			var buf bytes.Buffer
			if err := EncodeEngineState(&buf, st); err != nil {
				t.Fatalf("re-encode engine state: %v", err)
			}
			if !bytes.Equal(buf.Bytes(), data) {
				t.Fatal("accepted engine-state snapshot is not canonical")
			}
			// The restart path: a state FromState accepts is one the
			// restored engine snapshots back to the same bytes.
			eng, err := incremental.FromState(incremental.DefaultConfig(), *st)
			if err != nil {
				return
			}
			restored := eng.State()
			buf.Reset()
			if err := EncodeEngineState(&buf, &restored); err != nil {
				t.Fatalf("encode restored engine state: %v", err)
			}
			if !bytes.Equal(buf.Bytes(), data) {
				t.Fatal("the engine restored from an accepted snapshot snapshots different bytes")
			}
		}
	})
}

// FuzzSegmentRoundTrip feeds arbitrary bytes to the segment decoder — the
// stored unit of the chunked streaming pipeline. Same properties as the
// snapshot fuzzer: no input may panic, and any accepted input must be
// canonical (decode → re-encode reproduces it byte for byte, which is what
// guarantees a damaged segment can degrade only to a rebuild, never to
// wrong data).
func FuzzSegmentRoundTrip(f *testing.F) {
	w := testWeather(f)
	res := testArchive(f, w)
	cfg := core.DefaultConfig()
	cfg.Parallelism = 1
	p, err := core.BuildChunkPartial(context.Background(), cfg, res.Samples)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(encodeSegmentBytes(f, 0, p))
	f.Add(encodeSegmentBytes(f, 3, tinyPartial()))
	f.Add([]byte{})
	f.Add([]byte("CDAS"))

	f.Fuzz(func(t *testing.T, data []byte) {
		chunk, got, err := DecodeSegment(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := EncodeSegment(&buf, chunk, got); err != nil {
			t.Fatalf("re-encode segment: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Fatal("accepted segment snapshot is not canonical")
		}
	})
}
