package wdc

import (
	"bytes"
	"testing"
	"time"

	"cosmicdance/internal/dst"
)

// FuzzIndexRoundTrip drives the full WDC exchange cycle this service speaks:
// index → daily records → wire text → records → index. Whatever hourly
// values the encoder accepts must come back bit-identical — the Dst feed is
// the causal variable of the whole analysis, so a lossy hop here would skew
// every downstream storm association.
func FuzzIndexRoundTrip(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3})
	f.Add(bytes.Repeat([]byte{200}, 48))
	f.Add([]byte("a long arbitrary byte string that spans more than one day of hourly readings"))
	f.Fuzz(func(t *testing.T, data []byte) {
		days := len(data) / 24
		if days == 0 {
			return
		}
		if days > 40 {
			days = 40
		}
		// WDC hourly fields are I4 integers; derive in-range integral nT
		// readings from the input bytes.
		vals := make([]float64, days*24)
		for i := range vals {
			vals[i] = float64(int(data[i]) - 200) // [-200, 55] nT
		}
		start := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
		in := dst.FromValues(start, vals)

		recs, err := dst.FromIndex(in, 2)
		if err != nil {
			t.Fatalf("FromIndex rejected %d whole days: %v", days, err)
		}
		var wire bytes.Buffer
		if err := dst.WriteRecords(&wire, recs); err != nil {
			t.Fatal(err)
		}
		parsed, err := dst.ParseRecords(bytes.NewReader(wire.Bytes()))
		if err != nil {
			t.Fatalf("re-parse of own wire output failed: %v", err)
		}
		out, err := dst.ToIndex(parsed)
		if err != nil {
			t.Fatal(err)
		}
		if !out.Start().Equal(start) {
			t.Fatalf("start moved: %v -> %v", start, out.Start())
		}
		if out.Len() != in.Len() {
			t.Fatalf("length changed: %d -> %d hours", in.Len(), out.Len())
		}
		for h := 0; h < in.Len(); h++ {
			at := start.Add(time.Duration(h) * time.Hour)
			a, aok := in.At(at)
			b, bok := out.At(at)
			if aok != bok || a != b {
				t.Fatalf("hour %d: %v(%v) -> %v(%v)", h, a, aok, b, bok)
			}
		}
	})
}
