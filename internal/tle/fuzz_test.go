package tle

import (
	"math"
	"strings"
	"testing"
	"time"

	"cosmicdance/internal/units"
)

// FuzzParse hammers the TLE parser with mutated lines: it must never panic,
// and anything it accepts must re-encode to lines it accepts again.
func FuzzParse(f *testing.F) {
	f.Add(issLine1, issLine2)
	f.Add(strings.Repeat("1", 69), strings.Repeat("2", 69))
	f.Add("1 00001U 20001A   20001.00000000  .00000000  00000-0  00000-0 0    07",
		"2 00001  53.0000 000.0000 0000000 000.0000 000.0000 15.05000000    07")
	f.Add("", "")
	f.Fuzz(func(t *testing.T, l1, l2 string) {
		parsed, err := Parse(l1, l2)
		if err != nil {
			return
		}
		// Anything the parser accepts must satisfy the format's invariants:
		// matching checksums, a sane epoch, and plain finite field values —
		// a parser that admits NaN or hex-float spellings would smuggle
		// corruption into the dataset as "valid" trajectories.
		for i, l := range []string{l1, l2} {
			line := strings.TrimRight(l, " \r\n")
			if int(line[68]-'0') != Checksum(line) {
				t.Fatalf("accepted line %d with bad checksum: %q", i+1, line)
			}
		}
		if parsed.CatalogNumber < 0 {
			t.Fatalf("accepted negative catalog number %d", parsed.CatalogNumber)
		}
		if y := parsed.Epoch.Year(); y < 1957 || y > 2057 {
			t.Fatalf("accepted epoch outside the NORAD window: %v", parsed.Epoch)
		}
		if parsed.Eccentricity < 0 || parsed.Eccentricity >= 1 {
			t.Fatalf("accepted eccentricity %v outside [0,1)", parsed.Eccentricity)
		}
		for name, v := range map[string]float64{
			"mean motion dot":  parsed.MeanMotionDot,
			"mean motion ddot": parsed.MeanMotionDDot,
			"bstar":            parsed.BStar,
			"inclination":      float64(parsed.Inclination),
			"raan":             float64(parsed.RAAN),
			"arg perigee":      float64(parsed.ArgPerigee),
			"mean anomaly":     float64(parsed.MeanAnomaly),
			"mean motion":      float64(parsed.MeanMotion),
		} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("accepted non-finite %s: %v", name, v)
			}
		}
		// Accepted input must survive a format/parse cycle (when the values
		// are representable in the fixed-width fields).
		o1, o2, err := parsed.Format()
		if err != nil {
			return
		}
		if _, err := Parse(o1, o2); err != nil {
			t.Fatalf("re-parse of own output failed: %v\n%q\n%q", err, o1, o2)
		}
	})
}

// FuzzRoundTrip drives the encoder from field values: any element set the
// encoder agrees to format must decode back to the same trajectory-relevant
// values. A lossy codec here would silently move satellites.
func FuzzRoundTrip(f *testing.F) {
	f.Add(44713, int64(1577836800), 0.0005, 53.0, 15.05, 4e-4)
	f.Add(1, int64(0), 0.0, 0.0, 0.1, 0.0)
	f.Add(99999, int64(2000000000), 0.9999999, 179.9999, 16.5, -1.1e-3)
	f.Fuzz(func(t *testing.T, catalog int, epoch int64, ecc, incl, mm, bstar float64) {
		in := &TLE{
			CatalogNumber: catalog,
			Epoch:         time.Unix(epoch, 0).UTC(),
			Eccentricity:  ecc,
			Inclination:   units.Degrees(incl),
			MeanMotion:    units.RevsPerDay(mm),
			BStar:         bstar,
		}
		l1, l2, err := in.Format()
		if err != nil {
			return // out-of-range values are rejected, not truncated
		}
		out, err := Parse(l1, l2)
		if err != nil {
			t.Fatalf("own output rejected: %v\n%q\n%q", err, l1, l2)
		}
		if out.CatalogNumber != in.CatalogNumber {
			t.Fatalf("catalog %d -> %d", in.CatalogNumber, out.CatalogNumber)
		}
		if d := out.Epoch.Sub(in.Epoch); d > time.Millisecond || d < -time.Millisecond {
			t.Fatalf("epoch moved by %v (%v -> %v)", d, in.Epoch, out.Epoch)
		}
		if math.Abs(out.Eccentricity-in.Eccentricity) > 1e-7 {
			t.Fatalf("eccentricity %v -> %v", in.Eccentricity, out.Eccentricity)
		}
		if math.Abs(float64(out.Inclination-in.Inclination)) > 1e-4 {
			t.Fatalf("inclination %v -> %v", in.Inclination, out.Inclination)
		}
		if math.Abs(float64(out.MeanMotion-in.MeanMotion)) > 1e-8 {
			t.Fatalf("mean motion %v -> %v", in.MeanMotion, out.MeanMotion)
		}
	})
}

// FuzzReader feeds arbitrary text through the stream reader: it
// must terminate without panicking regardless of input shape.
func FuzzReader(f *testing.F) {
	f.Add("STARLINK-1\n" + issLine1 + "\n" + issLine2 + "\n")
	f.Add("garbage\nmore garbage\n1 partial")
	f.Add("")
	f.Fuzz(func(t *testing.T, input string) {
		sets, err := ReadAll(strings.NewReader(input))
		if err != nil && sets == nil && len(input) == 0 {
			t.Fatalf("empty input errored: %v", err)
		}
	})
}
