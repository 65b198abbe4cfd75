package tle

import (
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"cosmicdance/internal/units"
)

// FuzzParse hammers the TLE parser with mutated lines: it must never panic,
// anything it accepts must re-encode to lines it accepts again, and the
// encoder must match its referee on everything the parser accepts.
func FuzzParse(f *testing.F) {
	f.Add(issLine1, issLine2)
	f.Add(strings.Repeat("1", 69), strings.Repeat("2", 69))
	f.Add("1 00001U 20001A   20001.00000000  .00000000  00000-0  00000-0 0    07",
		"2 00001  53.0000 000.0000 0000000 000.0000 000.0000 15.05000000    07")
	f.Add("", "")
	f.Add("1 25544U 98067A   08264.51782528 -.00002182 -00012-9  00001-9 0  2925", issLine2)
	f.Add("1 25544U 98067A   08264.51782528 1.00000000 999999+9 999999+9 0  2920", issLine2)
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
		checkAgainstReferee(t, parsed)
		// Accepted input must survive a format/parse cycle (when the values
		// are representable in the fixed-width fields), with the derivative
		// and drag terms within half a unit of the field's last digit.
		o1, o2, err := parsed.Format()
		if err != nil {
			return
		}
		back, err := Parse(o1, o2)
		if err != nil {
			t.Fatalf("re-parse of own output failed: %v\n%q\n%q", err, o1, o2)
		}
		withinHalfUnit(t, "ndot", parsed.MeanMotionDot, back.MeanMotionDot, 1e-8)
		withinHalfUnit(t, "nddot", parsed.MeanMotionDDot, back.MeanMotionDDot, expFieldUnit(t, o1[44:52]))
		withinHalfUnit(t, "bstar", parsed.BStar, back.BStar, expFieldUnit(t, o1[53:61]))
	})
}

// expFieldUnit is the value of one unit in the last mantissa digit of an
// encoded exponent field: " 34123-4" holds 0.34123e-4 in units of 1e-9.
func expFieldUnit(t *testing.T, field string) float64 {
	t.Helper()
	exp, err := strconv.Atoi(field[6:8])
	if err != nil {
		t.Fatalf("exponent field %q: %v", field, err)
	}
	return math.Pow(10, float64(exp-5))
}

// withinHalfUnit fails unless a re-encoded value is within half a unit of
// its field's last digit of the value encoded, up to float rounding.
func withinHalfUnit(t *testing.T, name string, in, out, unit float64) {
	t.Helper()
	if d := math.Abs(out - in); d > unit*(0.5+1e-9) {
		t.Fatalf("%s %v re-encoded as %v: off by %v, more than half of %v", name, in, out, d, unit)
	}
}

// FuzzRoundTrip drives the encoder from field values: any element set the
// encoder agrees to format must decode back to the same trajectory-relevant
// values. A lossy codec here would silently move satellites.
func FuzzRoundTrip(f *testing.F) {
	f.Add(44713, int64(1577836800), 0.0005, 53.0, 15.05, 4e-4)
	f.Add(1, int64(0), 0.0, 0.0, 0.1, 0.0)
	f.Add(99999, int64(2000000000), 0.9999999, 179.9999, 16.5, -1.1e-3)
	f.Add(1, int64(0), 0.0, 0.0, 0.1, 1e-14)
	f.Add(1, int64(0), 0.0, 0.0, 0.1, 9.99999e8)
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
		withinHalfUnit(t, "bstar", in.BStar, out.BStar, expFieldUnit(t, l1[53:61]))
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
