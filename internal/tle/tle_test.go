package tle

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"
)

// The canonical ISS example element set (Hoots & Roehrich format docs).
const (
	issLine1 = "1 25544U 98067A   08264.51782528 -.00002182  00000-0 -11606-4 0  2927"
	issLine2 = "2 25544  51.6416 247.4627 0006703 130.5360 325.0288 15.72125391563537"
)

func TestParseISS(t *testing.T) {
	tl, err := Parse(issLine1, issLine2)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if tl.CatalogNumber != 25544 {
		t.Errorf("CatalogNumber = %d", tl.CatalogNumber)
	}
	if tl.Classification != 'U' {
		t.Errorf("Classification = %c", tl.Classification)
	}
	if tl.IntlDesignator != "98067A" {
		t.Errorf("IntlDesignator = %q", tl.IntlDesignator)
	}
	if tl.Epoch.Year() != 2008 {
		t.Errorf("Epoch year = %d", tl.Epoch.Year())
	}
	if doy := tl.Epoch.YearDay(); doy != 264 {
		t.Errorf("Epoch day-of-year = %d, want 264", doy)
	}
	if math.Abs(tl.MeanMotionDot-(-0.00002182)) > 1e-12 {
		t.Errorf("MeanMotionDot = %v", tl.MeanMotionDot)
	}
	if tl.MeanMotionDDot != 0 {
		t.Errorf("MeanMotionDDot = %v", tl.MeanMotionDDot)
	}
	if math.Abs(tl.BStar-(-0.11606e-4)) > 1e-12 {
		t.Errorf("BStar = %v", tl.BStar)
	}
	if tl.ElementSet != 292 {
		t.Errorf("ElementSet = %d", tl.ElementSet)
	}
	if math.Abs(float64(tl.Inclination)-51.6416) > 1e-9 {
		t.Errorf("Inclination = %v", tl.Inclination)
	}
	if math.Abs(float64(tl.RAAN)-247.4627) > 1e-9 {
		t.Errorf("RAAN = %v", tl.RAAN)
	}
	if math.Abs(tl.Eccentricity-0.0006703) > 1e-12 {
		t.Errorf("Eccentricity = %v", tl.Eccentricity)
	}
	if math.Abs(float64(tl.ArgPerigee)-130.5360) > 1e-9 {
		t.Errorf("ArgPerigee = %v", tl.ArgPerigee)
	}
	if math.Abs(float64(tl.MeanAnomaly)-325.0288) > 1e-9 {
		t.Errorf("MeanAnomaly = %v", tl.MeanAnomaly)
	}
	if math.Abs(float64(tl.MeanMotion)-15.72125391) > 1e-9 {
		t.Errorf("MeanMotion = %v", tl.MeanMotion)
	}
	if tl.RevNumber != 56353 {
		t.Errorf("RevNumber = %d", tl.RevNumber)
	}
	// The ISS orbits at roughly 340-360 km.
	if alt := tl.Altitude(); alt < 330 || alt > 370 {
		t.Errorf("Altitude = %v, want ~350 km", alt)
	}
}

func TestChecksum(t *testing.T) {
	if got := Checksum(issLine1); got != 7 {
		t.Errorf("checksum line1 = %d, want 7", got)
	}
	if got := Checksum(issLine2); got != 7 {
		t.Errorf("checksum line2 = %d, want 7", got)
	}
	// Minus signs count as 1.
	if got := Checksum(strings.Repeat("-", 68)); got != 68%10 {
		t.Errorf("checksum of dashes = %d", got)
	}
	// Letters and spaces count as 0.
	if got := Checksum("ABC xyz"); got != 0 {
		t.Errorf("checksum of letters = %d", got)
	}
}

func TestParseRejectsBadChecksum(t *testing.T) {
	bad := issLine1[:68] + "0" // correct value is 7
	_, err := Parse(bad, issLine2)
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *ParseError", err)
	}
	if pe.Line != 1 || pe.Column != 69 {
		t.Errorf("error location = line %d col %d", pe.Line, pe.Column)
	}
}

// TestChecksumErrorMatchesSentinel: a checksum mismatch matches
// ErrChecksum from Parse and through ReadAll's wrap, and its message names
// the package once.
func TestChecksumErrorMatchesSentinel(t *testing.T) {
	bad := issLine2[:68] + "8" // correct value is 7
	_, parseErr := Parse(issLine1, bad)
	_, readErr := ReadAll(strings.NewReader(issLine1 + "\n" + bad + "\n"))
	const want = "tle: line 2 col 69: checksum mismatch: want 7"
	for _, c := range []struct {
		name string
		err  error
	}{{"Parse", parseErr}, {"ReadAll", readErr}} {
		if !errors.Is(c.err, ErrChecksum) {
			t.Errorf("%s: err = %v, want one matching ErrChecksum", c.name, c.err)
		}
		if c.err == nil || !strings.HasSuffix(c.err.Error(), want) {
			t.Errorf("%s: err = %v, want one ending %q", c.name, c.err, want)
		}
	}
}

func TestParseRejectsMalformedLines(t *testing.T) {
	cases := []struct {
		name   string
		l1, l2 string
	}{
		{"short line 1", "1 25544U", issLine2},
		{"short line 2", issLine1, "2 25544"},
		{"long line", issLine1 + "X", issLine2},
		{"wrong line number 1", "2" + issLine1[1:], issLine2},
		{"wrong line number 2", issLine1, "1" + issLine2[1:]},
		{"catalog mismatch", issLine1, fixChecksum("2 25545  51.6416 247.4627 0006703 130.5360 325.0288 15.72125391563537")},
		{"bad epoch day", fixChecksum("1 25544U 98067A   08999.51782528 -.00002182  00000-0 -11606-4 0  2927"), issLine2},
		{"bad eccentricity", issLine1, fixChecksum("2 25544  51.6416 247.4627 00x6703 130.5360 325.0288 15.72125391563537")},
	}
	for _, c := range cases {
		if _, err := Parse(c.l1, c.l2); err == nil {
			t.Errorf("%s: Parse accepted malformed input", c.name)
		}
	}
}

// fixChecksum recomputes the final checksum column of a 69-char line so the
// test reaches the field validation being exercised.
func fixChecksum(line string) string {
	return line[:68] + string(rune('0'+Checksum(line)))
}

func TestParseEpochCentury(t *testing.T) {
	cases := []struct {
		in   string
		year int
	}{
		{"57001.00000000", 1957},
		{"99365.00000000", 1999},
		{"00001.00000000", 2000},
		{"24131.50000000", 2024},
		{"56366.00000000", 2056},
	}
	for _, c := range cases {
		got, err := parseEpoch(c.in)
		if err != nil {
			t.Fatalf("parseEpoch(%q): %v", c.in, err)
		}
		if got.Year() != c.year {
			t.Errorf("parseEpoch(%q).Year() = %d, want %d", c.in, got.Year(), c.year)
		}
	}
	if _, err := parseEpoch("xx"); err == nil {
		t.Error("short epoch accepted")
	}
	if _, err := parseEpoch("ab123.0000"); err == nil {
		t.Error("non-numeric year accepted")
	}
}

func TestParseEpochMay2024(t *testing.T) {
	// 11 May 2024 is day-of-year 132 (leap year).
	got, err := parseEpoch("24132.00000000")
	if err != nil {
		t.Fatal(err)
	}
	want := time.Date(2024, 5, 11, 0, 0, 0, 0, time.UTC)
	if !got.Equal(want) {
		t.Errorf("epoch = %v, want %v", got, want)
	}
}

func TestParseExpField(t *testing.T) {
	cases := []struct {
		in   string
		want float64
	}{
		{" 00000-0", 0},
		{" 00000+0", 0},
		{"        ", 0},
		{" 34123-4", 0.34123e-4},
		{"-11606-4", -0.11606e-4},
		{" 12345+1", 1.2345},
		{"+54321-2", 0.54321e-2},
	}
	for _, c := range cases {
		got, err := parseExpField(c.in, 1, 1, len(c.in))
		if err != nil {
			t.Fatalf("parseExpField(%q): %v", c.in, err)
		}
		if math.Abs(got-c.want) > 1e-15 {
			t.Errorf("parseExpField(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	for _, bad := range []string{" 123a5-4", " 12345x4", "-4"} {
		if _, err := parseExpField(bad, 1, 1, len(bad)); err == nil {
			t.Errorf("parseExpField(%q) accepted", bad)
		}
	}
}

func TestFormatRoundTripISS(t *testing.T) {
	tl, err := Parse(issLine1, issLine2)
	if err != nil {
		t.Fatal(err)
	}
	l1, l2, err := tl.Format()
	if err != nil {
		t.Fatalf("Format: %v", err)
	}
	back, err := Parse(l1, l2)
	if err != nil {
		t.Fatalf("reparse: %v\n%s\n%s", err, l1, l2)
	}
	if back.CatalogNumber != tl.CatalogNumber ||
		back.IntlDesignator != tl.IntlDesignator ||
		back.RevNumber != tl.RevNumber ||
		back.ElementSet != tl.ElementSet {
		t.Errorf("identity fields changed: %+v vs %+v", back, tl)
	}
	if math.Abs(float64(back.MeanMotion-tl.MeanMotion)) > 1e-8 {
		t.Errorf("mean motion drifted: %v vs %v", back.MeanMotion, tl.MeanMotion)
	}
	if math.Abs(back.Eccentricity-tl.Eccentricity) > 1e-7 {
		t.Errorf("eccentricity drifted: %v vs %v", back.Eccentricity, tl.Eccentricity)
	}
	if math.Abs(back.BStar-tl.BStar) > math.Abs(tl.BStar)*1e-4 {
		t.Errorf("bstar drifted: %v vs %v", back.BStar, tl.BStar)
	}
	if d := back.Epoch.Sub(tl.Epoch); d > time.Millisecond || d < -time.Millisecond {
		t.Errorf("epoch drifted by %v", d)
	}
}

func TestFormatFieldRangeErrors(t *testing.T) {
	base := func() *TLE {
		return &TLE{
			CatalogNumber: 44713,
			Epoch:         time.Date(2023, 3, 24, 12, 0, 0, 0, time.UTC),
			MeanMotion:    15.05,
			Inclination:   53,
		}
	}
	tl := base()
	tl.CatalogNumber = 100000
	if _, _, err := tl.Format(); err == nil {
		t.Error("6-digit catalog number accepted")
	}
	tl = base()
	tl.Eccentricity = 1.0
	if _, _, err := tl.Format(); err == nil {
		t.Error("eccentricity 1.0 accepted")
	}
	tl = base()
	tl.MeanMotion = 100
	if _, _, err := tl.Format(); err == nil {
		t.Error("mean motion 100 accepted")
	}
	tl = base()
	tl.Epoch = time.Date(1950, 1, 1, 0, 0, 0, 0, time.UTC)
	if _, _, err := tl.Format(); err == nil {
		t.Error("pre-1957 epoch accepted")
	}
}

func TestFormatDefaultsClassification(t *testing.T) {
	tl := &TLE{
		CatalogNumber: 1,
		Epoch:         time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC),
		MeanMotion:    15.05,
	}
	l1, _, err := tl.Format()
	if err != nil {
		t.Fatal(err)
	}
	if l1[7] != 'U' {
		t.Errorf("classification column = %c, want U", l1[7])
	}
}

func TestFormatExpField(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{0, " 00000+0"},
		{0.34123e-4, " 34123-4"},
		{-0.11606e-4, "-11606-4"},
		{0.5, " 50000+0"},
		{5, " 50000+1"},
	}
	for _, c := range cases {
		if got, ok := appendExpField(nil, c.in); !ok || string(got) != c.want {
			t.Errorf("appendExpField(%v) = %q, %v, want %q", c.in, got, ok, c.want)
		}
		if got, err := refExpField("B*", c.in); err != nil || got != c.want {
			t.Errorf("refExpField(%v) = %q, %v, want %q", c.in, got, err, c.want)
		}
	}
}

func TestStringIncludesName(t *testing.T) {
	tl, err := Parse(issLine1, issLine2)
	if err != nil {
		t.Fatal(err)
	}
	tl.Name = "ISS (ZARYA)"
	s := tl.String()
	if !strings.HasPrefix(s, "ISS (ZARYA)\n1 25544U") {
		t.Errorf("String() = %q", s)
	}
	tl.Name = ""
	if !strings.HasPrefix(tl.String(), "1 25544U") {
		t.Errorf("unnamed String() = %q", tl.String())
	}
}

func TestParseErrorMessage(t *testing.T) {
	e := &ParseError{Line: 2, Column: 27, Msg: "boom"}
	if !strings.Contains(e.Error(), "line 2 col 27") {
		t.Errorf("Error() = %q", e.Error())
	}
	e2 := &ParseError{Line: 1, Msg: "boom"}
	if strings.Contains(e2.Error(), "col") {
		t.Errorf("Error() = %q", e2.Error())
	}
}
