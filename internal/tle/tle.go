// Package tle implements the NORAD Two-Line Element set format: the textual
// trajectory records CSpOC publishes for every tracked object and that
// CosmicDance ingests from CelesTrak and Space-Track. The codec round-trips
// the real format byte-for-byte (fixed columns, implied-decimal exponent
// fields, mod-10 checksums) so the pipeline is indistinguishable from one fed
// live data.
package tle

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"cosmicdance/internal/orbit"
	"cosmicdance/internal/units"
)

// TLE is one decoded element set.
type TLE struct {
	Name string // optional object name from the 3LE header line

	// Line 1 fields.
	CatalogNumber  int
	Classification byte   // 'U' unclassified, 'C', 'S'
	IntlDesignator string // e.g. "19074A" (launch year, launch number, piece)
	Epoch          time.Time
	MeanMotionDot  float64 // first derivative of mean motion / 2 (rev/day²)
	MeanMotionDDot float64 // second derivative / 6 (rev/day³)
	BStar          float64 // drag term (1/Earth radii)
	EphemerisType  int
	ElementSet     int

	// Line 2 fields.
	Inclination  units.Degrees
	RAAN         units.Degrees
	Eccentricity float64
	ArgPerigee   units.Degrees
	MeanAnomaly  units.Degrees
	MeanMotion   units.RevsPerDay
	RevNumber    int
}

// Altitude derives the mean altitude from the mean motion, the quantity the
// paper's decay analysis is built on.
func (t *TLE) Altitude() units.Kilometers { return orbit.AltitudeFromMeanMotion(t.MeanMotion) }

// Elements extracts the six Keplerian elements.
func (t *TLE) Elements() orbit.Elements {
	return orbit.Elements{
		Eccentricity: t.Eccentricity,
		MeanMotion:   t.MeanMotion,
		Inclination:  t.Inclination,
		RAAN:         t.RAAN,
		ArgPerigee:   t.ArgPerigee,
		MeanAnomaly:  t.MeanAnomaly,
	}
}

// ParseError describes a malformed TLE line.
type ParseError struct {
	Line   int // 1 or 2
	Column int // 1-indexed start column of the offending field, 0 if whole-line
	Msg    string
}

// Error implements the error interface.
func (e *ParseError) Error() string {
	if e.Column > 0 {
		return fmt.Sprintf("tle: line %d col %d: %s", e.Line, e.Column, e.Msg)
	}
	return fmt.Sprintf("tle: line %d: %s", e.Line, e.Msg)
}

// ErrChecksum is wrapped by checksum-mismatch parse errors.
var ErrChecksum = errors.New("tle: checksum mismatch")

// Checksum computes the NORAD mod-10 checksum of the first 68 characters:
// digits count as their value, '-' counts as 1, everything else as 0.
func Checksum(line string) int { return checksum(line) }

func checksum[S string | []byte](line S) int {
	sum := 0
	n := len(line)
	if n > 68 {
		n = 68
	}
	for i := 0; i < n; i++ {
		switch c := line[i]; {
		case c >= '0' && c <= '9':
			sum += int(c - '0')
		case c == '-':
			sum++
		}
	}
	return sum % 10
}

// Parse decodes a two-line element set. Both lines must be exactly 69
// characters (the standard forbids shorter lines; trailing whitespace is
// tolerated and trimmed to column 69).
func Parse(line1, line2 string) (*TLE, error) {
	l1, err := padLine(line1, 1)
	if err != nil {
		return nil, err
	}
	l2, err := padLine(line2, 2)
	if err != nil {
		return nil, err
	}
	if l1[0] != '1' {
		return nil, &ParseError{Line: 1, Column: 1, Msg: "line number is not 1"}
	}
	if l2[0] != '2' {
		return nil, &ParseError{Line: 2, Column: 1, Msg: "line number is not 2"}
	}
	for i, l := range []string{l1, l2} {
		want, err := strconv.Atoi(strings.TrimSpace(l[68:69]))
		if err != nil || want != Checksum(l) {
			return nil, &ParseError{Line: i + 1, Column: 69, Msg: fmt.Sprintf("%v: want %d", ErrChecksum, Checksum(l))}
		}
	}

	var t TLE

	// Line 1.
	cat1, err := parseInt(l1, 1, 3, 7)
	if err != nil {
		return nil, err
	}
	if cat1 < 0 {
		return nil, &ParseError{Line: 1, Column: 3, Msg: fmt.Sprintf("negative catalog number %d", cat1)}
	}
	t.CatalogNumber = cat1
	t.Classification = l1[7]
	t.IntlDesignator = strings.TrimSpace(l1[9:17])
	t.Epoch, err = parseEpoch(l1[18:32])
	if err != nil {
		return nil, &ParseError{Line: 1, Column: 19, Msg: err.Error()}
	}
	t.MeanMotionDot, err = parseSignedDecimal(l1, 1, 34, 43)
	if err != nil {
		return nil, err
	}
	t.MeanMotionDDot, err = parseExpField(l1, 1, 45, 52)
	if err != nil {
		return nil, err
	}
	t.BStar, err = parseExpField(l1, 1, 54, 61)
	if err != nil {
		return nil, err
	}
	if t.EphemerisType, err = parseIntDefault(l1, 1, 63, 63, 0); err != nil {
		return nil, err
	}
	if t.ElementSet, err = parseIntDefault(l1, 1, 65, 68, 0); err != nil {
		return nil, err
	}

	// Line 2.
	cat2, err := parseInt(l2, 2, 3, 7)
	if err != nil {
		return nil, err
	}
	if cat2 != cat1 {
		return nil, &ParseError{Line: 2, Column: 3, Msg: fmt.Sprintf("catalog number %d does not match line 1 (%d)", cat2, cat1)}
	}
	inc, err := parseFloat(l2, 2, 9, 16)
	if err != nil {
		return nil, err
	}
	t.Inclination = units.Degrees(inc)
	raan, err := parseFloat(l2, 2, 18, 25)
	if err != nil {
		return nil, err
	}
	t.RAAN = units.Degrees(raan)
	eccDigits := strings.TrimSpace(l2[26:33])
	if eccDigits == "" {
		eccDigits = "0"
	}
	eccInt, err := strconv.ParseUint(eccDigits, 10, 64)
	if err != nil {
		return nil, &ParseError{Line: 2, Column: 27, Msg: "bad eccentricity: " + err.Error()}
	}
	t.Eccentricity = float64(eccInt) / 1e7
	argp, err := parseFloat(l2, 2, 35, 42)
	if err != nil {
		return nil, err
	}
	t.ArgPerigee = units.Degrees(argp)
	ma, err := parseFloat(l2, 2, 44, 51)
	if err != nil {
		return nil, err
	}
	t.MeanAnomaly = units.Degrees(ma)
	mm, err := parseFloat(l2, 2, 53, 63)
	if err != nil {
		return nil, err
	}
	t.MeanMotion = units.RevsPerDay(mm)
	if t.RevNumber, err = parseIntDefault(l2, 2, 64, 68, 0); err != nil {
		return nil, err
	}
	return &t, nil
}

func padLine(line string, n int) (string, error) {
	line = strings.TrimRight(line, " \r\n")
	if len(line) > 69 {
		return "", &ParseError{Line: n, Msg: fmt.Sprintf("line is %d characters, want <= 69", len(line))}
	}
	if len(line) < 69 {
		// The standard emits exactly 69 columns, but some archives trim
		// trailing blanks from short fields; right-pad before fixed slicing.
		// The checksum column must still be present.
		return "", &ParseError{Line: n, Msg: fmt.Sprintf("line is %d characters, want 69", len(line))}
	}
	return line, nil
}

// parseInt reads the integer in 1-indexed columns [from, to].
func parseInt(line string, lineNo, from, to int) (int, error) {
	s := strings.TrimSpace(line[from-1 : to])
	if s == "" {
		return 0, &ParseError{Line: lineNo, Column: from, Msg: "empty integer field"}
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, &ParseError{Line: lineNo, Column: from, Msg: err.Error()}
	}
	return v, nil
}

func parseIntDefault(line string, lineNo, from, to, def int) (int, error) {
	s := strings.TrimSpace(line[from-1 : to])
	if s == "" {
		return def, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, &ParseError{Line: lineNo, Column: from, Msg: err.Error()}
	}
	return v, nil
}

// plainDecimal reports whether s is an optionally-signed plain decimal
// number: digits with at most one dot, at least one digit. TLE fields are
// fixed-format decimals, so the spellings strconv.ParseFloat additionally
// accepts — "NaN", "Inf", hex floats, exponents — are all corruption here.
func plainDecimal(s string) bool {
	if s == "" {
		return false
	}
	if s[0] == '+' || s[0] == '-' {
		s = s[1:]
	}
	digits, dots := 0, 0
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c >= '0' && c <= '9':
			digits++
		case c == '.':
			dots++
		default:
			return false
		}
	}
	return digits > 0 && dots <= 1
}

func parseFloat(line string, lineNo, from, to int) (float64, error) {
	s := strings.TrimSpace(line[from-1 : to])
	if s == "" {
		return 0, &ParseError{Line: lineNo, Column: from, Msg: "empty float field"}
	}
	if !plainDecimal(s) {
		return 0, &ParseError{Line: lineNo, Column: from, Msg: fmt.Sprintf("%q is not a plain decimal", s)}
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, &ParseError{Line: lineNo, Column: from, Msg: err.Error()}
	}
	return v, nil
}

// parseSignedDecimal reads fields like " .00002182" or "-.00000340".
func parseSignedDecimal(line string, lineNo, from, to int) (float64, error) {
	s := strings.TrimSpace(line[from-1 : to])
	if s == "" {
		return 0, nil
	}
	// Accept both ".5" and "0.5" spellings — but only plain decimals.
	if !plainDecimal(s) {
		return 0, &ParseError{Line: lineNo, Column: from, Msg: fmt.Sprintf("%q is not a plain decimal", s)}
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, &ParseError{Line: lineNo, Column: from, Msg: err.Error()}
	}
	return v, nil
}

// parseExpField reads the TLE implied-decimal exponent notation, e.g.
// " 34123-4" meaning +0.34123e-4 and "-11606-4" meaning -0.11606e-4.
// An all-zero field (" 00000-0" or " 00000+0") decodes to 0.
func parseExpField(line string, lineNo, from, to int) (float64, error) {
	s := line[from-1 : to]
	trimmed := strings.TrimSpace(s)
	if trimmed == "" {
		return 0, nil
	}
	sign := 1.0
	rest := trimmed
	switch rest[0] {
	case '-':
		sign = -1
		rest = rest[1:]
	case '+':
		rest = rest[1:]
	}
	if len(rest) < 2 {
		return 0, &ParseError{Line: lineNo, Column: from, Msg: fmt.Sprintf("exponent field %q too short", s)}
	}
	expPart := rest[len(rest)-2:]
	mantPart := rest[:len(rest)-2]
	if expPart[0] != '+' && expPart[0] != '-' {
		return 0, &ParseError{Line: lineNo, Column: from, Msg: fmt.Sprintf("exponent field %q missing exponent sign", s)}
	}
	exp, err := strconv.Atoi(expPart)
	if err != nil {
		return 0, &ParseError{Line: lineNo, Column: from, Msg: err.Error()}
	}
	if mantPart == "" {
		mantPart = "0"
	}
	mant, err := strconv.ParseUint(mantPart, 10, 64)
	if err != nil {
		return 0, &ParseError{Line: lineNo, Column: from, Msg: err.Error()}
	}
	digits := len(mantPart)
	return sign * float64(mant) / math.Pow(10, float64(digits)) * math.Pow(10, float64(exp)), nil
}

// parseEpoch decodes the 14-character epoch field "YYDDD.DDDDDDDD".
// Years 57-99 map to 1957-1999, 00-56 to 2000-2056 (NORAD convention).
func parseEpoch(s string) (time.Time, error) {
	s = strings.TrimSpace(s)
	if len(s) < 5 {
		return time.Time{}, fmt.Errorf("epoch %q too short", s)
	}
	yy, err := strconv.Atoi(s[:2])
	if err != nil || yy < 0 {
		return time.Time{}, fmt.Errorf("bad epoch year %q", s[:2])
	}
	year := 2000 + yy
	if yy >= 57 {
		year = 1900 + yy
	}
	if !plainDecimal(s[2:]) {
		return time.Time{}, fmt.Errorf("epoch day %q is not a plain decimal", s[2:])
	}
	doy, err := strconv.ParseFloat(s[2:], 64)
	if err != nil {
		return time.Time{}, fmt.Errorf("bad epoch day: %v", err)
	}
	// The negated comparison also rejects NaN, which would sail through a
	// `doy < 1 || doy >= 367` pair.
	if !(doy >= 1 && doy < 367) {
		return time.Time{}, fmt.Errorf("epoch day %v out of range", doy)
	}
	jan1 := time.Date(year, 1, 1, 0, 0, 0, 0, time.UTC)
	return jan1.Add(time.Duration((doy - 1) * float64(24*time.Hour))), nil
}
