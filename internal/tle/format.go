package tle

import (
	"fmt"
	"math"
	"strconv"
	"time"
	"unicode/utf8"
)

// lineBytes is the size of one encoded element line with its newline.
const lineBytes = 70

// Format encodes the element set as the canonical two 69-column lines
// (checksums included). Values outside field ranges are an error rather than
// silently truncated, because an encoder that corrupts trajectories would be
// worse than none.
func (t *TLE) Format() (line1, line2 string, err error) {
	var buf [2 * lineBytes]byte
	b, err := t.AppendLines(buf[:0])
	if err != nil {
		return "", "", err
	}
	s := string(b)
	return s[:lineBytes-1], s[lineBytes : 2*lineBytes-1], nil
}

// String renders the 3LE form (name line plus the two element lines) when a
// name is present, otherwise just the two lines.
func (t *TLE) String() string {
	b := make([]byte, 0, len(t.Name)+1+2*lineBytes)
	if t.Name != "" {
		b = append(append(b, t.Name...), '\n')
	}
	b, err := t.AppendLines(b)
	if err != nil {
		return fmt.Sprintf("tle<error: %v>", err)
	}
	return string(b[:len(b)-1])
}

// AppendLines appends the element set's two 69-column lines, each ending in
// a newline, to dst and returns the extended buffer; it writes no name line.
// It makes Format's range checks and returns its errors, and on an error it
// returns dst unextended. Each field is written as fmt's verb for it would
// write it (%05d, %-8s, %8.4f, ...), without fmt.
func (t *TLE) AppendLines(dst []byte) ([]byte, error) {
	if t.CatalogNumber < 0 || t.CatalogNumber > 99999 {
		return dst, fmt.Errorf("tle: catalog number %d outside 5-digit field", t.CatalogNumber)
	}
	if t.Eccentricity < 0 || t.Eccentricity >= 1 {
		return dst, fmt.Errorf("tle: eccentricity %v outside [0,1)", t.Eccentricity)
	}
	if t.MeanMotion < 0 || t.MeanMotion >= 100 {
		return dst, fmt.Errorf("tle: mean motion %v outside field range", t.MeanMotion)
	}
	at := t.Epoch.UTC()
	year := at.Year()
	if year < 1957 || year > 2056 {
		return dst, fmt.Errorf("tle: epoch year %d outside NORAD two-digit window [1957,2056]", year)
	}
	cls := t.Classification
	if cls == 0 {
		cls = 'U'
	}
	start := len(dst)

	// Line 1: "1 %05d%c %-8s %02d%012.8f %s %s %s %1d %4d" and the checksum.
	dst = append(dst, '1', ' ')
	dst = appendInt(dst, t.CatalogNumber, 5, '0')
	// As %c and %-8s do, the classification is written as UTF-8 and the
	// designator padded by runes, so a multi-byte character takes more
	// bytes than columns and fails the line's column check.
	dst = utf8.AppendRune(dst, rune(cls))
	dst = append(dst, ' ')
	dst = append(dst, t.IntlDesignator...)
	for n := utf8.RuneCountInString(t.IntlDesignator); n < 8; n++ {
		dst = append(dst, ' ')
	}
	dst = append(dst, ' ')
	jan1 := time.Date(year, 1, 1, 0, 0, 0, 0, time.UTC)
	dst = appendInt(dst, year%100, 2, '0')
	dst = appendFixed(dst, 1+at.Sub(jan1).Seconds()/86400, 12, 8, '0')
	dst = append(dst, ' ')
	dst = appendSignedDecimal(dst, t.MeanMotionDot)
	dst = append(dst, ' ')
	dst, ok := appendExpField(dst, t.MeanMotionDDot)
	if !ok {
		return dst[:start], expFieldError("nddot", t.MeanMotionDDot)
	}
	dst = append(dst, ' ')
	if dst, ok = appendExpField(dst, t.BStar); !ok {
		return dst[:start], expFieldError("B*", t.BStar)
	}
	dst = append(dst, ' ')
	dst = appendInt(dst, t.EphemerisType, 1, ' ')
	dst = append(dst, ' ')
	dst = appendInt(dst, t.ElementSet%10000, 4, ' ')
	dst, err := endLine(dst, start, 1)
	if err != nil {
		return dst, err
	}

	// Line 2: "2 %05d %8.4f %8.4f %07d %8.4f %8.4f %11.8f%5d" and the checksum.
	l2 := len(dst)
	dst = append(dst, '2', ' ')
	dst = appendInt(dst, t.CatalogNumber, 5, '0')
	dst = append(dst, ' ')
	dst = appendFixed(dst, float64(t.Inclination), 8, 4, ' ')
	dst = append(dst, ' ')
	dst = appendFixed(dst, float64(t.RAAN.Normalize360()), 8, 4, ' ')
	dst = append(dst, ' ')
	dst = appendInt(dst, int(math.Round(t.Eccentricity*1e7)), 7, '0')
	dst = append(dst, ' ')
	dst = appendFixed(dst, float64(t.ArgPerigee.Normalize360()), 8, 4, ' ')
	dst = append(dst, ' ')
	dst = appendFixed(dst, float64(t.MeanAnomaly.Normalize360()), 8, 4, ' ')
	dst = append(dst, ' ')
	dst = appendFixed(dst, float64(t.MeanMotion), 11, 8, ' ')
	dst = appendInt(dst, t.RevNumber%100000, 5, ' ')
	if dst, err = endLine(dst, l2, 2); err != nil {
		return dst[:start], err
	}
	return dst, nil
}

// endLine appends the checksum and newline to the line that begins at
// dst[start], which must then be 69 columns; on error it returns dst cut
// back to start.
func endLine(dst []byte, start, lineNo int) ([]byte, error) {
	dst = append(dst, byte('0'+checksum(dst[start:])))
	if n := len(dst) - start; n != lineBytes-1 {
		return dst[:start], fmt.Errorf("tle: internal error: line %d is %d columns", lineNo, n)
	}
	return append(dst, '\n'), nil
}

// padLeft right-aligns the text from dst[start] in width columns, as fmt
// pads a number: pad fills the left ('0' for the %0 flag, which only
// non-negative values here use, so no sign needs moving).
func padLeft(dst []byte, start, width int, pad byte) []byte {
	for len(dst)-start < width {
		dst = append(dst, 0)
		copy(dst[start+1:], dst[start:])
		dst[start] = pad
	}
	return dst
}

// appendInt writes v as %Wd (pad ' ') or %0Wd (pad '0').
func appendInt(dst []byte, v, width int, pad byte) []byte {
	start := len(dst)
	return padLeft(strconv.AppendInt(dst, int64(v), 10), start, width, pad)
}

// appendFixed writes v as %W.Pf (pad ' ') or %0W.Pf (pad '0'): fmt's %f
// is strconv's 'f' format, padded. Zero padding is only asked for finite,
// positive values, so it never meets a sign or an "Inf".
func appendFixed(dst []byte, v float64, width, prec int, pad byte) []byte {
	start := len(dst)
	return padLeft(strconv.AppendFloat(dst, v, 'f', prec, 64), start, width, pad)
}

// appendSignedDecimal writes the ndot/2 field, e.g. " .00002182": a sign
// column, then |v| to 8 decimals with one leading zero dropped.
func appendSignedDecimal(dst []byte, v float64) []byte {
	sign := byte(' ')
	if v < 0 {
		sign = '-'
	}
	dst = append(dst, sign)
	digits := len(dst)
	dst = appendFixed(dst, math.Abs(v), 0, 8, ' ')
	if dst[digits] == '0' {
		dst = append(dst[:digits], dst[digits+1:]...)
	}
	return dst
}

// appendExpField writes the implied-decimal exponent notation of the B* and
// nddot/6 fields: 0.34123e-4 -> " 34123-4". The mantissa is normalized to
// [0.1, 1) down to exponent -9, below which it is written denormalized at
// -9 (0.1e-14 -> " 00001-9"), so every value the parser accepts re-encodes
// to within half a unit of the field's last digit. It reports false, and
// writes nothing, for a value that is not finite or rounds past exponent +9.
func appendExpField(dst []byte, v float64) ([]byte, bool) {
	if v == 0 {
		return append(dst, " 00000+0"...), true
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return dst, false
	}
	sign := byte(' ')
	if v < 0 {
		sign = '-'
		v = -v
	}
	exp := 0
	for v >= 1 {
		v /= 10
		exp++
	}
	for v < 0.1 && exp > -9 {
		v *= 10
		exp--
	}
	mant := int(math.Round(v * 1e5))
	if mant >= 100000 { // rounding pushed us to 1.0
		mant = 10000
		exp++
	}
	if exp > 9 {
		return dst, false
	}
	dst = append(dst, sign)
	dst = appendInt(dst, mant, 5, '0')
	expSign := byte('+')
	if exp < 0 {
		expSign = '-'
		exp = -exp
	}
	return append(dst, expSign, byte('0'+exp)), true
}

// expFieldError is the error for a value appendExpField cannot write.
func expFieldError(field string, v float64) error {
	return fmt.Errorf("tle: %s %v outside the exponent field's range", field, v)
}
