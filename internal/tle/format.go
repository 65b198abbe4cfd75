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
// It makes Format's checks and returns its errors, and on an error it
// returns dst unextended. A field whose value is not finite, or whose text
// does not fit its columns, is an error that names the field. Each field is
// written as fmt's verb for it would write it (%05d, %-8s, %8.4f, ...),
// without fmt.
func (t *TLE) AppendLines(dst []byte) ([]byte, error) {
	if t.CatalogNumber < 0 || t.CatalogNumber > 99999 {
		return dst, fmt.Errorf("tle: catalog number %d outside 5-digit field", t.CatalogNumber)
	}
	if !(t.Eccentricity >= 0 && t.Eccentricity < 1) {
		return dst, fmt.Errorf("tle: eccentricity %v outside [0,1)", t.Eccentricity)
	}
	if !(t.MeanMotion >= 0 && t.MeanMotion < 100) {
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
	f := fields{b: dst}

	// Line 1: "1 %05d%c %-8s %02d%012.8f %s %s %s %1d %4d" and the checksum.
	f.b = append(f.b, '1', ' ')
	f.int("catalog number", t.CatalogNumber, 5, '0')
	// As %c and %-8s do, the classification is written as UTF-8 and the
	// designator padded by runes, so a multi-byte character takes more
	// bytes than columns and fails the line's column check.
	f.b = utf8.AppendRune(f.b, rune(cls))
	f.b = append(f.b, ' ')
	f.b = append(f.b, t.IntlDesignator...)
	for n := utf8.RuneCountInString(t.IntlDesignator); n < 8; n++ {
		f.b = append(f.b, ' ')
	}
	f.b = append(f.b, ' ')
	jan1 := time.Date(year, 1, 1, 0, 0, 0, 0, time.UTC)
	f.int("epoch year", year%100, 2, '0')
	f.fixed("epoch day", 1+at.Sub(jan1).Seconds()/86400, 12, 8, '0')
	f.b = append(f.b, ' ')
	f.signedDecimal("ndot", t.MeanMotionDot)
	f.b = append(f.b, ' ')
	f.exp("nddot", t.MeanMotionDDot)
	f.b = append(f.b, ' ')
	f.exp("B*", t.BStar)
	f.b = append(f.b, ' ')
	f.int("ephemeris type", t.EphemerisType, 1, ' ')
	f.b = append(f.b, ' ')
	f.int("element set", t.ElementSet%10000, 4, ' ')
	f.endLine(len(dst), 1)

	// Line 2: "2 %05d %8.4f %8.4f %07d %8.4f %8.4f %11.8f%5d" and the checksum.
	l2 := len(f.b)
	f.b = append(f.b, '2', ' ')
	f.int("catalog number", t.CatalogNumber, 5, '0')
	f.b = append(f.b, ' ')
	f.fixed("inclination", float64(t.Inclination), 8, 4, ' ')
	f.b = append(f.b, ' ')
	f.fixed("RAAN", float64(t.RAAN.Normalize360()), 8, 4, ' ')
	f.b = append(f.b, ' ')
	f.int("eccentricity", int(math.Round(t.Eccentricity*1e7)), 7, '0')
	f.b = append(f.b, ' ')
	f.fixed("argument of perigee", float64(t.ArgPerigee.Normalize360()), 8, 4, ' ')
	f.b = append(f.b, ' ')
	f.fixed("mean anomaly", float64(t.MeanAnomaly.Normalize360()), 8, 4, ' ')
	f.b = append(f.b, ' ')
	f.fixed("mean motion", float64(t.MeanMotion), 11, 8, ' ')
	f.int("rev number", t.RevNumber%100000, 5, ' ')
	f.endLine(l2, 2)
	if f.err != nil {
		return dst, f.err
	}
	return f.b, nil
}

// fields appends element-line fields to b and keeps the error of the first
// one that fails: a checked field whose value is not finite or whose text
// does not fill its columns, or a line that is not 69 columns.
type fields struct {
	b   []byte
	err error
}

// int writes v as %Wd (pad ' ') or %0Wd (pad '0').
func (f *fields) int(name string, v, width int, pad byte) {
	start := len(f.b)
	f.b = appendInt(f.b, v, width, pad)
	if len(f.b)-start != width && f.err == nil {
		f.err = fieldError(name, v, width)
	}
}

// fixed writes v as %W.Pf (pad ' ') or %0W.Pf (pad '0').
func (f *fields) fixed(name string, v float64, width, prec int, pad byte) {
	start := len(f.b)
	f.b = appendFixed(f.b, v, width, prec, pad)
	f.checkFloat(name, v, start, width)
}

// signedDecimal writes the 10-column ndot/2 field, e.g. " .00002182": a
// sign column, then |v| to 8 decimals with one leading zero dropped.
func (f *fields) signedDecimal(name string, v float64) {
	start := len(f.b)
	sign := byte(' ')
	if v < 0 {
		sign = '-'
	}
	f.b = appendFixed(append(f.b, sign), math.Abs(v), 0, 8, ' ')
	if f.b[start+1] == '0' {
		f.b = append(f.b[:start+1], f.b[start+2:]...)
	}
	f.checkFloat(name, v, start, 10)
}

// checkFloat records name's error unless v is finite and the text written
// from b[start] is width columns.
func (f *fields) checkFloat(name string, v float64, start, width int) {
	if (len(f.b)-start != width || math.IsNaN(v) || math.IsInf(v, 0)) && f.err == nil {
		f.err = fieldError(name, v, width)
	}
}

// exp writes the B* or nddot/6 exponent field.
func (f *fields) exp(name string, v float64) {
	var ok bool
	if f.b, ok = appendExpField(f.b, v); !ok && f.err == nil {
		f.err = expFieldError(name, v)
	}
}

// endLine appends the checksum and newline to the line that begins at
// b[start], which must then be 69 columns. Every field but the
// classification and the designator is checked as it is written, so only
// a multi-byte character or a designator past 8 columns fails this check.
func (f *fields) endLine(start, lineNo int) {
	f.b = append(f.b, byte('0'+checksum(f.b[start:])))
	if n := len(f.b) - start; n != lineBytes-1 && f.err == nil {
		f.err = fmt.Errorf("tle: internal error: line %d is %d columns", lineNo, n)
	}
	f.b = append(f.b, '\n')
}

// fieldError is the error for a field value that is not finite or does not
// fit its columns.
func fieldError(name string, v any, width int) error {
	return fmt.Errorf("tle: %s %v outside its %d-column field", name, v, width)
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
	return padLeft(appendF(dst, v, prec), start, width, pad)
}

// pow10 holds the powers of ten up to 10^18, each exact in a float64.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18}

// appendF is strconv.AppendFloat(dst, v, 'f', prec, 64), byte for byte.
// strconv writes 'f' at an explicit precision with multiprecision decimal
// arithmetic; only 'e' and 'g' take its exact fixed-digit path, which
// handles at most 18 digits. For 1 <= |v| < 10^(18-prec) the digits 'f'
// writes are v's first d+prec significant digits, d being the digits of
// its integer part, so appendF asks 'e' for that many, correctly rounded
// with ties to even as 'f' rounds them, and moves the decimal point. When
// rounding carries past the leading digit (9.99996 at 4 places is
// 1.0000e+01) the integer part gains a digit, and the digits one zero.
// Smaller or larger values, NaN and the infinities go to 'f' itself.
func appendF(dst []byte, v float64, prec int) []byte {
	a := math.Abs(v)
	if prec >= len(pow10)-1 || !(a >= 1 && a < pow10[len(pow10)-1-prec]) {
		return strconv.AppendFloat(dst, v, 'f', prec, 64)
	}
	d := 1
	for a >= pow10[d] {
		d++
	}
	var buf [32]byte
	e := strconv.AppendFloat(buf[:0], a, 'e', d+prec-1, 64)
	mant, exp := e[:len(e)-4], int(e[len(e)-2]-'0')*10+int(e[len(e)-1]-'0')
	if v < 0 {
		dst = append(dst, '-')
	}
	point := len(dst) + d
	dst = append(dst, mant[0])
	if len(mant) > 2 {
		dst = append(dst, mant[2:]...) // the digits after "D."
	}
	if exp == d {
		dst = append(dst, '0')
		point++
	}
	if prec > 0 {
		dst = append(dst, 0)
		copy(dst[point+1:], dst[point:])
		dst[point] = '.'
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
