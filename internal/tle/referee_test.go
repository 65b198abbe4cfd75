package tle

import (
	"fmt"
	"math"
	"strings"
	"time"
)

// refFormat is the fmt-based encoder that AppendLines replaced, kept as its
// referee: for every element set, AppendLines must write the bytes refFormat
// writes and return the errors it returns. It carries two changes from the
// encoder it preserves: refExpField writes values below 0.1e-9
// denormalized and rejects values past exponent +9 instead of clamping, and
// every field but the classification and the designator is checked, in
// column order, for a finite value whose text fits its columns.
func refFormat(t *TLE) (line1, line2 string, err error) {
	if t.CatalogNumber < 0 || t.CatalogNumber > 99999 {
		return "", "", fmt.Errorf("tle: catalog number %d outside 5-digit field", t.CatalogNumber)
	}
	if !(t.Eccentricity >= 0 && t.Eccentricity < 1) {
		return "", "", fmt.Errorf("tle: eccentricity %v outside [0,1)", t.Eccentricity)
	}
	if !(t.MeanMotion >= 0 && t.MeanMotion < 100) {
		return "", "", fmt.Errorf("tle: mean motion %v outside field range", t.MeanMotion)
	}
	cls := t.Classification
	if cls == 0 {
		cls = 'U'
	}
	epoch, err := refEpoch(t.Epoch)
	if err != nil {
		return "", "", err
	}
	// field keeps the first field that fails; Go evaluates a call's
	// arguments left to right, so that is the first in column order.
	var first error
	field := func(name, text string, v any, width int) string {
		f, isFloat := v.(float64)
		if first == nil && (len(text) != width || isFloat && (math.IsNaN(f) || math.IsInf(f, 0))) {
			first = fmt.Errorf("tle: %s %v outside its %d-column field", name, v, width)
		}
		return text
	}
	num := func(name, verb string, v any, width int) string {
		return field(name, fmt.Sprintf(verb, v), v, width)
	}
	exp := func(name string, v float64) string {
		text, err := refExpField(name, v)
		if first == nil {
			first = err
		}
		return text
	}

	l1 := fmt.Sprintf("1 %05d%c %-8s %s %s %s %s %s %s",
		t.CatalogNumber, cls, t.IntlDesignator, epoch,
		field("ndot", refSignedDecimal(t.MeanMotionDot), t.MeanMotionDot, 10),
		exp("nddot", t.MeanMotionDDot), exp("B*", t.BStar),
		num("ephemeris type", "%1d", t.EphemerisType, 1),
		num("element set", "%4d", t.ElementSet%10000, 4))
	if first != nil {
		return "", "", first
	}
	l1 = fmt.Sprintf("%s%d", l1, Checksum(l1))
	if len(l1) != 69 {
		return "", "", fmt.Errorf("tle: internal error: line 1 is %d columns", len(l1))
	}

	l2 := fmt.Sprintf("2 %05d %s %s %s %s %s %s%s",
		t.CatalogNumber,
		num("inclination", "%8.4f", float64(t.Inclination), 8),
		num("RAAN", "%8.4f", float64(t.RAAN.Normalize360()), 8),
		num("eccentricity", "%07d", int(math.Round(t.Eccentricity*1e7)), 7),
		num("argument of perigee", "%8.4f", float64(t.ArgPerigee.Normalize360()), 8),
		num("mean anomaly", "%8.4f", float64(t.MeanAnomaly.Normalize360()), 8),
		num("mean motion", "%11.8f", float64(t.MeanMotion), 11),
		num("rev number", "%5d", t.RevNumber%100000, 5))
	if first != nil {
		return "", "", first
	}
	l2 = fmt.Sprintf("%s%d", l2, Checksum(l2))
	if len(l2) != 69 {
		return "", "", fmt.Errorf("tle: internal error: line 2 is %d columns", len(l2))
	}
	return l1, l2, nil
}

// refEpoch encodes YYDDD.DDDDDDDD.
func refEpoch(at time.Time) (string, error) {
	at = at.UTC()
	year := at.Year()
	if year < 1957 || year > 2056 {
		return "", fmt.Errorf("tle: epoch year %d outside NORAD two-digit window [1957,2056]", year)
	}
	yy := year % 100
	jan1 := time.Date(year, 1, 1, 0, 0, 0, 0, time.UTC)
	doy := 1 + at.Sub(jan1).Seconds()/86400
	return fmt.Sprintf("%02d%012.8f", yy, doy), nil
}

// refSignedDecimal encodes the ndot/2 field, e.g. " .00002182".
func refSignedDecimal(v float64) string {
	s := fmt.Sprintf("%.8f", math.Abs(v))
	// "0.00002182" -> ".00002182"
	s = strings.TrimPrefix(s, "0")
	if v < 0 {
		return "-" + s
	}
	return " " + s
}

// refExpField encodes the implied-decimal exponent notation used by the B*
// and nddot/6 fields: 0.34123e-4 -> " 34123-4". Below 0.1e-9 the mantissa
// is written denormalized at exponent -9; a value that is not finite or
// rounds past exponent +9 is an error.
func refExpField(field string, v float64) (string, error) {
	if v == 0 {
		return " 00000+0", nil
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return "", fmt.Errorf("tle: %s %v outside the exponent field's range", field, v)
	}
	orig := v
	sign := " "
	if v < 0 {
		sign = "-"
		v = -v
	}
	// Normalize to mantissa in [0.1, 1), or denormalize at exponent -9.
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
		return "", fmt.Errorf("tle: %s %v outside the exponent field's range", field, orig)
	}
	expSign := "+"
	if exp < 0 {
		expSign = "-"
		exp = -exp
	}
	return fmt.Sprintf("%s%05d%s%d", sign, mant, expSign, exp), nil
}
