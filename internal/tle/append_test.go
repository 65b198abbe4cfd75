package tle

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"cosmicdance/internal/units"
)

// checkAgainstReferee fails unless AppendLines, Format and refFormat agree
// on tl: the same two lines, or the same error with dst left unextended.
func checkAgainstReferee(t *testing.T, tl *TLE) {
	t.Helper()
	r1, r2, rerr := refFormat(tl)
	prefix := []byte("prefix\n")
	got, err := tl.AppendLines(append([]byte(nil), prefix...))
	f1, f2, ferr := tl.Format()
	if rerr != nil {
		if err == nil || err.Error() != rerr.Error() {
			t.Fatalf("AppendLines error %v, referee %v (%+v)", err, rerr, tl)
		}
		if !bytes.Equal(got, prefix) {
			t.Fatalf("AppendLines extended dst on error: %q", got)
		}
		if ferr == nil || ferr.Error() != rerr.Error() {
			t.Fatalf("Format error %v, referee %v", ferr, rerr)
		}
		return
	}
	if err != nil || ferr != nil {
		t.Fatalf("AppendLines %v, Format %v; referee wrote\n%s\n%s", err, ferr, r1, r2)
	}
	if want := string(prefix) + r1 + "\n" + r2 + "\n"; string(got) != want {
		t.Fatalf("AppendLines wrote\n%q\nreferee\n%q", got, want)
	}
	if f1 != r1 || f2 != r2 {
		t.Fatalf("Format wrote\n%q\n%q\nreferee\n%q\n%q", f1, f2, r1, r2)
	}
}

// TestAppendLinesMatchesReferee walks the fields one at a time through
// values where padding, sign, rounding or a range check decides the bytes,
// then pairs of bad fields, where the order of the checks decides the error.
func TestAppendLinesMatchesReferee(t *testing.T) {
	iss, err := Parse(issLine1, issLine2)
	if err != nil {
		t.Fatal(err)
	}
	negZero := math.Copysign(0, -1)
	cases := []struct {
		name string
		edit func(*TLE)
	}{
		{"iss", func(*TLE) {}},
		{"named", func(tl *TLE) { tl.Name = "ISS (ZARYA)" }},
		{"zero classification", func(tl *TLE) { tl.Classification = 0 }},
		{"classification C", func(tl *TLE) { tl.Classification = 'C' }},
		{"non-ASCII classification", func(tl *TLE) { tl.Classification = 0xc3 }},
		{"empty designator", func(tl *TLE) { tl.IntlDesignator = "" }},
		{"8-column designator", func(tl *TLE) { tl.IntlDesignator = "98067ABC" }},
		{"9-column designator", func(tl *TLE) { tl.IntlDesignator = "98067ABCD" }},
		{"multibyte designator", func(tl *TLE) { tl.IntlDesignator = "98067é" }},
		{"invalid UTF-8 designator", func(tl *TLE) { tl.IntlDesignator = "98067\xff" }},
		{"catalog 0", func(tl *TLE) { tl.CatalogNumber = 0 }},
		{"catalog 99999", func(tl *TLE) { tl.CatalogNumber = 99999 }},
		{"catalog -1", func(tl *TLE) { tl.CatalogNumber = -1 }},
		{"catalog 100000", func(tl *TLE) { tl.CatalogNumber = 100000 }},
		{"epoch 1957", func(tl *TLE) { tl.Epoch = time.Date(1957, 1, 1, 0, 0, 0, 0, time.UTC) }},
		{"epoch 2056 end", func(tl *TLE) { tl.Epoch = time.Date(2056, 12, 31, 23, 59, 59, 999999999, time.UTC) }},
		{"epoch 1956", func(tl *TLE) { tl.Epoch = time.Date(1956, 12, 31, 0, 0, 0, 0, time.UTC) }},
		{"epoch 2057", func(tl *TLE) { tl.Epoch = time.Date(2057, 1, 1, 0, 0, 0, 0, time.UTC) }},
		{"epoch not UTC", func(tl *TLE) { tl.Epoch = tl.Epoch.In(time.FixedZone("X", -5*3600)) }},
		{"epoch day tie", func(tl *TLE) {
			tl.Epoch = time.Date(2024, 5, 11, 0, 0, 0, 0, time.UTC).Add(1296 * time.Microsecond / 2)
		}},
		{"ndot negative", func(tl *TLE) { tl.MeanMotionDot = -0.00002182 }},
		{"ndot -0", func(tl *TLE) { tl.MeanMotionDot = negZero }},
		{"ndot rounds to -0", func(tl *TLE) { tl.MeanMotionDot = -1e-10 }},
		{"ndot 1", func(tl *TLE) { tl.MeanMotionDot = 1 }},
		{"ndot -0.999999999", func(tl *TLE) { tl.MeanMotionDot = -0.999999999 }},
		{"ndot NaN", func(tl *TLE) { tl.MeanMotionDot = math.NaN() }},
		{"ndot +Inf", func(tl *TLE) { tl.MeanMotionDot = math.Inf(1) }},
		{"ndot tie", func(tl *TLE) { tl.MeanMotionDot = 3.0 / (1 << 30) }},
		{"nddot negative", func(tl *TLE) { tl.MeanMotionDDot = -0.12345e-5 }},
		{"nddot -0", func(tl *TLE) { tl.MeanMotionDDot = negZero }},
		{"nddot 1e-14", func(tl *TLE) { tl.MeanMotionDDot = 1e-14 }},
		{"nddot 1e-20", func(tl *TLE) { tl.MeanMotionDDot = -1e-20 }},
		{"nddot subnormal", func(tl *TLE) { tl.MeanMotionDDot = 5e-324 }},
		{"nddot 9.99999e8", func(tl *TLE) { tl.MeanMotionDDot = 9.99999e8 }},
		{"nddot 9.999995e8", func(tl *TLE) { tl.MeanMotionDDot = 9.999995e8 }},
		{"nddot 1e9", func(tl *TLE) { tl.MeanMotionDDot = 1e9 }},
		{"nddot max float", func(tl *TLE) { tl.MeanMotionDDot = -math.MaxFloat64 }},
		{"nddot NaN", func(tl *TLE) { tl.MeanMotionDDot = math.NaN() }},
		{"bstar tie", func(tl *TLE) { tl.BStar = 1.0 / 1024 }},
		{"bstar carries", func(tl *TLE) { tl.BStar = 0.999996e-4 }},
		{"bstar -0", func(tl *TLE) { tl.BStar = negZero }},
		{"bstar 1e-14", func(tl *TLE) { tl.BStar = 1e-14 }},
		{"bstar -Inf", func(tl *TLE) { tl.BStar = math.Inf(-1) }},
		{"ephemeris 9", func(tl *TLE) { tl.EphemerisType = 9 }},
		{"ephemeris 10", func(tl *TLE) { tl.EphemerisType = 10 }},
		{"ephemeris -1", func(tl *TLE) { tl.EphemerisType = -1 }},
		{"element set 9999", func(tl *TLE) { tl.ElementSet = 9999 }},
		{"element set 10000", func(tl *TLE) { tl.ElementSet = 10000 }},
		{"element set 123456", func(tl *TLE) { tl.ElementSet = 123456 }},
		{"element set -5", func(tl *TLE) { tl.ElementSet = -5 }},
		{"element set -999", func(tl *TLE) { tl.ElementSet = -999 }},
		{"element set -12345", func(tl *TLE) { tl.ElementSet = -12345 }},
		{"inclination negative", func(tl *TLE) { tl.Inclination = -51.6416 }},
		{"inclination -0", func(tl *TLE) { tl.Inclination = units.Degrees(negZero) }},
		{"inclination tie", func(tl *TLE) { tl.Inclination = 51 + 5.0/1024 }},
		{"inclination 1000", func(tl *TLE) { tl.Inclination = 1000 }},
		{"inclination -100", func(tl *TLE) { tl.Inclination = -100 }},
		{"inclination NaN", func(tl *TLE) { tl.Inclination = units.Degrees(math.NaN()) }},
		{"inclination +Inf", func(tl *TLE) { tl.Inclination = units.Degrees(math.Inf(1)) }},
		{"raan negative", func(tl *TLE) { tl.RAAN = -1.5 }},
		{"raan -0", func(tl *TLE) { tl.RAAN = units.Degrees(negZero) }},
		{"raan 720.00005", func(tl *TLE) { tl.RAAN = 720.00005 }},
		{"raan 359.99999", func(tl *TLE) { tl.RAAN = 359.99999 }},
		{"arg perigee tie", func(tl *TLE) { tl.ArgPerigee = 3.0 / 1024 }},
		{"mean anomaly -0.00001", func(tl *TLE) { tl.MeanAnomaly = -0.00001 }},
		{"eccentricity 0", func(tl *TLE) { tl.Eccentricity = 0 }},
		{"eccentricity -0", func(tl *TLE) { tl.Eccentricity = negZero }},
		{"eccentricity tie", func(tl *TLE) { tl.Eccentricity = 1.0 / (1 << 20) }},
		{"eccentricity rounds to 1", func(tl *TLE) { tl.Eccentricity = 0.99999999 }},
		{"eccentricity 1", func(tl *TLE) { tl.Eccentricity = 1 }},
		{"eccentricity -0.1", func(tl *TLE) { tl.Eccentricity = -0.1 }},
		{"eccentricity NaN", func(tl *TLE) { tl.Eccentricity = math.NaN() }},
		{"mean motion 0", func(tl *TLE) { tl.MeanMotion = 0 }},
		{"mean motion -0", func(tl *TLE) { tl.MeanMotion = units.RevsPerDay(negZero) }},
		{"mean motion 99.999999999", func(tl *TLE) { tl.MeanMotion = 99.999999999 }},
		{"mean motion tie", func(tl *TLE) { tl.MeanMotion = 15 + 1.0/(1<<29) }},
		{"mean motion 100", func(tl *TLE) { tl.MeanMotion = 100 }},
		{"mean motion -1", func(tl *TLE) { tl.MeanMotion = -1 }},
		{"rev number 99999", func(tl *TLE) { tl.RevNumber = 99999 }},
		{"rev number 100000", func(tl *TLE) { tl.RevNumber = 100000 }},
		{"rev number -42", func(tl *TLE) { tl.RevNumber = -42 }},
		{"rev number -12345", func(tl *TLE) { tl.RevNumber = -12345 }},
		// Two bad fields: the referee's first check must be the one reported.
		{"catalog before eccentricity", func(tl *TLE) { tl.CatalogNumber = 100000; tl.Eccentricity = 2 }},
		{"eccentricity before mean motion", func(tl *TLE) { tl.Eccentricity = 2; tl.MeanMotion = 100 }},
		{"mean motion before epoch", func(tl *TLE) { tl.MeanMotion = 100; tl.Epoch = time.Time{} }},
		{"epoch before B*", func(tl *TLE) { tl.Epoch = time.Time{}; tl.BStar = 1e10 }},
		{"nddot before B*", func(tl *TLE) { tl.MeanMotionDDot = 1e10; tl.BStar = math.NaN() }},
		{"B* before line 1", func(tl *TLE) { tl.BStar = 1e10; tl.IntlDesignator = "98067ABCD" }},
		{"line 1 before line 2", func(tl *TLE) { tl.MeanMotionDot = 1; tl.RevNumber = -12345 }},
		{"line 1 columns before line 2", func(tl *TLE) { tl.IntlDesignator = "98067é"; tl.Inclination = 1e9 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tl := *iss
			c.edit(&tl)
			checkAgainstReferee(t, &tl)
		})
	}
}

// TestFormatNamesFieldErrors pins the field checks: a field whose value is
// not finite, or whose text is wider than its columns, fails Format with an
// error naming the field. The encoder used to write NaN and Inf into line 2
// as text Parse rejects, and to report the other cases as a line of the
// wrong width.
func TestFormatNamesFieldErrors(t *testing.T) {
	iss, err := Parse(issLine1, issLine2)
	if err != nil {
		t.Fatal(err)
	}
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		field string
		edit  func(*TLE)
	}{
		{"ndot", func(tl *TLE) { tl.MeanMotionDot = nan }},
		{"ndot", func(tl *TLE) { tl.MeanMotionDot = -inf }},
		{"ndot", func(tl *TLE) { tl.MeanMotionDot = -0.999999999 }},
		{"nddot", func(tl *TLE) { tl.MeanMotionDDot = nan }},
		{"B*", func(tl *TLE) { tl.BStar = inf }},
		{"ephemeris type", func(tl *TLE) { tl.EphemerisType = 10 }},
		{"element set", func(tl *TLE) { tl.ElementSet = -12345 }},
		{"inclination", func(tl *TLE) { tl.Inclination = units.Degrees(nan) }},
		{"inclination", func(tl *TLE) { tl.Inclination = units.Degrees(-inf) }},
		{"inclination", func(tl *TLE) { tl.Inclination = 1e9 }},
		{"RAAN", func(tl *TLE) { tl.RAAN = units.Degrees(nan) }},
		{"RAAN", func(tl *TLE) { tl.RAAN = units.Degrees(inf) }},
		{"eccentricity", func(tl *TLE) { tl.Eccentricity = nan }},
		{"eccentricity", func(tl *TLE) { tl.Eccentricity = 0.99999999 }},
		{"argument of perigee", func(tl *TLE) { tl.ArgPerigee = units.Degrees(nan) }},
		{"mean anomaly", func(tl *TLE) { tl.MeanAnomaly = units.Degrees(-inf) }},
		{"mean motion", func(tl *TLE) { tl.MeanMotion = units.RevsPerDay(nan) }},
		{"mean motion", func(tl *TLE) { tl.MeanMotion = units.RevsPerDay(inf) }},
		{"mean motion", func(tl *TLE) { tl.MeanMotion = 99.999999999 }},
		{"rev number", func(tl *TLE) { tl.RevNumber = -12345 }},
	}
	for _, c := range cases {
		tl := *iss
		c.edit(&tl)
		l1, l2, err := tl.Format()
		if err == nil || !strings.HasPrefix(err.Error(), "tle: "+c.field+" ") {
			t.Errorf("%+v: Format = %q, %q, %v; want an error naming %s", tl, l1, l2, err, c.field)
		}
	}
}

// TestExpFieldReencodesParsedValues pins the exponent-field fix: B* and
// nddot values the parser accepts re-encode to within half a unit of the
// field's last digit, or fail to encode; none is silently rescaled. The
// old encoder clamped the exponent and wrote 1e-14 as 1e-10 and 9.99999e8
// as 1e8.
func TestExpFieldReencodesParsedValues(t *testing.T) {
	for _, c := range []struct {
		field string
		want  string // "" when the value must fail to encode
	}{
		{" 00001-9", " 00001-9"},
		{"-00012-9", "-00012-9"},
		{"999999+9", ""},
		{" 99999+9", " 99999+9"},
		{" 10000-9", " 10000-9"},
		{" 99999-9", " 99999-9"},
		{" 00000-9", " 00000+0"},
	} {
		for _, col := range []int{44, 53} { // nddot, B*
			l1 := fixChecksum(issLine1[:col] + c.field + issLine1[col+8:])
			in, err := Parse(l1, issLine2)
			if err != nil {
				t.Fatalf("%q at column %d: %v", c.field, col+1, err)
			}
			o1, _, err := in.Format()
			if c.want == "" {
				if err == nil {
					t.Errorf("%q at column %d re-encoded as %q, want an error", c.field, col+1, o1[col:col+8])
				}
				continue
			}
			if err != nil {
				t.Fatalf("%q at column %d: %v", c.field, col+1, err)
			}
			if got := o1[col : col+8]; got != c.want {
				t.Errorf("%q at column %d re-encoded as %q, want %q", c.field, col+1, got, c.want)
			}
		}
	}
}

// TestAppendLinesAllocatesNothing gates the encoder's purpose: into a
// buffer with room, it allocates nothing.
func TestAppendLinesAllocatesNothing(t *testing.T) {
	tl, err := Parse(issLine1, issLine2)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 2*lineBytes)
	if n := testing.AllocsPerRun(100, func() {
		if buf, err = tl.AppendLines(buf[:0]); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("AppendLines allocates %v times per set", n)
	}
}

// chunkRecorder records the size of every Write it receives.
type chunkRecorder struct {
	bytes.Buffer
	sizes []int
}

func (c *chunkRecorder) Write(p []byte) (int, error) {
	c.sizes = append(c.sizes, len(p))
	return c.Buffer.Write(p)
}

// TestWriteChunks pins Write's output (names, then the referee's lines) and
// that it reaches w in chunks of about writeChunk bytes, not per set.
func TestWriteChunks(t *testing.T) {
	var sets []*TLE
	var want strings.Builder
	for i := 0; i < 1000; i++ {
		tl := sampleTLE(40000+i, epoch0.Add(time.Duration(i)*time.Minute), 15.05)
		if i%3 == 0 {
			tl.Name = "STARLINK-" + strconv.Itoa(i)
			want.WriteString(tl.Name + "\n")
		}
		l1, l2, err := refFormat(tl)
		if err != nil {
			t.Fatal(err)
		}
		want.WriteString(l1 + "\n" + l2 + "\n")
		sets = append(sets, tl)
	}
	var w chunkRecorder
	if err := Write(&w, sets); err != nil {
		t.Fatal(err)
	}
	if w.String() != want.String() {
		t.Fatal("Write's text differs from the referee's")
	}
	for i, n := range w.sizes {
		last := i == len(w.sizes)-1
		if n > writeChunk+3*lineBytes || (!last && n < writeChunk) {
			t.Fatalf("write %d of %d is %d bytes, want about %d", i, len(w.sizes), n, writeChunk)
		}
	}
	writes := len(w.sizes)
	if err := Write(&w, nil); err != nil || len(w.sizes) != writes {
		t.Fatalf("Write of no sets: %v, %d writes", err, len(w.sizes)-writes)
	}
}

// FuzzAppendLines drives AppendLines and the fmt referee with the same
// field values: both must write the same bytes or fail with the same error.
func FuzzAppendLines(f *testing.F) {
	f.Add(25544, byte('U'), "98067A", int64(1222095458), -0.00002182, 0.0, -0.11606e-4, 0, 292,
		51.6416, 247.4627, 0.0006703, 130.536, 325.0288, 15.72125391, 56353)
	f.Add(0, byte(0), "", int64(0), math.Copysign(0, -1), 1e-14, 999999e3, -1, -12345,
		-0.5, -1.5, 1.0/(1<<20), 720.00005, -0.00001, 99.999999999, -42)
	f.Add(99999, byte(0xc3), "98067é", int64(2000000000), 1.0, -1e-20, 3.0/1024, 10, 10000,
		1000.0, 359.99999, 0.99999999, 3.0/1024, 0.0, 0.0, 100000)
	f.Fuzz(func(t *testing.T, catalog int, cls byte, desig string, epoch int64, ndot, nddot, bstar float64,
		eph, elset int, incl, raan, ecc, argp, ma, mm float64, rev int) {
		checkAgainstReferee(t, &TLE{
			CatalogNumber:  catalog,
			Classification: cls,
			IntlDesignator: desig,
			Epoch:          time.Unix(epoch, 0),
			MeanMotionDot:  ndot,
			MeanMotionDDot: nddot,
			BStar:          bstar,
			EphemerisType:  eph,
			ElementSet:     elset,
			Inclination:    units.Degrees(incl),
			RAAN:           units.Degrees(raan),
			Eccentricity:   ecc,
			ArgPerigee:     units.Degrees(argp),
			MeanAnomaly:    units.Degrees(ma),
			MeanMotion:     units.RevsPerDay(mm),
			RevNumber:      rev,
		})
	})
}
