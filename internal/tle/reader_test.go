package tle

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"cosmicdance/internal/units"
)

func mustFormat(t *testing.T, tl *TLE) string {
	t.Helper()
	l1, l2, err := tl.Format()
	if err != nil {
		t.Fatalf("Format: %v", err)
	}
	return l1 + "\n" + l2 + "\n"
}

func sampleTLE(cat int, epoch time.Time, mm float64) *TLE {
	return &TLE{
		CatalogNumber:  cat,
		IntlDesignator: "19074A",
		Epoch:          epoch,
		MeanMotion:     units.RevsPerDay(mm),
		Inclination:    53,
		BStar:          0.5e-4,
		RAAN:           120,
		ArgPerigee:     90,
		MeanAnomaly:    45,
		Eccentricity:   0.0001,
		ElementSet:     1,
		RevNumber:      1000,
	}
}

var epoch0 = time.Date(2023, 3, 1, 0, 0, 0, 0, time.UTC)

func TestReaderTwoLine(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString(mustFormat(t, sampleTLE(44713, epoch0, 15.05)))
	buf.WriteString(mustFormat(t, sampleTLE(45766, epoch0.Add(time.Hour), 15.06)))

	sets, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) != 2 {
		t.Fatalf("len = %d", len(sets))
	}
	if sets[0].CatalogNumber != 44713 || sets[1].CatalogNumber != 45766 {
		t.Errorf("catalog numbers = %d, %d", sets[0].CatalogNumber, sets[1].CatalogNumber)
	}
}

func TestReaderThreeLine(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("STARLINK-1007\n")
	buf.WriteString(mustFormat(t, sampleTLE(44713, epoch0, 15.05)))
	buf.WriteString("0 STARLINK-1008\n") // alternative "0 " prefix form
	buf.WriteString(mustFormat(t, sampleTLE(44714, epoch0, 15.05)))

	sets, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) != 2 {
		t.Fatalf("len = %d", len(sets))
	}
	if sets[0].Name != "STARLINK-1007" {
		t.Errorf("name[0] = %q", sets[0].Name)
	}
	if sets[1].Name != "STARLINK-1008" {
		t.Errorf("name[1] = %q", sets[1].Name)
	}
}

func TestReaderSkipsBlankLines(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("\n\n")
	buf.WriteString(mustFormat(t, sampleTLE(44713, epoch0, 15.05)))
	buf.WriteString("\n")
	sets, err := ReadAll(&buf)
	if err != nil || len(sets) != 1 {
		t.Fatalf("sets=%d err=%v", len(sets), err)
	}
}

func TestReaderSkipsCorruptRecordsNonStrict(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString(mustFormat(t, sampleTLE(44713, epoch0, 15.05)))
	buf.WriteString("1 GARBAGE LINE THAT IS NOT A TLE AT ALL\n")
	buf.WriteString(mustFormat(t, sampleTLE(44714, epoch0, 15.05)))

	r := NewReader(&buf)
	var sets []*TLE
	for {
		tl, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Read: %v", err)
		}
		sets = append(sets, tl)
	}
	if len(sets) != 2 {
		t.Fatalf("parsed %d sets, want 2 (corrupt one skipped)", len(sets))
	}
	if r.Skipped() == 0 {
		t.Error("Skipped() = 0, want > 0")
	}
}

func TestReaderTruncatedStream(t *testing.T) {
	l1, _, err := sampleTLE(44713, epoch0, 15.05).Format()
	if err != nil {
		t.Fatal(err)
	}
	r := NewReader(strings.NewReader(l1 + "\n"))
	if _, err := r.Read(); err != io.EOF {
		t.Fatalf("truncated err = %v, want EOF", err)
	}
	if r.Skipped() != 1 {
		t.Errorf("Skipped() = %d, want 1", r.Skipped())
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	in := []*TLE{
		sampleTLE(44713, epoch0, 15.05),
		sampleTLE(45766, epoch0.Add(6*time.Hour), 15.3),
	}
	in[0].Name = "STARLINK-1007"
	var buf bytes.Buffer
	if err := Write(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("len = %d", len(out))
	}
	if out[0].Name != "STARLINK-1007" || out[1].Name != "" {
		t.Errorf("names = %q, %q", out[0].Name, out[1].Name)
	}
	if out[1].CatalogNumber != 45766 {
		t.Errorf("catalog = %d", out[1].CatalogNumber)
	}
}

func TestWritePropagatesFormatError(t *testing.T) {
	bad := sampleTLE(44713, epoch0, 15.05)
	bad.Eccentricity = 2 // unformattable
	if err := Write(io.Discard, []*TLE{bad}); err == nil {
		t.Error("Write accepted unformattable TLE")
	}
}

func TestRoundTripProperty(t *testing.T) {
	// Random physically-plausible element sets must survive
	// format -> parse within field precision.
	rng := rand.New(rand.NewSource(42))
	f := func() bool {
		in := &TLE{
			CatalogNumber:  rng.Intn(100000),
			IntlDesignator: "20001B",
			Epoch:          time.Date(2020+rng.Intn(5), time.Month(1+rng.Intn(12)), 1+rng.Intn(28), rng.Intn(24), rng.Intn(60), rng.Intn(60), 0, time.UTC),
			MeanMotion:     units.RevsPerDay(1 + rng.Float64()*16),
			MeanMotionDot:  (rng.Float64() - 0.5) * 1e-3,
			BStar:          (rng.Float64() - 0.5) * 1e-3,
			Inclination:    units.Degrees(rng.Float64() * 180),
			RAAN:           units.Degrees(rng.Float64() * 360),
			ArgPerigee:     units.Degrees(rng.Float64() * 360),
			MeanAnomaly:    units.Degrees(rng.Float64() * 360),
			Eccentricity:   rng.Float64() * 0.1,
			ElementSet:     rng.Intn(10000),
			RevNumber:      rng.Intn(100000),
		}
		l1, l2, err := in.Format()
		if err != nil {
			return false
		}
		out, err := Parse(l1, l2)
		if err != nil {
			return false
		}
		ok := out.CatalogNumber == in.CatalogNumber &&
			math.Abs(float64(out.MeanMotion-in.MeanMotion)) < 1e-7 &&
			math.Abs(out.Eccentricity-in.Eccentricity) < 1e-7 &&
			math.Abs(float64(out.Inclination-in.Inclination)) < 1e-3 &&
			math.Abs(float64(out.RAAN-in.RAAN)) < 1e-3 &&
			out.Epoch.Sub(in.Epoch).Abs() < 2*time.Millisecond
		if !ok {
			t.Logf("mismatch:\nin:  %+v\nout: %+v", in, out)
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestChecksumInvariantProperty(t *testing.T) {
	// Every formatted line must self-checksum.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		in := sampleTLE(rng.Intn(100000), epoch0.Add(time.Duration(rng.Intn(10000))*time.Hour), 10+rng.Float64()*6)
		l1, l2, err := in.Format()
		if err != nil {
			t.Fatal(err)
		}
		if int(l1[68]-'0') != Checksum(l1) {
			t.Fatalf("line1 checksum broken: %s", l1)
		}
		if int(l2[68]-'0') != Checksum(l2) {
			t.Fatalf("line2 checksum broken: %s", l2)
		}
	}
}
