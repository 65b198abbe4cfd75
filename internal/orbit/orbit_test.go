package orbit

import (
	"math"
	"testing"
	"testing/quick"

	"cosmicdance/internal/units"
)

func TestAltitudeFromMeanMotionStarlink(t *testing.T) {
	// Starlink's operational shell sits at ~550 km; its satellites report a
	// mean motion of roughly 15.05 rev/day.
	alt := AltitudeFromMeanMotion(15.05)
	if alt < 545 || alt < 0 || alt > 565 {
		t.Errorf("altitude at 15.05 rev/day = %v, want ~550 km", alt)
	}
}

func TestAltitudeMeanMotionInverse(t *testing.T) {
	for _, alt := range []units.Kilometers{350, 500, 540, 550, 560, 570, 1000, 2000, 35786} {
		n, err := MeanMotionFromAltitude(alt)
		if err != nil {
			t.Fatalf("MeanMotionFromAltitude(%v): %v", alt, err)
		}
		back := AltitudeFromMeanMotion(n)
		if math.Abs(float64(back-alt)) > 1e-6 {
			t.Errorf("round trip %v -> %v -> %v", alt, n, back)
		}
	}
}

func TestMeanMotionInverseProperty(t *testing.T) {
	f := func(raw uint16) bool {
		alt := units.Kilometers(200 + float64(raw%40000))
		n, err := MeanMotionFromAltitude(alt)
		if err != nil {
			return false
		}
		back := AltitudeFromMeanMotion(n)
		return math.Abs(float64(back-alt)) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMeanMotionMonotonicInAltitude(t *testing.T) {
	// Higher orbits are slower: mean motion must strictly decrease with
	// altitude (the inverse proportionality the paper exploits).
	prev := units.RevsPerDay(math.Inf(1))
	for alt := units.Kilometers(300); alt <= 1200; alt += 50 {
		n, err := MeanMotionFromAltitude(alt)
		if err != nil {
			t.Fatal(err)
		}
		if n >= prev {
			t.Errorf("mean motion at %v = %v, not below %v", alt, n, prev)
		}
		prev = n
	}
}

func TestMeanMotionFromAltitudeError(t *testing.T) {
	if _, err := MeanMotionFromAltitude(-units.EarthRadiusKm); err == nil {
		t.Error("want error for altitude at Earth's center")
	}
}

func TestAltitudeFromMeanMotionDegenerate(t *testing.T) {
	if got := AltitudeFromMeanMotion(0); got != 0 {
		t.Errorf("AltitudeFromMeanMotion(0) = %v, want 0", got)
	}
	if got := AltitudeFromMeanMotion(-3); got != 0 {
		t.Errorf("AltitudeFromMeanMotion(-3) = %v, want 0", got)
	}
}

func TestGeostationaryAltitude(t *testing.T) {
	// One revolution per solar day puts the satellite near (not exactly at,
	// since GEO is defined against the sidereal day) the 35,786 km belt.
	alt := AltitudeFromMeanMotion(1.0027) // sidereal-corrected
	if alt < 35000 || alt > 36500 {
		t.Errorf("GEO altitude = %v", alt)
	}
}

func TestRAANRateStarlink(t *testing.T) {
	// Starlink at 550 km / 53° regresses westward a few degrees per day
	// (textbook value ≈ −5°/day at that inclination... actually ~-5 for ISS
	// at 51.6°; 53° gives ≈ −4.9). Assert sign and plausible magnitude.
	rate := RAANRateDegPerDay(550, 53, 0.0001)
	if rate >= 0 {
		t.Fatalf("prograde orbit must regress westward, got %v", rate)
	}
	if rate < -7 || rate > -3 {
		t.Errorf("RAAN rate = %v deg/day, want roughly -5", rate)
	}
}

func TestRAANRatePolarIsZero(t *testing.T) {
	rate := RAANRateDegPerDay(550, 90, 0)
	if math.Abs(rate) > 1e-9 {
		t.Errorf("polar orbit RAAN rate = %v, want 0", rate)
	}
	// Retrograde (sun-synchronous-like) orbits precess eastward.
	if RAANRateDegPerDay(550, 97.6, 0) <= 0 {
		t.Error("retrograde orbit must precess eastward")
	}
}

func TestRAANRateDegenerate(t *testing.T) {
	if got := RAANRateDegPerDay(-units.EarthRadiusKm, 53, 0); got != 0 {
		t.Errorf("degenerate altitude: %v", got)
	}
	if got := RAANRateDegPerDay(550, 53, 1.5); got != 0 {
		t.Errorf("hyperbolic eccentricity: %v", got)
	}
}

func TestMeanAnomalyAt(t *testing.T) {
	// Half a revolution after 1/(2n) days.
	m := MeanAnomalyAt(0, 15, 1.0/30.0)
	if math.Abs(float64(m)-180) > 1e-9 {
		t.Errorf("mean anomaly = %v, want 180", m)
	}
	// Wraps.
	m = MeanAnomalyAt(350, 15, 1)
	if m < 0 || m >= 360 {
		t.Errorf("mean anomaly %v outside [0,360)", m)
	}
}

func TestElementsValidate(t *testing.T) {
	good := Elements{MeanMotion: 15.05, Inclination: 53, Eccentricity: 0.0001}
	if err := good.Validate(); err != nil {
		t.Errorf("valid elements rejected: %v", err)
	}
	bad := []Elements{
		{MeanMotion: 0, Inclination: 53},
		{MeanMotion: 15, Eccentricity: -0.1},
		{MeanMotion: 15, Eccentricity: 1.0},
		{MeanMotion: 15, Inclination: -1},
		{MeanMotion: 15, Inclination: 181},
	}
	for i, e := range bad {
		if err := e.Validate(); err == nil {
			t.Errorf("case %d: invalid elements accepted: %+v", i, e)
		}
	}
}

func TestElementsAltitude(t *testing.T) {
	e := Elements{MeanMotion: 15.05}
	if alt := e.Altitude(); alt < 540 || alt > 565 {
		t.Errorf("Elements.Altitude = %v", alt)
	}
}
