// Package orbit implements the Keplerian orbital mechanics CosmicDance needs:
// the mean-motion ↔ altitude conversion the paper uses to derive satellite
// altitude from TLEs, orbital periods, and the secular J2 perturbations that
// shape Fig 9 (RAAN regression of the L1 launch cohort).
package orbit

import (
	"errors"
	"fmt"
	"math"

	"cosmicdance/internal/units"
)

// Elements is a full Keplerian element set, the six parameters that
// unambiguously describe an Earth orbit (paper §A.2).
type Elements struct {
	Eccentricity float64
	MeanMotion   units.RevsPerDay
	Inclination  units.Degrees
	RAAN         units.Degrees // right ascension of the ascending node
	ArgPerigee   units.Degrees
	MeanAnomaly  units.Degrees
}

// Validate reports whether the element set is physically meaningful.
func (e Elements) Validate() error {
	if e.MeanMotion <= 0 {
		return fmt.Errorf("orbit: mean motion %v must be positive", e.MeanMotion)
	}
	if e.Eccentricity < 0 || e.Eccentricity >= 1 {
		return fmt.Errorf("orbit: eccentricity %v outside [0,1)", e.Eccentricity)
	}
	if e.Inclination < 0 || e.Inclination > 180 {
		return fmt.Errorf("orbit: inclination %v outside [0,180]", e.Inclination)
	}
	return nil
}

// Altitude returns the mean altitude implied by the mean motion.
func (e Elements) Altitude() units.Kilometers { return AltitudeFromMeanMotion(e.MeanMotion) }

// ErrNonPositive is returned for non-positive mean motions or altitudes below
// the Earth's surface.
var ErrNonPositive = errors.New("orbit: value must be positive")

// SemiMajorAxisFromMeanMotion inverts Kepler's third law:
//
//	a = ( μ (T/2π)² )^(1/3),  T = 86400/n seconds.
func SemiMajorAxisFromMeanMotion(n units.RevsPerDay) units.Kilometers {
	if n <= 0 {
		return 0
	}
	period := units.SecondsPerDay / float64(n)
	a := math.Cbrt(units.MuEarth * math.Pow(period/(2*math.Pi), 2))
	return units.Kilometers(a)
}

// AltitudeFromMeanMotion derives the mean altitude above the (mean-radius)
// Earth surface from a TLE mean motion, exactly the derivation the paper uses
// ("Mean Motion ... is inversely proportional to the altitude (we derive
// altitude from this parameter for our analysis of decay)").
func AltitudeFromMeanMotion(n units.RevsPerDay) units.Kilometers {
	a := SemiMajorAxisFromMeanMotion(n)
	if a == 0 {
		return 0
	}
	return a - units.EarthRadiusKm
}

// MeanMotionFromAltitude is the inverse of AltitudeFromMeanMotion.
func MeanMotionFromAltitude(alt units.Kilometers) (units.RevsPerDay, error) {
	a := float64(alt) + units.EarthRadiusKm
	if a <= 0 {
		return 0, ErrNonPositive
	}
	period := 2 * math.Pi * math.Sqrt(math.Pow(a, 3)/units.MuEarth)
	return units.RevsPerDay(units.SecondsPerDay / period), nil
}

// RAANRateDegPerDay returns the secular nodal-regression rate due to the
// Earth's oblateness (J2). For prograde LEO orbits the node drifts westward
// (negative rate) — this is the steady RAAN decrease visible in Fig 9.
//
//	dΩ/dt = −(3/2) J2 (Re/p)² n cos i
func RAANRateDegPerDay(alt units.Kilometers, inc units.Degrees, ecc float64) float64 {
	a := float64(alt) + units.EarthRadiusKm
	if a <= 0 || ecc >= 1 {
		return 0
	}
	n, err := MeanMotionFromAltitude(alt)
	if err != nil {
		return 0
	}
	nRadPerSec := 2 * math.Pi * float64(n) / units.SecondsPerDay
	p := a * (1 - ecc*ecc)
	rate := -1.5 * units.J2 * math.Pow(units.EarthEquatorialRadiusKm/p, 2) * nRadPerSec * math.Cos(inc.Radians())
	return rate * 180 / math.Pi * units.SecondsPerDay
}

// MeanAnomalyAt advances a mean anomaly by the given number of days at mean
// motion n, wrapped to [0,360).
func MeanAnomalyAt(m0 units.Degrees, n units.RevsPerDay, days float64) units.Degrees {
	return (m0 + units.Degrees(360*float64(n)*days)).Normalize360()
}
