// Package atmosphere models the upper-atmosphere drag environment that
// couples solar activity to LEO orbital decay: an exponential thermosphere
// whose density is enhanced during geomagnetic storms (heating expands the
// atmosphere, raising density at a fixed altitude), plus the derived orbital
// decay rate and TLE B* drag term. The paper's causal chain — storm → drag ↑
// → altitude ↓ — flows through this package.
package atmosphere

import (
	"math"

	"cosmicdance/internal/units"
)

// Model parameterizes the thermosphere. The zero value is unusable; start
// from Standard().
type Model struct {
	// RefAltitudeKm anchors the exponential profile (Starlink's operational
	// shell).
	RefAltitudeKm float64
	// RefDensity is the quiet-time density at the reference altitude
	// (kg/m³).
	RefDensity float64
	// ScaleHeightKm is the density e-folding distance.
	ScaleHeightKm float64

	// EnhancementSlope is the fractional density increase per 100 nT of
	// storm intensity beyond EnhancementFloor. Calibrated so the May 2024
	// super-storm (−412 nT) produces the ~5× drag Starlink reported.
	EnhancementSlope float64
	// EnhancementFloor is the |Dst| intensity (nT) below which no
	// enhancement occurs.
	EnhancementFloor float64

	// BaseDecayKmPerDay is the uncompensated quiet-time orbital decay rate
	// at the reference altitude.
	BaseDecayKmPerDay float64
	// DecayScaleHeightKm is the e-folding distance of the *decay rate*
	// profile. It is deliberately larger than ScaleHeightKm: ballistic
	// coefficients and the thermospheric profile both flatten the effective
	// decay-vs-altitude curve, and using the raw density profile would give
	// staging-orbit decay rates an order of magnitude beyond the km/day
	// regime observed during the February 2022 Starlink incident.
	DecayScaleHeightKm float64
	// BaseBStar is the quiet-time TLE B* drag term at the reference
	// altitude (1/Earth radii).
	BaseBStar float64
}

// Standard returns the calibrated model used by the paper-reproduction
// scenarios.
func Standard() Model {
	return Model{
		RefAltitudeKm:      550,
		RefDensity:         2.5e-13,
		ScaleHeightKm:      65,
		EnhancementSlope:   1.05,
		EnhancementFloor:   30,
		BaseDecayKmPerDay:  0.15,
		DecayScaleHeightKm: 110,
		BaseBStar:          4e-4,
	}
}

// Enhancement returns the storm density multiplier (>= 1) for a Dst reading.
func (m Model) Enhancement(d units.NanoTesla) float64 {
	intensity := -float64(d)
	if intensity <= m.EnhancementFloor {
		return 1
	}
	return 1 + m.EnhancementSlope*(intensity-m.EnhancementFloor)/100
}

// Density returns the atmospheric density (kg/m³) at altitude alt under
// geomagnetic conditions d.
func (m Model) Density(alt units.Kilometers, d units.NanoTesla) float64 {
	return m.density(alt, m.Enhancement(d))
}

// density is Density for a reading whose enhancement is enh.
func (m *Model) density(alt units.Kilometers, enh float64) float64 {
	profile := math.Exp((m.RefAltitudeKm - float64(alt)) / m.ScaleHeightKm)
	return m.RefDensity * profile * enh
}

// DecayRate returns the uncompensated circular-orbit decay rate (km/day,
// positive downward) at altitude alt under conditions d. It scales with
// density, and with orbital velocity relative to the reference altitude.
func (m Model) DecayRate(alt units.Kilometers, d units.NanoTesla) float64 {
	k := m.Kernel()
	return k.DecayRate(alt, m.Enhancement(d))
}

// BStar returns the TLE drag term (1/Earth radii) a tracking fit would report
// for a satellite with drag factor satFactor (1 = nominal cross-section) at
// altitude alt under conditions d.
func (m Model) BStar(alt units.Kilometers, d units.NanoTesla, satFactor float64) float64 {
	k := m.Kernel()
	return k.BStar(alt, m.Enhancement(d), satFactor)
}

// Kernel is a Model resolved for repeated evaluation, the one form of its
// decay-rate and B* formulas. What depends on the model alone is computed
// once: the decay profile's e-folding distance, the reference orbital speed
// squared and B*'s quiet reference density. The storm enhancement depends on
// the Dst hour alone, so it is an argument, and a caller stepping many
// satellites through one hour computes it once. Every float operation keeps
// the operands and the order of the unresolved formula, so a Kernel agrees
// with the Model methods bit for bit.
type Kernel struct {
	m        Model
	decayH   float64 // e-folding distance of the decay-rate profile
	vRef2    float64 // circular orbital speed at RefAltitudeKm, squared
	quietRef float64 // Density(RefAltitudeKm, 0), B*'s reference: RefDensity·exp(0)·Enhancement(0)
}

// Kernel resolves m.
func (m Model) Kernel() Kernel {
	h := m.DecayScaleHeightKm
	if h <= 0 {
		h = m.ScaleHeightKm
	}
	vRef := velocity(m.RefAltitudeKm)
	return Kernel{
		m:        m,
		decayH:   h,
		vRef2:    vRef * vRef,
		quietRef: m.density(units.Kilometers(m.RefAltitudeKm), m.Enhancement(0)),
	}
}

// DecayRate is Model.DecayRate for a reading whose Enhancement is enh.
func (k *Kernel) DecayRate(alt units.Kilometers, enh float64) float64 {
	if alt <= 0 {
		return 0
	}
	profile := math.Exp((k.m.RefAltitudeKm - float64(alt)) / k.decayH)
	// Velocity grows weakly as orbits decay; include the v² drag scaling
	// relative to reference so low altitudes decay slightly faster still.
	v := velocity(float64(alt))
	return k.m.BaseDecayKmPerDay * profile * enh * (v * v) / k.vRef2
}

// BStar is Model.BStar for a reading whose Enhancement is enh.
func (k *Kernel) BStar(alt units.Kilometers, enh, satFactor float64) float64 {
	densityRatio := k.m.density(alt, enh) / k.quietRef
	return k.m.BaseBStar * densityRatio * satFactor
}

// velocity is the circular orbital speed (km/s) at the given altitude.
func velocity(altKm float64) float64 {
	return math.Sqrt(units.MuEarth / (altKm + units.EarthRadiusKm))
}

// ReentryAltitudeKm is the altitude below which a decaying object is
// considered re-entered and is dropped from tracking.
const ReentryAltitudeKm = 180
