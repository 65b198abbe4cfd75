package atmosphere

import (
	"time"

	"cosmicdance/internal/units"
)

// ReentryEstimate is the outcome of a decay integration.
type ReentryEstimate struct {
	// Duration until the object reaches ReentryAltitudeKm; valid only when
	// Reenters is true.
	Duration time.Duration
	Reenters bool
	// FinalAltKm is the altitude at the end of the integration horizon when
	// the object does not re-enter within it.
	FinalAltKm float64
}

// ReentryHorizon bounds the integration: objects that survive this long are
// reported as non-re-entering (LEO operators care about weeks-to-months).
const ReentryHorizon = 10 * 365 * 24 * time.Hour

// TimeToReentry integrates the decay of an uncontrolled (or actively
// deorbited) object: hourly steps of the model's decay rate scaled by the
// object's drag factor, plus any controlled descent rate, under a constant
// ambient Dst level. This is the planning estimate an operator wants after a
// storm: "when is this satellite down?"
func (m Model) TimeToReentry(startAlt units.Kilometers, ambient units.NanoTesla, dragFactor, deorbitKmPerDay float64) ReentryEstimate {
	if dragFactor <= 0 {
		dragFactor = 1
	}
	alt := float64(startAlt)
	if alt <= ReentryAltitudeKm {
		return ReentryEstimate{Reenters: true, Duration: 0}
	}
	k, enh := m.Kernel(), m.Enhancement(ambient)
	maxHours := int(ReentryHorizon / time.Hour)
	for h := 1; h <= maxHours; h++ {
		alt -= (k.DecayRate(units.Kilometers(alt), enh)*dragFactor + deorbitKmPerDay) / 24
		if alt <= ReentryAltitudeKm {
			return ReentryEstimate{Reenters: true, Duration: time.Duration(h) * time.Hour}
		}
	}
	return ReentryEstimate{FinalAltKm: alt}
}
