package atmosphere

import (
	"math"
	"testing"
	"time"

	"cosmicdance/internal/units"
)

// The formulas as they stood before Kernel resolved them: the referee the
// kernel must match bit for bit, as the fmt TLE encoder referees
// AppendLines. Each recomputes every model-level factor per call.

func refDensity(m Model, alt units.Kilometers, d units.NanoTesla) float64 {
	profile := math.Exp((m.RefAltitudeKm - float64(alt)) / m.ScaleHeightKm)
	return m.RefDensity * profile * m.Enhancement(d)
}

func refDecayRate(m Model, alt units.Kilometers, d units.NanoTesla) float64 {
	if alt <= 0 {
		return 0
	}
	h := m.DecayScaleHeightKm
	if h <= 0 {
		h = m.ScaleHeightKm
	}
	profile := math.Exp((m.RefAltitudeKm - float64(alt)) / h)
	vRef := velocity(m.RefAltitudeKm)
	v := velocity(float64(alt))
	return m.BaseDecayKmPerDay * profile * m.Enhancement(d) * (v * v) / (vRef * vRef)
}

func refBStar(m Model, alt units.Kilometers, d units.NanoTesla, satFactor float64) float64 {
	densityRatio := refDensity(m, alt, d) / refDensity(m, units.Kilometers(m.RefAltitudeKm), 0)
	return m.BaseBStar * densityRatio * satFactor
}

func refTimeToReentry(m Model, startAlt units.Kilometers, ambient units.NanoTesla, dragFactor, deorbitKmPerDay float64) ReentryEstimate {
	if dragFactor <= 0 {
		dragFactor = 1
	}
	alt := float64(startAlt)
	if alt <= ReentryAltitudeKm {
		return ReentryEstimate{Reenters: true, Duration: 0}
	}
	maxHours := int(ReentryHorizon / time.Hour)
	for h := 1; h <= maxHours; h++ {
		alt -= (refDecayRate(m, units.Kilometers(alt), ambient)*dragFactor + deorbitKmPerDay) / 24
		if alt <= ReentryAltitudeKm {
			return ReentryEstimate{Reenters: true, Duration: time.Duration(h) * time.Hour}
		}
	}
	return ReentryEstimate{FinalAltKm: alt}
}

// kernelModels are the models the referee checks: the calibrated one, two
// whose decay profile falls back to the density scale height, and one whose
// quiet reading is enhanced, so B*'s reference density is not RefDensity.
func kernelModels() map[string]Model {
	flat, negative, enhanced := Standard(), Standard(), Standard()
	flat.DecayScaleHeightKm = 0
	negative.DecayScaleHeightKm = -40
	enhanced.EnhancementFloor = -5
	return map[string]Model{"standard": Standard(), "decay-h-0": flat, "decay-h-negative": negative, "floor-negative": enhanced}
}

// checkKernel fails the test unless every resolved form of the rate
// functions has the referee's bits at (alt, d, drag).
func checkKernel(t *testing.T, name string, m Model, alt units.Kilometers, d units.NanoTesla, drag float64) {
	t.Helper()
	k, enh := m.Kernel(), m.Enhancement(d)
	same := func(what string, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s %s(alt=%v, dst=%v, drag=%v) = %v (%#x), want %v (%#x)",
				name, what, alt, d, drag, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	rate := refDecayRate(m, alt, d)
	same("Model.DecayRate", m.DecayRate(alt, d), rate)
	same("Kernel.DecayRate", k.DecayRate(alt, enh), rate)
	bstar := refBStar(m, alt, d, drag)
	same("Model.BStar", m.BStar(alt, d, drag), bstar)
	same("Kernel.BStar", k.BStar(alt, enh, drag), bstar)
	same("Model.Density", m.Density(alt, d), refDensity(m, alt, d))
}

// TestKernelMatchesFormulas checks the resolved kernel against the
// unresolved formulas on the altitudes and readings the simulator reaches:
// the degenerate alt ≤ 0, the re-entry floor, the 210/350/360 km staging
// orbits, every shell of the presets, OneWeb's 1,200 km, quiet, threshold,
// storm, super-storm and positive Dst, and the drag factors a satellite
// carries (nominal spread, safe mode, tracking-fit inflation, the duck).
func TestKernelMatchesFormulas(t *testing.T) {
	alts := []units.Kilometers{-5, 0, 180, 210, 350, 360, 525, 530, 535, 540, 549.25, 550, 560, 570, 590, 610, 630, 1200}
	dsts := []units.NanoTesla{0, -10, -30, -50, -66, -412, 20}
	drags := []float64{0.8, 1, 1.3, 1.3 * 2.2, 1.05 * 2.5 * 0.6}
	for name, m := range kernelModels() {
		for _, alt := range alts {
			for _, d := range dsts {
				for _, drag := range drags {
					checkKernel(t, name, m, alt, d, drag)
				}
			}
		}
	}
	// B*'s reference density is RefDensity exactly: exp(0) = 1.
	if k, m := Standard().Kernel(), Standard(); k.quietRef != m.RefDensity {
		t.Errorf("quiet reference density = %v, want RefDensity %v", k.quietRef, m.RefDensity)
	}
}

// TestTimeToReentryMatchesFormulas: the integration resolves its model and
// its ambient enhancement once, and still takes the referee's every step.
func TestTimeToReentryMatchesFormulas(t *testing.T) {
	m := Standard()
	cases := []struct {
		alt           units.Kilometers
		d             units.NanoTesla
		drag, deorbit float64
	}{
		{550, -10, 1, 4},
		{550, -10, 1, 0},
		{210, -66, 2.5, 0},
		{350, -412, 1.3, 0},
		{180, 0, 1, 0},
		{1200, -50, 0, 0},
	}
	for _, c := range cases {
		got, want := m.TimeToReentry(c.alt, c.d, c.drag, c.deorbit), refTimeToReentry(m, c.alt, c.d, c.drag, c.deorbit)
		if got != want && !(math.IsNaN(got.FinalAltKm) && math.IsNaN(want.FinalAltKm)) {
			t.Errorf("TimeToReentry(%v, %v, %v, %v) = %+v, want %+v", c.alt, c.d, c.drag, c.deorbit, got, want)
		}
	}
}

// FuzzDecayKernel compares the kernel with the referee, by bits, at any
// altitude, Dst reading and drag factor, NaN and infinities included.
func FuzzDecayKernel(f *testing.F) {
	f.Add(550.0, -10.0, 1.0)
	f.Add(350.0, -412.0, 2.2)
	f.Add(210.0, -66.0, 1.5)
	f.Add(0.0, 20.0, 0.8)
	f.Add(1200.0, -30.0, 1.3)
	f.Add(math.NaN(), math.Inf(-1), 0.0)
	f.Fuzz(func(t *testing.T, alt, d, drag float64) {
		for name, m := range kernelModels() {
			checkKernel(t, name, m, units.Kilometers(alt), units.NanoTesla(d), drag)
		}
	})
}
