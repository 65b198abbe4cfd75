// Package constellation simulates a Starlink-like LEO broadband fleet:
// staged launches, a low staging orbit, orbit raising, station-keeping
// against drag, storm-driven safe modes and failures, decommissioning, and
// the tracking pipeline that turns the fleet into a NORAD-style TLE archive.
// It is the satellite-side substrate of the CosmicDance reproduction — the
// paper measures the real Starlink fleet through public TLEs; this package
// produces a fleet whose TLEs respond to the same Dst series through the same
// physical mechanisms (atmospheric heating → drag → decay).
package constellation

import (
	"fmt"
	"math/rand"
	"time"

	"cosmicdance/internal/orbit"
	"cosmicdance/internal/tle"
	"cosmicdance/internal/units"
)

// Phase is a satellite's lifecycle state.
type Phase int

// Lifecycle phases, in nominal order.
const (
	// PhaseStaging: newly launched, parked in the low staging orbit for
	// checkout.
	PhaseStaging Phase = iota
	// PhaseRaising: ion thrusters raising the orbit to the assigned shell.
	PhaseRaising
	// PhaseOperational: on station, actively keeping altitude.
	PhaseOperational
	// PhaseSafeMode: storm-triggered protective state; station-keeping is
	// suspended and the tumbling attitude increases drag.
	PhaseSafeMode
	// PhaseDeorbiting: permanent decay — either a controlled decommission
	// burn or an unrecoverable failure.
	PhaseDeorbiting
	// PhaseReentered: below the re-entry altitude; no longer tracked.
	PhaseReentered
)

// String implements fmt.Stringer.
func (p Phase) String() string {
	switch p {
	case PhaseStaging:
		return "staging"
	case PhaseRaising:
		return "raising"
	case PhaseOperational:
		return "operational"
	case PhaseSafeMode:
		return "safe-mode"
	case PhaseDeorbiting:
		return "deorbiting"
	case PhaseReentered:
		return "reentered"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// Shell is one orbital shell of the constellation (FCC-filing style).
type Shell struct {
	Name         string
	AltitudeKm   float64
	Inclination  units.Degrees
	Planes       int
	SatsPerPlane int
}

// StarlinkShells returns the Gen1 Starlink shells as authorized by the FCC
// (altitudes and inclinations from the modification order the paper cites).
func StarlinkShells() []Shell {
	return []Shell{
		{Name: "shell-1", AltitudeKm: 550, Inclination: 53.0, Planes: 72, SatsPerPlane: 22},
		{Name: "shell-2", AltitudeKm: 540, Inclination: 53.2, Planes: 72, SatsPerPlane: 22},
		{Name: "shell-3", AltitudeKm: 570, Inclination: 70.0, Planes: 36, SatsPerPlane: 20},
		{Name: "shell-4", AltitudeKm: 560, Inclination: 97.6, Planes: 6, SatsPerPlane: 58},
		{Name: "shell-5", AltitudeKm: 560, Inclination: 97.6, Planes: 4, SatsPerPlane: 43},
	}
}

// OneWebShells returns a OneWeb-like single-shell deployment (the paper
// notes CosmicDance works "for any orbit (LEO/MEO/GEO) or satellite
// constellation without any major code changes"; this preset exercises that
// claim at 1,200 km, where atmospheric drag is orders of magnitude weaker).
func OneWebShells() []Shell {
	return []Shell{
		{Name: "oneweb", AltitudeKm: 1200, Inclination: 87.9, Planes: 12, SatsPerPlane: 49},
	}
}

// InterShellGapKm is the nominal altitude gap between adjacent Starlink
// shells (~5 km per the FCC filings); trespassing it is the collision-risk
// signal the paper highlights.
const InterShellGapKm = 5.0

// Launch schedules one batch insertion.
type Launch struct {
	At           time.Time
	Shell        int // index into Config.Shells
	Count        int
	StagingAltKm float64 // 0 means Config.StagingAltKm
	StagingDays  float64 // 0 means Config.StagingDays
}

// ScriptAction is a deterministic event forced on a satellite, used by the
// paper presets to reproduce dated incidents exactly.
type ScriptAction int

// Script actions.
const (
	// ScriptSafeMode puts the satellite in safe mode for DurationDays.
	ScriptSafeMode ScriptAction = iota
	// ScriptFail permanently fails the satellite into uncontrolled decay.
	ScriptFail
	// ScriptDeorbit begins a controlled decommission burn.
	ScriptDeorbit
	// ScriptProtect is a no-op marker: satellites carrying any scripted
	// event are exempt from random storm casualties and decommissioning, so
	// this pins a satellite's fate to "whatever the script says" — including
	// nothing at all.
	ScriptProtect
)

// ScriptedEvent forces an action on a specific satellite at a specific time.
type ScriptedEvent struct {
	Catalog      int
	At           time.Time
	Action       ScriptAction
	DurationDays float64 // safe-mode length (ScriptSafeMode)
	DragFactor   float64 // extra drag multiplier during the episode (0 = default)
}

// Sample is one tracking observation — the compact in-memory form of a TLE.
// Angles are float32 and the epoch is unix seconds to keep multi-million-
// sample archives affordable.
type Sample struct {
	Catalog      int32
	Epoch        int64 // unix seconds, UTC
	AltKm        float32
	BStar        float32
	Inclination  float32 // degrees
	RAAN         float32 // degrees
	Eccentricity float32
	ArgPerigee   float32 // degrees
	MeanAnomaly  float32 // degrees
}

// EpochTime returns the observation epoch.
func (s Sample) EpochTime() time.Time { return time.Unix(s.Epoch, 0).UTC() }

// MeanMotion derives the TLE mean motion from the sampled altitude.
func (s Sample) MeanMotion() (units.RevsPerDay, error) {
	return orbit.MeanMotionFromAltitude(units.Kilometers(s.AltKm))
}

// TLE materializes the sample as a full element set.
func (s Sample) TLE(name string) (*tle.TLE, error) {
	t := new(tle.TLE)
	if err := s.FillTLE(t, name); err != nil {
		return nil, err
	}
	return t, nil
}

// FillTLE overwrites every field of t with the sample's element set, so a
// caller walking many samples can reuse one TLE. On error t is unchanged.
func (s Sample) FillTLE(t *tle.TLE, name string) error {
	mm, err := s.MeanMotion()
	if err != nil {
		return fmt.Errorf("constellation: sample for %d: %w", s.Catalog, err)
	}
	*t = tle.TLE{
		Name:           name,
		CatalogNumber:  int(s.Catalog),
		Classification: 'U',
		IntlDesignator: "19074A",
		Epoch:          s.EpochTime(),
		BStar:          float64(s.BStar),
		Inclination:    units.Degrees(s.Inclination),
		RAAN:           units.Degrees(s.RAAN).Normalize360(),
		Eccentricity:   float64(s.Eccentricity),
		ArgPerigee:     units.Degrees(s.ArgPerigee).Normalize360(),
		MeanAnomaly:    units.Degrees(s.MeanAnomaly).Normalize360(),
		MeanMotion:     mm,
	}
	return nil
}

// SatInfo is the per-satellite ground truth retained after a run.
type SatInfo struct {
	Catalog      int
	Name         string
	Shell        int
	LaunchedAt   time.Time
	StagingAltKm float64
	TargetAltKm  float64
	DragFactor   float64
	Fate         Phase     // terminal (or final) phase at end of run
	FateAt       time.Time // when the terminal phase began
}

// sat is the mutable simulation state (internal). Each satellite owns its
// RNG stream (seeded from the run seed and its catalog number) and is
// touched by exactly one worker per step, so the struct needs no locking.
// The fields every step reads come first, so they share cache lines.
type sat struct {
	phase        Phase
	altKm        float64
	raan         float64
	meanAnomaly  float64
	raanRate     float64 // J2 nodal regression, deg/hour
	maRate       float64 // mean-anomaly advance, deg/hour
	scriptCursor int
	scripts      []ScriptedEvent // events targeting this satellite

	// Deadlines in unix seconds on the step clock (see dueUnix): the
	// satellite leaves staging, leaves safe mode or retires once the clock
	// passes them, and samples once it reaches nextSample.
	stagedUntil, safeUntil, lifespanEnd, nextSample int64

	stagingBudget float64 // quiet-time staging decay per hour, which checkout thrust cancels
	episodeDrag   float64 // extra drag multiplier while in safe mode
	deorbitKmDay  float64

	info SatInfo
	src  stream // the satellite's own source, behind rng
	rng  *rand.Rand
	incl float64
	argp float64
	ecc  float64
}
