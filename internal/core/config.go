// Package core implements the CosmicDance pipeline — the paper's primary
// contribution. It ingests solar-activity (Dst) data and satellite trajectory
// (TLE) data, orders them in time, cleans the trajectory archive (gross
// tracking errors, orbit-raising windows, already-decaying satellites), and
// establishes happens-closely-after relationships between storms and
// trajectory changes, aggregated into the analyses behind every figure in
// the paper.
package core

import (
	"time"
)

// Config holds the pipeline's cleaning and association parameters. All of
// them are the paper's defaults and all are configurable (the paper calls the
// decay threshold "empirically set; configurable").
type Config struct {
	// MaxValidAltKm: TLEs above this altitude are tracking errors and are
	// removed (paper: "> 650 km", given Starlink's operational range).
	MaxValidAltKm float64
	// MinValidAltKm guards against absurd low fits.
	MinValidAltKm float64
	// DecayFilterKm: a satellite whose altitude immediately before an event
	// differs from its long-term median by more than this has already
	// started decaying and is excluded from that event's analysis (paper:
	// 5 km).
	DecayFilterKm float64
	// RaisingMarginKm: the orbit-raising prefix of a track is removed up to
	// the first point within this margin of the operational altitude.
	RaisingMarginKm float64
	// MinOperationalAltKm: tracks whose operational altitude estimate falls
	// below this never reached a shell (e.g. lost during staging) and are
	// excluded from per-satellite storm analyses.
	MinOperationalAltKm float64
	// BaselineStaleness: how old the "immediately before the event"
	// observation may be before the satellite is skipped for that event.
	BaselineStaleness time.Duration
	// AssociationWindow: how long after a storm a trajectory change still
	// counts as happening "closely after" it.
	AssociationWindow time.Duration
	// Parallelism bounds the worker pool the per-track cleaning pass and
	// the per-(event, track) association sweeps fan out on: 0 means one
	// worker per CPU (GOMAXPROCS), 1 runs sequentially. Results are merged
	// in deterministic order, so every setting produces identical output.
	Parallelism int
}

// GrossError reports whether an observed altitude is a tracking error the
// cleaning funnel drops before anything else: one outside [MinValidAltKm,
// MaxValidAltKm], or NaN. It is the one gross-error cut; the batch builder,
// the live engine's ingest and its snapshot restore all apply it.
func (c Config) GrossError(altKm float64) bool {
	return !(altKm >= c.MinValidAltKm && altKm <= c.MaxValidAltKm)
}

// DefaultConfig returns the paper's parameters.
func DefaultConfig() Config {
	return Config{
		MaxValidAltKm:       650,
		MinValidAltKm:       100,
		DecayFilterKm:       5,
		RaisingMarginKm:     3,
		MinOperationalAltKm: 450,
		BaselineStaleness:   72 * time.Hour,
		AssociationWindow:   30 * 24 * time.Hour,
	}
}
