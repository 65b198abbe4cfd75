// Package cosmicdance is the public facade of the CosmicDance reproduction —
// a data-driven pipeline for measuring Low Earth Orbit shifts due to solar
// radiation, after Basak, Pal and Bhattacherjee (ACM IMC 2024).
//
// The pipeline ingests an hourly geomagnetic Dst index and a satellite TLE
// archive, merges them into one time-ordered representation, cleans the
// trajectory data (tracking errors, orbit-raising windows, already-decaying
// satellites), and establishes happens-closely-after relationships between
// geomagnetic storms and orbital changes.
//
// The live data sources the paper uses (WDC Kyoto, CelesTrak, Space-Track)
// are fully simulated: a calibrated space-weather generator, a Starlink-like
// constellation simulator, and an HTTP tracking service. Scenario presets
// regenerate every figure in the paper deterministically; see cmd/figures.
//
// Quick start:
//
//	ctx := context.Background()
//	weather, _ := cosmicdance.PaperWeather()
//	fleet, _ := cosmicdance.PaperConstellation(ctx, weather, 42)
//	dataset, _ := cosmicdance.NewDataset(ctx, weather, fleet)
//	events, _ := dataset.EventsAbovePercentile(95, 1, 0)
//	shifts := dataset.Associate(ctx, events, 30)
package cosmicdance

import (
	"context"

	"cosmicdance/internal/conjunction"
	"cosmicdance/internal/constellation"
	"cosmicdance/internal/core"
	"cosmicdance/internal/coverage"
	"cosmicdance/internal/dst"
	"cosmicdance/internal/groundtrack"
	"cosmicdance/internal/spaceweather"
	"cosmicdance/internal/tle"
	"cosmicdance/internal/trigger"
	"cosmicdance/internal/units"
)

// Re-exported core types. The implementation lives in internal packages;
// these aliases are the supported public names.
type (
	// Dataset is the merged, cleaned representation all analyses run on.
	Dataset = core.Dataset
	// Builder accumulates trajectory observations before cleaning.
	Builder = core.Builder
	// PipelineConfig holds the cleaning and association parameters, plus the
	// Parallelism knob bounding the pipeline's worker pools (0 = one worker
	// per CPU, 1 = sequential; results are identical at every setting).
	PipelineConfig = core.Config
	// Event is a solar event trajectory changes are associated with.
	Event = core.Event
	// Deviation is one (event, satellite) association outcome.
	Deviation = core.Deviation
	// WindowAnalysis is the per-day deviation aggregate after an event.
	WindowAnalysis = core.WindowAnalysis
	// WindowOptions tunes a window analysis.
	WindowOptions = core.WindowOptions
	// DecayOnset is an automatically detected permanent-decay start.
	DecayOnset = core.DecayOnset
	// Attribution quantifies how decay onsets concentrate after storms.
	Attribution = core.Attribution
	// Maneuver is a detected altitude-raising event.
	Maneuver = core.Maneuver

	// DstIndex is an hourly geomagnetic activity series.
	DstIndex = dst.Index
	// Storm is a maximal run of hours at or below the storm threshold.
	Storm = dst.Storm

	// TLE is a decoded NORAD two-line element set.
	TLE = tle.TLE

	// FleetConfig parameterizes the constellation simulator. Its Parallelism
	// field bounds the per-step physics worker pool; the simulated archive is
	// bit-identical at every setting.
	FleetConfig = constellation.Config
	// FleetResult is a simulation outcome: the TLE archive plus truth.
	FleetResult = constellation.Result

	// WeatherConfig parameterizes the space-weather generator.
	WeatherConfig = spaceweather.Config

	// GScale is NOAA's geomagnetic storm classification.
	GScale = units.GScale
	// NanoTesla is a geomagnetic disturbance reading.
	NanoTesla = units.NanoTesla
)

// DefaultPipelineConfig returns the paper's cleaning and association
// parameters (650 km sanity cut, 5 km decay filter, 30-day window).
func DefaultPipelineConfig() PipelineConfig { return core.DefaultConfig() }

// PaperWeather generates the paper's Jan 2020 – May 2024 Dst series,
// calibrated to its reported statistics (99th-ptile −63 nT, 720 mild hours,
// 74 moderate hours, exactly 3 severe hours) with every dated event injected.
func PaperWeather() (*DstIndex, error) {
	return spaceweather.Generate(spaceweather.Paper2020to2024())
}

// May2024Weather generates May 2024 with the −412 nT super-storm.
func May2024Weather() (*DstIndex, error) {
	return spaceweather.Generate(spaceweather.May2024())
}

// FiftyYearWeather generates the ~50-year history of Fig 8 with the eight
// named historic storms pinned at their recorded intensities.
func FiftyYearWeather() (*DstIndex, error) {
	return spaceweather.Generate(spaceweather.FiftyYears())
}

// GenerateWeather runs the generator with a custom configuration.
func GenerateWeather(cfg WeatherConfig) (*DstIndex, error) { return spaceweather.Generate(cfg) }

// PaperConstellation simulates the paper-window Starlink-like fleet (L1
// launch, steady cadence, the Feb 2022 staging incident, Fig 3's scripted
// satellites) against the given weather.
func PaperConstellation(ctx context.Context, weather *DstIndex, seed int64) (*FleetResult, error) {
	return constellation.Run(ctx, constellation.PaperFleet(seed), weather)
}

// May2024Constellation simulates the full-scale fleet through the May 2024
// super-storm with Starlink's proactive drag mitigation enabled.
func May2024Constellation(ctx context.Context, weather *DstIndex, seed int64) (*FleetResult, error) {
	return constellation.Run(ctx, constellation.May2024Fleet(seed), weather)
}

// DefaultFleetConfig returns the calibrated baseline fleet physics; set
// Start, Hours and Launches (or InitialFleet) before running it.
func DefaultFleetConfig() FleetConfig { return constellation.DefaultConfig() }

// SimulateConstellation runs the simulator with a custom configuration.
func SimulateConstellation(ctx context.Context, cfg FleetConfig, weather *DstIndex) (*FleetResult, error) {
	return constellation.Run(ctx, cfg, weather)
}

// NewDataset builds the cleaned dataset from a simulated fleet with the
// default pipeline parameters.
func NewDataset(ctx context.Context, weather *DstIndex, fleet *FleetResult) (*Dataset, error) {
	b := core.NewBuilder(core.DefaultConfig(), weather)
	b.AddSamples(fleet.Samples)
	return b.Build(ctx)
}

// NewDatasetFromTLEs builds the cleaned dataset from parsed element sets —
// the path a deployment fed by live CelesTrak/Space-Track data uses.
func NewDatasetFromTLEs(ctx context.Context, cfg PipelineConfig, weather *DstIndex, sets []*TLE) (*Dataset, error) {
	b := core.NewBuilder(cfg, weather)
	b.AddTLEs(sets)
	return b.Build(ctx)
}

// NewBuilder starts an incremental dataset build.
func NewBuilder(cfg PipelineConfig, weather *DstIndex) *Builder {
	return core.NewBuilder(cfg, weather)
}

// ParseTLE decodes one two-line element set.
func ParseTLE(line1, line2 string) (*TLE, error) { return tle.Parse(line1, line2) }

// DeviationCDF folds associations into an altitude-change CDF.
var DeviationCDF = core.DeviationCDF

// DragChangeCDF folds associations into a drag-change CDF.
var DragChangeCDF = core.DragChangeCDF

// StormThreshold is the Dst level at which geomagnetic activity counts as a
// storm (−50 nT).
const StormThreshold = units.StormThreshold

// --- §6 extension surfaces ---

// TriggerEngine is the storm trigger state machine feeding measurement
// schedulers (the paper's LEOScope integration).
type TriggerEngine = trigger.Engine

// TriggerEvent is one fired trigger.
type TriggerEvent = trigger.Event

// NewTriggerEngine builds a trigger engine firing at onset and clearing at
// clear (hysteresis; clear must be less intense than onset).
func NewTriggerEngine(onset, clear NanoTesla) (*TriggerEngine, error) {
	return trigger.New(onset, clear)
}

// LatitudeAnalyzer computes latitude-band exposure of a fleet during a storm
// window (the paper's finer-granularity extension).
type LatitudeAnalyzer = groundtrack.Analyzer

// NewLatitudeAnalyzer returns an analyzer with 5-minute propagation steps.
func NewLatitudeAnalyzer() *LatitudeAnalyzer { return groundtrack.NewAnalyzer() }

// ConjunctionAnalyzer scores the Kessler-pressure of shell crossings.
type ConjunctionAnalyzer = conjunction.Analyzer

// NewConjunctionAnalyzer builds an analyzer over the given shells with
// standard screening parameters.
func NewConjunctionAnalyzer(shells []Shell) *ConjunctionAnalyzer {
	return conjunction.NewAnalyzer(shells)
}

// CoverageAnalyzer estimates service coverage and bent-pipe RTT floors from
// fleet geometry (the paper's "service holes" motivation).
type CoverageAnalyzer = coverage.Analyzer

// NewCoverageAnalyzer returns the standard coverage configuration (25°
// elevation mask, 5° latitude rows).
func NewCoverageAnalyzer() *CoverageAnalyzer { return coverage.NewAnalyzer() }

// Shell is one orbital shell of a constellation.
type Shell = constellation.Shell

// StarlinkShells returns the Gen1 Starlink shells per the FCC filings.
func StarlinkShells() []Shell { return constellation.StarlinkShells() }

// OneWebShells returns a OneWeb-like 1,200 km single-shell deployment.
func OneWebShells() []Shell { return constellation.OneWebShells() }
