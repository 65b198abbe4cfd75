package constellation

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"cosmicdance/internal/atmosphere"
	"cosmicdance/internal/dst"
	"cosmicdance/internal/obs"
	"cosmicdance/internal/orbit"
	"cosmicdance/internal/parallel"
	"cosmicdance/internal/units"
)

// Simulation telemetry: runs completed plus the fleet and archive sizes they
// produced, so a -trace run shows how much work hid behind each fleet span.
var (
	metricSimRuns    = obs.Default().Counter("constellation_runs_total")
	metricSimSats    = obs.Default().Counter("constellation_satellites_total")
	metricSimSamples = obs.Default().Counter("constellation_samples_total")
)

// Config parameterizes a constellation run. Start from DefaultConfig.
type Config struct {
	Start time.Time
	Hours int
	Seed  int64

	// Parallelism bounds the worker pool the hourly physics step fans out
	// on: 0 means one worker per CPU (GOMAXPROCS), 1 runs sequentially.
	// Every satellite draws from its own RNG stream derived from (Seed,
	// catalog number), so the result is bit-identical at every setting.
	Parallelism int

	Shells       []Shell
	Launches     []Launch
	InitialFleet int // satellites pre-seeded operational at Start
	FirstCatalog int

	Atmosphere atmosphere.Model

	// Orbit raising and station keeping.
	StagingAltKm      float64
	StagingDays       float64 // checkout time before raising begins
	RaiseRateKmPerDay float64
	DeadbandKm        float64 // station-keeping tolerance below target
	BoostKmPerDay     float64 // station-keeping thrust capacity
	DeorbitKmPerDay   float64 // controlled decommission descent rate

	// Storm response. Probabilities are per storm hour at 100 nT intensity
	// and scale with (intensity/100)².
	SafeModeProbPerStormHour float64
	FailProbPerStormHour     float64
	SafeModeMinDays          float64
	SafeModeMaxDays          float64
	SafeModeDragFactor       float64 // tumbling-attitude drag multiplier

	// Fleet turnover.
	DecommissionPerYear float64 // random early-decommission rate
	LifespanYears       float64

	// Tracking model.
	MeanTLEIntervalHours float64
	MaxTLEIntervalHours  float64
	AltNoiseKm           float64
	GrossErrorProb       float64 // probability a TLE carries a wild altitude

	// ProactiveDragMitigation models the operator response Starlink
	// described for May 2024: during extreme storms satellites duck into a
	// low-drag attitude, operations stay attentive, and no storm failures
	// are sampled.
	ProactiveDragMitigation bool

	Scripted []ScriptedEvent
}

// DefaultConfig returns the calibrated baseline configuration (Starlink-like
// fleet physics, paper-era tracking cadence).
func DefaultConfig() Config {
	return Config{
		Seed:                     1,
		Shells:                   StarlinkShells(),
		FirstCatalog:             44713,
		Atmosphere:               atmosphere.Standard(),
		StagingAltKm:             350,
		StagingDays:              60,
		RaiseRateKmPerDay:        5,
		DeadbandKm:               1.5,
		BoostKmPerDay:            0.8,
		DeorbitKmPerDay:          4,
		SafeModeProbPerStormHour: 0.002,
		FailProbPerStormHour:     2e-5,
		SafeModeMinDays:          4,
		SafeModeMaxDays:          32,
		SafeModeDragFactor:       2.5,
		DecommissionPerYear:      0.012,
		LifespanYears:            5,
		MeanTLEIntervalHours:     12,
		MaxTLEIntervalHours:      154,
		AltNoiseKm:               0.05,
		GrossErrorProb:           1.5e-4,
	}
}

// Result is the outcome of a run: the tracking archive plus ground truth.
type Result struct {
	Start   time.Time
	Hours   int
	Samples []Sample  // epoch-ordered tracking observations
	Sats    []SatInfo // one per satellite ever launched
}

// Run simulates the constellation over cfg.Hours hourly steps, driven by the
// Dst index (hours outside the index are treated as quiet).
//
// The hourly physics step fans out across satellites on a worker pool
// bounded by cfg.Parallelism. Every satellite owns an RNG stream derived
// from (cfg.Seed, catalog number), so the archive is bit-identical for every
// worker count and every goroutine schedule: determinism is a property of
// the decomposition, not of the scheduler.
func Run(ctx context.Context, cfg Config, weather *dst.Index) (*Result, error) {
	sc, err := newSchedule(cfg)
	if err != nil {
		return nil, err
	}
	res, err := sc.simulate(ctx, weather, 0, sc.total, cfg.Parallelism)
	if err != nil {
		return nil, err
	}
	metricSimRuns.Inc()
	metricSimSats.Add(int64(len(res.Sats)))
	metricSimSamples.Add(int64(len(res.Samples)))
	return res, nil
}

// schedule is a run's creation schedule, resolved once: the initial fleet
// takes the first catalogs, then each launch batch takes the next ones as
// the hourly loop reaches it. Run walks it over the whole fleet; every chunk
// of a ChunkPlan walks the same schedule over its own catalog window.
type schedule struct {
	cfg      Config
	start    time.Time // hour-truncated UTC
	launches []Launch  // sorted by At
	scripts  map[int][]ScriptedEvent
	firstCat int
	initial  int // initial-fleet satellites
	total    int // satellites the run creates
}

// newSchedule validates cfg and resolves its creation schedule.
func newSchedule(cfg Config) (*schedule, error) {
	if err := validateConfig(cfg); err != nil {
		return nil, err
	}
	sc := &schedule{
		cfg:      cfg,
		start:    cfg.Start.UTC().Truncate(time.Hour),
		launches: append([]Launch(nil), cfg.Launches...),
		scripts:  make(map[int][]ScriptedEvent),
		firstCat: cfg.FirstCatalog,
		initial:  max(cfg.InitialFleet, 0),
	}
	slices.SortStableFunc(sc.launches, func(a, b Launch) int { return a.At.Compare(b.At) })
	for _, ev := range cfg.Scripted {
		sc.scripts[ev.Catalog] = append(sc.scripts[ev.Catalog], ev)
	}
	for _, evs := range sc.scripts {
		slices.SortStableFunc(evs, func(a, b ScriptedEvent) int { return a.At.Compare(b.At) })
	}
	if sc.firstCat == 0 {
		sc.firstCat = 44713
	}
	// The hourly loop reaches exactly the launches at or before its last
	// hour; the rest create no satellites and take no catalogs.
	last := sc.start.Add(time.Duration(cfg.Hours-1) * time.Hour)
	sc.total = sc.initial
	for _, l := range sc.launches {
		if l.At.After(last) {
			break
		}
		sc.total += max(l.Count, 0)
	}
	return sc, nil
}

// simulate is the hourly loop, the one simulation driver: it walks the
// whole creation schedule but creates only the satellites whose catalogs
// fall in the window [firstCat+lo, firstCat+hi), and steps them on width
// workers. Satellites outside the window only advance the catalog counter,
// by arithmetic rather than iteration. Because every satellite draws from
// its own catalog-keyed stream and stepSat touches only its own satellite,
// a window's result is the whole run's restricted to its catalogs, samples
// in the same relative order.
func (sc *schedule) simulate(ctx context.Context, weather *dst.Index, lo, hi, width int) (*Result, error) {
	st := &simState{
		schedule: *sc,
		pool:     parallel.NewRunner(width),
		lo:       sc.firstCat + lo,
		hi:       sc.firstCat + hi,
		result:   &Result{Start: sc.start, Hours: sc.cfg.Hours},
	}
	defer st.pool.Flush() // publish pool telemetry even on a failed run
	st.stepFn = func(i int) error {
		st.stepSat(st.sats[i], st.stepNow, st.stepD, st.stepStorm, st.stepDuck, st.stepIntensity)
		return nil
	}

	next := sc.firstCat + sc.initial // catalog of the first launched satellite
	// Size the archive for the window's initial fleet at the mean tracking
	// cadence: growing a chunk's ~57k samples by append re-copies them at
	// every 1.25× step.
	initial := max(min(next, st.hi)-st.lo, 0)
	st.result.Samples = make([]Sample, 0, initial*int(float64(sc.cfg.Hours)/sc.cfg.MeanTLEIntervalHours))
	for cat := st.lo; cat < min(next, st.hi); cat++ {
		st.seedInitialSat(cat)
	}
	launchIdx := 0
	for h := 0; h < sc.cfg.Hours; h++ {
		now := sc.start.Add(time.Duration(h) * time.Hour)
		d := units.NanoTesla(-10) // quiet default outside the index
		if v, ok := weather.At(now); ok {
			d = v
		}
		for launchIdx < len(sc.launches) && !sc.launches[launchIdx].At.After(now) {
			next = st.launch(sc.launches[launchIdx], now, next)
			launchIdx++
		}
		if err := st.step(ctx, now, d); err != nil {
			return nil, fmt.Errorf("constellation: step at %s: %w", now.Format(time.RFC3339), err)
		}
	}
	st.finalize()
	return st.result, nil
}

// validateConfig is the precondition check behind Run and PlanChunks.
func validateConfig(cfg Config) error {
	if cfg.Hours <= 0 {
		return fmt.Errorf("constellation: Hours must be positive, got %d", cfg.Hours)
	}
	if len(cfg.Shells) == 0 {
		return fmt.Errorf("constellation: no shells configured")
	}
	if cfg.MeanTLEIntervalHours <= 0 {
		return fmt.Errorf("constellation: MeanTLEIntervalHours must be positive")
	}
	return nil
}

// childSeed derives a satellite's RNG stream seed from the run seed and its
// catalog number via a splitmix64-style mix. The catalog number — not the
// creation order or a shared stream — is the sole per-satellite input, which
// is what makes every stream independent of scheduling.
func childSeed(seed int64, catalog int) int64 {
	z := uint64(seed) + uint64(catalog)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// simState carries the mutable state of one run over its schedule.
type simState struct {
	schedule
	// pool amortizes the per-hour fan-out's telemetry: one tally per
	// step, one registry flush per run (the step itself is ~µs-scale,
	// where per-call atomics are measurable).
	pool   *parallel.Runner
	lo, hi int // catalog window [lo, hi): the satellites this run creates
	sats   []*sat
	result *Result

	// stepFn is the per-satellite worker body, built once per run. The
	// hourly fan-out reuses it so the hot loop does not allocate a fresh
	// closure every step; the step parameters travel via the step* fields,
	// which the coordinator writes before the fan-out and workers only read.
	stepFn        func(i int) error
	stepNow       time.Time
	stepD         units.NanoTesla
	stepStorm     bool
	stepDuck      bool
	stepIntensity float64
}

// seedInitialSat creates initial-fleet satellite cat already on station.
// Its initial-fleet ordinal fixes its shell.
func (st *simState) seedInitialSat(cat int) {
	shellIdx := (cat - st.firstCat) % len(st.cfg.Shells)
	shell := st.cfg.Shells[shellIdx]
	s := st.newSat(cat, shellIdx, st.start, st.cfg.StagingAltKm)
	// Stagger ages so decommissioning is spread out. The age draw comes
	// after newSat so it rides the satellite's own stream, but the launch
	// time and lifespan must reflect it.
	age := time.Duration(s.rng.Float64() * 3 * 365 * 24 * float64(time.Hour))
	s.info.LaunchedAt = st.start.Add(-age)
	s.lifespanEnd = s.info.LaunchedAt.Add(time.Duration(st.cfg.LifespanYears * 365.25 * 24 * float64(time.Hour)))
	s.phase = PhaseOperational
	s.altKm = shell.AltitudeKm - s.rng.Float64()*st.cfg.DeadbandKm
	s.nextSample = st.start.Add(time.Duration(s.rng.Float64()*st.cfg.MeanTLEIntervalHours) * time.Hour)
	st.sats = append(st.sats, s)
}

// launch inserts the window's share of one batch at the staging orbit. The
// batch takes the catalogs from first on; launch returns the next free one.
func (st *simState) launch(l Launch, now time.Time, first int) int {
	stagingAlt := l.StagingAltKm
	if stagingAlt == 0 {
		stagingAlt = st.cfg.StagingAltKm
	}
	shellIdx := l.Shell
	if shellIdx < 0 || shellIdx >= len(st.cfg.Shells) {
		shellIdx = 0
	}
	stagingDays := l.StagingDays
	if stagingDays == 0 {
		stagingDays = st.cfg.StagingDays
	}
	end := first + max(l.Count, 0)
	for cat := max(first, st.lo); cat < min(end, st.hi); cat++ {
		s := st.newSat(cat, shellIdx, now, stagingAlt)
		s.phase = PhaseStaging
		s.altKm = stagingAlt
		s.stagedUntil = now.Add(time.Duration(stagingDays*24) * time.Hour)
		s.nextSample = now.Add(time.Duration(s.rng.Float64()*st.cfg.MeanTLEIntervalHours) * time.Hour)
		st.sats = append(st.sats, s)
	}
	return end
}

// newSat builds satellite cat with randomized plane geometry and drag
// factor. Catalog numbers follow the creation schedule; every random
// property is drawn from the satellite's own child stream so creation order
// and fleet composition cannot couple satellites to each other.
func (st *simState) newSat(cat, shellIdx int, launchedAt time.Time, stagingAlt float64) *sat {
	shell := st.cfg.Shells[shellIdx]
	s := &sat{
		info: SatInfo{
			Catalog:      cat,
			Name:         fmt.Sprintf("STARSIM-%d", cat),
			Shell:        shellIdx,
			LaunchedAt:   launchedAt,
			StagingAltKm: stagingAlt,
			TargetAltKm:  shell.AltitudeKm,
		},
		scripts:     st.scripts[cat],
		lifespanEnd: launchedAt.Add(time.Duration(st.cfg.LifespanYears*365.25*24) * time.Hour),
	}
	s.src.Seed(childSeed(st.cfg.Seed, cat))
	s.rng = rand.New(&s.src)
	// Log-normal-ish heterogeneity in ballistic response.
	s.info.DragFactor = 0.8 + s.rng.Float64()*0.5
	s.incl = float64(shell.Inclination) + s.rng.NormFloat64()*0.02
	s.raan = s.rng.Float64() * 360
	s.argp = s.rng.Float64() * 360
	s.meanAnomaly = s.rng.Float64() * 360
	s.ecc = 0.0001 + s.rng.Float64()*0.0002
	return s
}

// step advances every satellite by one hour under Dst reading d. Satellites
// are updated independently on the worker pool (each owns its state and its
// RNG stream); the coordinator then collects the samples emitted this hour
// in satellite order, so the archive layout is identical at every width.
func (st *simState) step(ctx context.Context, now time.Time, d units.NanoTesla) error {
	enh := st.cfg.Atmosphere.Enhancement(d)
	stormActive := d <= units.StormThreshold
	// With proactive mitigation the operator suppresses storm casualties
	// entirely (attentive response), and satellites duck into the low-drag
	// attitude once the storm is extreme.
	duck := st.cfg.ProactiveDragMitigation && enh >= 3
	intensityScale := 0.0
	if stormActive {
		i := -float64(d) / 100
		intensityScale = i * i
	}

	st.stepNow, st.stepD = now, d
	st.stepStorm, st.stepDuck, st.stepIntensity = stormActive, duck, intensityScale
	if err := st.pool.ForEach(ctx, len(st.sats), st.stepFn); err != nil {
		return err
	}

	// Ordered merge of this hour's emissions (at most one per satellite).
	for _, s := range st.sats {
		if s.hasPending {
			s.hasPending = false
			st.result.Samples = append(st.result.Samples, s.pending)
		}
	}
	return nil
}

// stepSat advances one satellite by one hour. It touches only s (state and
// RNG stream) plus read-only run configuration, which is what makes the
// per-step fan-out race-free and schedule-independent.
func (st *simState) stepSat(s *sat, now time.Time, d units.NanoTesla, stormActive, duck bool, intensityScale float64) {
	cfg := &st.cfg
	atm := cfg.Atmosphere
	if s.phase == PhaseReentered {
		return
	}
	if s.scriptCursor < len(s.scripts) {
		st.applyScripts(s, now)
	}

	// Uncompensated drag decay for this hour.
	drag := s.info.DragFactor
	if s.phase == PhaseSafeMode {
		drag *= s.episodeDrag
	}
	if duck {
		// Knife-edge "duck" attitude sheds drag during extreme storms.
		drag *= 0.6
	}
	decay := atm.DecayRate(units.Kilometers(s.altKm), d) / 24 * drag

	switch s.phase {
	case PhaseStaging:
		// Checkout thrusting compensates quiet-time staging drag but has
		// limited authority: the quiet-time rate is the budget.
		budget := atm.DecayRate(units.Kilometers(s.info.StagingAltKm), 0) / 24 * s.info.DragFactor
		net := decay - budget
		if net > 0 {
			s.altKm -= net
		}
		if s.altKm < s.info.StagingAltKm-12 {
			// Drag has won; the batch is written off (Feb 2022 pattern).
			st.beginDeorbit(s, now)
			break
		}
		if now.After(s.stagedUntil) {
			s.phase = PhaseRaising
		}
		st.maybeStormEvent(s, now, stormActive && !cfg.ProactiveDragMitigation && len(s.scripts) == 0, intensityScale)
	case PhaseRaising:
		s.altKm += (cfg.RaiseRateKmPerDay)/24 - decay
		if s.altKm >= s.info.TargetAltKm {
			s.altKm = s.info.TargetAltKm
			s.phase = PhaseOperational
		}
		st.maybeStormEvent(s, now, stormActive && !cfg.ProactiveDragMitigation && len(s.scripts) == 0, intensityScale)
	case PhaseOperational:
		s.altKm -= decay
		deficit := s.info.TargetAltKm - s.altKm
		if deficit > cfg.DeadbandKm {
			boost := cfg.BoostKmPerDay / 24
			if duck {
				boost *= 2 // attentive operational response
			}
			if boost > deficit {
				boost = deficit
			}
			s.altKm += boost
		}
		if now.After(s.lifespanEnd) {
			st.beginDeorbit(s, now)
			break
		}
		if s.decommissionDue(st, now) {
			st.beginDeorbit(s, now)
			break
		}
		st.maybeStormEvent(s, now, stormActive && !cfg.ProactiveDragMitigation && len(s.scripts) == 0, intensityScale)
	case PhaseSafeMode:
		s.altKm -= decay
		if now.After(s.safeUntil) {
			// Recovery: far below the shell (the storm hit during orbit
			// raising) the ion thrusters resume the raise at full
			// authority; a station-keeping-scale excursion recovers at
			// normal boost rates, which is what keeps the tail of Fig 4a
			// elevated for weeks.
			if s.altKm < s.info.TargetAltKm-30 {
				s.phase = PhaseRaising
			} else {
				s.phase = PhaseOperational
			}
		}
	case PhaseDeorbiting:
		s.altKm -= s.deorbitKmDay/24 + decay
	}

	// Universal re-entry floor: whatever the phase, an orbit this low is
	// gone within hours and tracking stops.
	if s.altKm <= atmosphere.ReentryAltitudeKm {
		s.phase = PhaseReentered
		s.info.Fate = PhaseReentered
		s.info.FateAt = now
		return
	}

	// Plane geometry: J2 nodal regression and mean-anomaly advance.
	s.raan += s.raanRatePerHour()
	if s.raan < 0 {
		s.raan += 360
	} else if s.raan >= 360 {
		s.raan -= 360
	}
	s.meanAnomaly += s.maRatePerHour()
	for s.meanAnomaly >= 360 {
		s.meanAnomaly -= 360
	}

	if !now.Before(s.nextSample) {
		st.emitSample(s, now, d)
	}
}

// decommissionDue samples the random early-decommission process. Satellites
// with scripted fates are exempt so presets stay deterministic.
func (s *sat) decommissionDue(st *simState, now time.Time) bool {
	if st.cfg.DecommissionPerYear <= 0 {
		return false
	}
	if len(s.scripts) > 0 {
		return false
	}
	// Sampled lazily at low rate; one uniform draw per satellite-hour would
	// dominate the run, so the per-hour probability is only evaluated on a
	// 1-in-24 hour stride (daily), scaled accordingly.
	if now.Hour() != int(uint(s.info.Catalog)%24) {
		return false
	}
	return s.rng.Float64() < st.cfg.DecommissionPerYear/365.25
}

// maybeStormEvent samples safe-mode entry or permanent failure during storms.
func (st *simState) maybeStormEvent(s *sat, now time.Time, active bool, intensityScale float64) {
	if !active || intensityScale == 0 {
		return
	}
	r := s.rng.Float64()
	pSafe := st.cfg.SafeModeProbPerStormHour * intensityScale
	pFail := st.cfg.FailProbPerStormHour * intensityScale
	switch {
	case r < pFail:
		st.beginUncontrolledDecay(s, now)
	case r < pFail+pSafe:
		st.enterSafeMode(s, now, st.cfg.SafeModeMinDays+s.rng.Float64()*(st.cfg.SafeModeMaxDays-st.cfg.SafeModeMinDays), 0)
	}
}

func (st *simState) enterSafeMode(s *sat, now time.Time, days float64, dragFactor float64) {
	s.phase = PhaseSafeMode
	s.safeUntil = now.Add(time.Duration(days * 24 * float64(time.Hour)))
	if dragFactor > 0 {
		s.episodeDrag = dragFactor
	} else {
		s.episodeDrag = st.cfg.SafeModeDragFactor * (0.75 + 0.5*s.rng.Float64())
	}
}

// beginDeorbit starts a controlled decommission descent.
func (st *simState) beginDeorbit(s *sat, now time.Time) {
	s.phase = PhaseDeorbiting
	s.deorbitKmDay = st.cfg.DeorbitKmPerDay
	s.info.Fate = PhaseDeorbiting
	s.info.FateAt = now
}

// beginUncontrolledDecay marks a storm-failed satellite. The descent uses the
// same controlled rate: operators deorbit unrecoverable satellites promptly
// (Starlink's stated policy), and tumbling drag dominates either way.
func (st *simState) beginUncontrolledDecay(s *sat, now time.Time) {
	s.phase = PhaseDeorbiting
	s.deorbitKmDay = st.cfg.DeorbitKmPerDay * (0.75 + 0.5*s.rng.Float64())
	s.info.Fate = PhaseDeorbiting
	s.info.FateAt = now
}

// applyScripts fires any scripted events due for this satellite.
func (st *simState) applyScripts(s *sat, now time.Time) {
	evs := s.scripts
	for s.scriptCursor < len(evs) && !evs[s.scriptCursor].At.After(now) {
		ev := evs[s.scriptCursor]
		s.scriptCursor++
		switch ev.Action {
		case ScriptSafeMode:
			days := ev.DurationDays
			if days <= 0 {
				days = st.cfg.SafeModeMinDays
			}
			st.enterSafeMode(s, now, days, ev.DragFactor)
		case ScriptFail:
			st.beginUncontrolledDecay(s, now)
			if ev.DragFactor > 0 {
				s.deorbitKmDay = st.cfg.DeorbitKmPerDay * ev.DragFactor
			}
		case ScriptDeorbit:
			st.beginDeorbit(s, now)
		case ScriptProtect:
			// Deliberate no-op; see ScriptProtect.
		}
	}
}

// raanRatePerHour returns the J2 regression rate. The rate varies weakly with
// altitude over a satellite's life, so it is computed from the target shell.
func (s *sat) raanRatePerHour() float64 {
	if s.raanRate == 0 {
		s.raanRate = orbit.RAANRateDegPerDay(units.Kilometers(s.info.TargetAltKm), units.Degrees(s.incl), s.ecc) / 24
	}
	return s.raanRate
}

// maRatePerHour returns the mean-anomaly advance per hour at the target
// altitude (≈225°/hour for the 550 km shell).
func (s *sat) maRatePerHour() float64 {
	if s.maRate == 0 {
		n, err := orbit.MeanMotionFromAltitude(units.Kilometers(s.info.TargetAltKm))
		if err != nil {
			return 0
		}
		s.maRate = float64(n) * 360 / 24
	}
	return s.maRate
}

// emitSample buffers one tracking observation for the coordinator's ordered
// collection at the end of the step, and schedules the next.
func (st *simState) emitSample(s *sat, now time.Time, d units.NanoTesla) {
	cfg := &st.cfg
	alt := s.altKm + s.rng.NormFloat64()*cfg.AltNoiseKm
	if cfg.GrossErrorProb > 0 && s.rng.Float64() < cfg.GrossErrorProb {
		// Tracking mis-fit: a wildly wrong altitude, log-uniform up to the
		// 40,000 km tail the paper observed (Fig 10a).
		lo, hi := 700.0, 40000.0
		alt = lo * math.Pow(hi/lo, s.rng.Float64())
	}
	drag := s.info.DragFactor
	if s.phase == PhaseSafeMode || s.phase == PhaseDeorbiting {
		drag *= 2.2
	}
	s.pending = Sample{
		Catalog:      int32(s.info.Catalog),
		Epoch:        now.Unix(),
		AltKm:        float32(alt),
		BStar:        float32(cfg.Atmosphere.BStar(units.Kilometers(s.altKm), d, drag)),
		Inclination:  float32(s.incl + s.rng.NormFloat64()*0.003),
		RAAN:         float32(s.raan),
		Eccentricity: float32(s.ecc + s.rng.Float64()*1e-5),
		ArgPerigee:   float32(s.argp),
		MeanAnomaly:  float32(s.meanAnomaly),
	}
	s.hasPending = true
	// Refresh cadence: exponential around the mean, clamped to the observed
	// <1 h .. 154 h range.
	iv := s.rng.ExpFloat64() * cfg.MeanTLEIntervalHours
	if iv < 0.5 {
		iv = 0.5
	}
	if iv > cfg.MaxTLEIntervalHours {
		iv = cfg.MaxTLEIntervalHours
	}
	s.nextSample = now.Add(time.Duration(iv * float64(time.Hour)))
}

// finalize copies terminal ground truth into the result.
func (st *simState) finalize() {
	st.result.Sats = make([]SatInfo, len(st.sats))
	for i, s := range st.sats {
		info := s.info
		if info.FateAt.IsZero() {
			info.Fate = s.phase
		}
		st.result.Sats[i] = info
	}
}
