package incremental

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
	"time"

	"cosmicdance/internal/constellation"
	"cosmicdance/internal/core"
	"cosmicdance/internal/dst"
	"cosmicdance/internal/spaceweather"
	"cosmicdance/internal/testkit"
	"cosmicdance/internal/units"
)

// batchRun is the batch-pipeline reference: Build over the concatenated
// observations plus the fixed-threshold event selection and the onset scan,
// with exactly the engine's configuration.
type batchRun struct {
	dataset *core.Dataset
	devs    []core.Deviation
	onsets  []core.DecayOnset
}

func runBatch(t testing.TB, cfg Config, weather *dst.Index, obs []core.Observation) batchRun {
	t.Helper()
	b := core.NewBuilder(cfg.Core, weather)
	b.AddObservations(obs)
	d, err := b.Build(context.Background())
	if err != nil {
		t.Fatalf("batch build: %v", err)
	}
	events := core.WeatherEvents(weather, units.StormThreshold, 1, 0)
	return batchRun{
		dataset: d,
		devs:    d.Associate(context.Background(), events, cfg.WindowDays),
		onsets:  d.DecayOnsets(cfg.MinDropKm),
	}
}

// checkAgainstBatch asserts the engine's materialized state is byte-identical
// to the batch pipeline over the same observations and weather.
func checkAgainstBatch(t testing.TB, label string, cfg Config, e *Engine, wxStart time.Time, wx []float64, obs []core.Observation) {
	t.Helper()
	weather := dst.FromValues(wxStart, wx)
	ref := runBatch(t, cfg, weather, obs)
	got, err := e.Dataset()
	if err != nil {
		t.Fatalf("%s: engine dataset: %v", label, err)
	}
	if msg := testkit.DiffDatasets(ref.dataset, got); msg != "" {
		t.Errorf("%s: dataset diverged: %s", label, msg)
	}
	if msg := testkit.DiffDeviations(ref.devs, e.Deviations()); msg != "" {
		t.Errorf("%s: deviations diverged: %s", label, msg)
	}
	gotOnsets := e.Onsets()
	if len(ref.onsets) != len(gotOnsets) {
		t.Errorf("%s: onset count differs: batch %d, engine %d", label, len(ref.onsets), len(gotOnsets))
	} else {
		for i := range ref.onsets {
			if ref.onsets[i] != gotOnsets[i] {
				t.Errorf("%s: onset %d differs:\n  batch:  %+v\n  engine: %+v", label, i, ref.onsets[i], gotOnsets[i])
				break
			}
		}
	}
}

// fleetObs simulates a small research fleet and returns its observations in
// sample order plus the weather.
func fleetObs(t testing.TB, seed int64, months int) (*dst.Index, []core.Observation) {
	t.Helper()
	weather, err := spaceweather.Generate(spaceweather.Paper2020to2024())
	if err != nil {
		t.Fatal(err)
	}
	start := weather.Start()
	fleetCfg := constellation.ResearchFleet(seed, start, start.AddDate(0, months, 0), 6)
	res, err := constellation.Run(context.Background(), fleetCfg, weather)
	if err != nil {
		t.Fatal(err)
	}
	obs := make([]core.Observation, len(res.Samples))
	for i, s := range res.Samples {
		obs[i] = core.ObservationFromSample(s)
	}
	return weather, obs
}

// TestPrefixReplayMatchesBatch is the package-level headline invariant: any
// interleaving of observation batches and Dst-hour batches, replayed through
// the engine, materializes byte-identically to the batch pipeline over the
// same prefix — at every prefix, not just the end.
func TestPrefixReplayMatchesBatch(t *testing.T) {
	weather, obs := fleetObs(t, 7, 6)
	wx := weather.Values()
	cfg := DefaultConfig()

	// Deterministically shuffle observations so batches interleave catalogs
	// and epochs arrive out of order — arrival order must not matter.
	rng := rand.New(rand.NewPCG(11, 13))
	shuffled := append([]core.Observation(nil), obs...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })

	e := New(cfg)
	nWx, nObs := 0, 0
	step := 0
	for nWx < len(wx) || nObs < len(shuffled) {
		// Alternate weather and observation batches of uneven sizes.
		if nWx < len(wx) {
			n := 200 + 37*(step%5)
			if nWx+n > len(wx) {
				n = len(wx) - nWx
			}
			if _, err := e.IngestDst(weather.Start().Add(time.Duration(nWx)*time.Hour), wx[nWx:nWx+n]); err != nil {
				t.Fatal(err)
			}
			nWx += n
		}
		if nObs < len(shuffled) {
			n := 500 + 91*(step%7)
			if nObs+n > len(shuffled) {
				n = len(shuffled) - nObs
			}
			e.IngestObservations(shuffled[nObs : nObs+n])
			nObs += n
		}
		step++
		if step%6 == 0 {
			checkAgainstBatch(t, fmt.Sprintf("prefix step %d (wx=%d obs=%d)", step, nWx, nObs),
				cfg, e, weather.Start(), wx[:nWx], shuffled[:nObs])
		}
	}
	checkAgainstBatch(t, "full stream", cfg, e, weather.Start(), wx, shuffled)
}

// TestStormMachineMatchesBatchScan drives hand-crafted weather through the
// online machine one hour at a time and checks, at every watermark, that the
// storm list (trailing open run included) and the event list equal the batch
// scan over the same prefix — including watermarks landing exactly
// on a storm onset and exactly on the recovery boundary.
func TestStormMachineMatchesBatchScan(t *testing.T) {
	start := time.Date(2024, 5, 1, 0, 0, 0, 0, time.UTC)
	// Quiet, onset, deepening, recovery-boundary, quiet, a 1-hour storm, and
	// a storm still open at the end of the data.
	wx := []float64{
		-10, -20, -50, -80, -120, -49, -10, // storm 1: hours 2..5, peak -120
		-30, -51, -20, // storm 2: exactly one hour
		-40, -60, -70, // storm 3: open at the watermark
	}
	e := New(DefaultConfig())
	for i, v := range wx {
		at := start.Add(time.Duration(i) * time.Hour)
		if _, err := e.IngestDst(at, []float64{v}); err != nil {
			t.Fatal(err)
		}
		prefix := dst.FromValues(start, wx[:i+1])
		wantStorms := prefix.Storms(units.StormThreshold)
		gotStorms := e.Storms()
		if len(wantStorms) != len(gotStorms) {
			t.Fatalf("hour %d: storm count: batch %d, engine %d", i, len(wantStorms), len(gotStorms))
		}
		for j := range wantStorms {
			if !wantStorms[j].Start.Equal(gotStorms[j].Start) || wantStorms[j].Hours != gotStorms[j].Hours ||
				wantStorms[j].Peak != gotStorms[j].Peak || !wantStorms[j].PeakAt.Equal(gotStorms[j].PeakAt) {
				t.Fatalf("hour %d: storm %d: batch %+v, engine %+v", i, j, wantStorms[j], gotStorms[j])
			}
		}
		wantEvents := core.WeatherEvents(prefix, units.StormThreshold, 1, 0)
		gotEvents := e.Events()
		if len(wantEvents) != len(gotEvents) {
			t.Fatalf("hour %d: event count: batch %d, engine %d", i, len(wantEvents), len(gotEvents))
		}
		for j := range wantEvents {
			if !wantEvents[j].Storm.Start.Equal(gotEvents[j].Storm.Start) {
				t.Fatalf("hour %d: event %d: batch %v, engine %v", i, j, wantEvents[j].Storm.Start, gotEvents[j].Storm.Start)
			}
		}
	}
	// The final storm must still be open (watermark inside a storm).
	if _, open := e.scan.Run(); len(e.Storms()) == 0 || !open {
		t.Fatal("expected an open storm at the watermark")
	}
}

// TestOutOfOrderDuplicateIngest replays overlapping, shuffled batches —
// every row ingested twice, in two different orders — and checks the state
// equals one clean batch ingest with the batch dedupe's counters.
func TestOutOfOrderDuplicateIngest(t *testing.T) {
	weather, obs := fleetObs(t, 42, 4)
	wx := weather.Values()
	cfg := DefaultConfig()

	e := New(cfg)
	if _, err := e.IngestDst(weather.Start(), wx); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(3, 5))
	pass2 := append([]core.Observation(nil), obs...)
	rng.Shuffle(len(pass2), func(i, j int) { pass2[i], pass2[j] = pass2[j], pass2[i] })
	st1 := e.IngestObservations(obs)
	st2 := e.IngestObservations(pass2)
	if st2.Applied != 0 {
		t.Fatalf("replayed batch applied %d rows, want 0", st2.Applied)
	}
	if st2.Duplicates+st2.GrossErrors != len(pass2) {
		t.Fatalf("replayed batch: %d dups + %d gross != %d rows", st2.Duplicates, st2.GrossErrors, len(pass2))
	}
	_ = st1

	// The batch reference sees the doubled stream too: its dedupe keeps the
	// first of each (catalog, epoch), which is exactly what the engine kept.
	doubled := append(append([]core.Observation(nil), obs...), pass2...)
	checkAgainstBatch(t, "doubled stream", cfg, e, weather.Start(), wx, doubled)

	// Dst replay is idempotent as well, aligned or mid-stream.
	if st, err := e.IngestDst(weather.Start(), wx[:100]); err != nil || st.Applied != 0 || st.Duplicates != 100 {
		t.Fatalf("dst replay: st=%+v err=%v", st, err)
	}
	if st, err := e.IngestDst(weather.Start().Add(500*time.Hour), wx[500:600]); err != nil || st.Applied != 0 {
		t.Fatalf("dst mid-stream replay: st=%+v err=%v", st, err)
	}
}

// TestDstStreamGuards exercises the contiguity contract: misaligned starts,
// gaps, and pre-stream batches are rejected without advancing the watermark.
func TestDstStreamGuards(t *testing.T) {
	start := time.Date(2024, 5, 1, 0, 0, 0, 0, time.UTC)
	e := New(DefaultConfig())
	if _, err := e.IngestDst(start, []float64{-10, -20}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.IngestDst(start.Add(90*time.Minute), []float64{-30}); err == nil {
		t.Fatal("misaligned batch accepted")
	}
	if _, err := e.IngestDst(start.Add(5*time.Hour), []float64{-30}); err == nil {
		t.Fatal("gapped batch accepted")
	}
	if _, err := e.IngestDst(start.Add(-3*time.Hour), []float64{-30}); err == nil {
		t.Fatal("pre-stream batch accepted")
	}
	if wm := e.WeatherWatermark(); !wm.Equal(start.Add(2 * time.Hour)) {
		t.Fatalf("watermark moved to %v", wm)
	}
}

// TestEmptyPrefix pins the engine's behavior before any data arrives: no
// dataset, a zero risk view, and a zero watermark — not a panic.
func TestEmptyPrefix(t *testing.T) {
	e := New(DefaultConfig())
	if _, err := e.Dataset(); err == nil {
		t.Fatal("empty engine materialized a dataset")
	}
	if !e.WeatherWatermark().IsZero() {
		t.Fatal("empty engine has a weather watermark")
	}
	if got := len(e.Storms()) + len(e.Events()) + len(e.Deviations()) + len(e.Onsets()); got != 0 {
		t.Fatalf("empty engine has %d derived items", got)
	}
	f := NewFeed(e, 0)
	v := f.Risk()
	if v.Observations != 0 || v.Tracks != 0 || v.ActiveStorm != nil {
		t.Fatalf("empty risk view not zero: %+v", v)
	}
	// Observations before any weather: tracks build, dataset still refuses
	// (no solar activity data), matching the batch builder.
	e.IngestObservations([]core.Observation{{Catalog: 1, Epoch: 1000, AltKm: 550}})
	if _, err := e.Dataset(); err == nil {
		t.Fatal("weatherless engine materialized a dataset")
	}
}

// TestSnapshotRestoreMidStorm snapshots the engine with the watermark inside
// a storm, restores into a fresh engine,
// feeds both the same suffix, and requires byte-identical materialized state
// plus a continuous delta sequence.
func TestSnapshotRestoreMidStorm(t *testing.T) {
	weather, obs := fleetObs(t, 1234, 6)
	wx := weather.Values()
	cfg := DefaultConfig()

	// Find an hour index that lands strictly inside a storm.
	cut := -1
	for _, s := range weather.Storms(units.StormThreshold) {
		if s.Hours >= 2 {
			cut = int(s.Start.Sub(weather.Start())/time.Hour) + 1
			break
		}
	}
	if cut < 0 {
		t.Fatal("no storm of >= 2 hours in the generated weather")
	}

	e := New(cfg)
	split := len(obs) / 2
	e.IngestObservations(obs[:split])
	if _, err := e.IngestDst(weather.Start(), wx[:cut]); err != nil {
		t.Fatal(err)
	}
	eCur, eOpen := e.scan.Run()
	if !eOpen {
		t.Fatal("cut hour is not inside a storm")
	}

	st := e.State()
	r, err := FromState(cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	if r.Seq() != e.Seq() || r.Version() != e.Version() {
		t.Fatalf("restore lost counters: seq %d/%d version %d/%d", r.Seq(), e.Seq(), r.Version(), e.Version())
	}
	if rCur, rOpen := r.scan.Run(); !rOpen || rCur != eCur {
		t.Fatalf("restore lost the open storm: open=%v cur=%+v", rOpen, rCur)
	}

	// Both engines consume the same suffix; every derived product must agree.
	for _, eng := range []*Engine{e, r} {
		if _, err := eng.IngestDst(weather.Start().Add(time.Duration(cut)*time.Hour), wx[cut:]); err != nil {
			t.Fatal(err)
		}
		eng.IngestObservations(obs[split:])
	}
	d1, err := e.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	d2, err := r.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	if msg := testkit.DiffDatasets(d1, d2); msg != "" {
		t.Errorf("restored dataset diverged: %s", msg)
	}
	if msg := testkit.DiffDeviations(e.Deviations(), r.Deviations()); msg != "" {
		t.Errorf("restored deviations diverged: %s", msg)
	}
	if e.Seq() != r.Seq() {
		t.Errorf("delta sequences diverged after restore: %d vs %d", e.Seq(), r.Seq())
	}
	checkAgainstBatch(t, "after restore", cfg, r, weather.Start(), wx, obs)
}

// TestStateFailsClosed corrupts snapshots in every structural dimension and
// requires FromState to reject each one.
func TestStateFailsClosed(t *testing.T) {
	weather, obs := fleetObs(t, 7, 3)
	e := New(DefaultConfig())
	if _, err := e.IngestDst(weather.Start(), weather.Values()); err != nil {
		t.Fatal(err)
	}
	e.IngestObservations(obs[:2000])
	good := e.State()
	if _, err := FromState(DefaultConfig(), good); err != nil {
		t.Fatalf("pristine state rejected: %v", err)
	}
	corrupt := []struct {
		name string
		mut  func(*EngineState)
	}{
		{"count mismatch", func(s *EngineState) { s.ObsCounts[0]++ }},
		{"column truncated", func(s *EngineState) { s.Alts = s.Alts[:len(s.Alts)-1] }},
		{"funnel mismatch", func(s *EngineState) { s.TotalObservations++ }},
		{"rawalts mismatch", func(s *EngineState) { s.RawAlts = s.RawAlts[:len(s.RawAlts)-1] }},
		{"catalog order", func(s *EngineState) { s.Cats[0], s.Cats[1] = s.Cats[1], s.Cats[0] }},
		{"epoch order", func(s *EngineState) { s.Epochs[0], s.Epochs[1] = s.Epochs[1], s.Epochs[0] }},
		{"gross error row", func(s *EngineState) { s.Alts[0] = 9999 }},
		{"nan altitude row", func(s *EngineState) { s.Alts[0] = math.NaN() }},
		{"zero history", func(s *EngineState) { s.ObsCounts[0] = 0 }},
		// Four lengths past the columns whose sum wraps back to the rows.
		{"history lengths wrap", func(s *EngineState) {
			for i := range 4 {
				s.ObsCounts[i] += 1 << 62
			}
		}},
		// Counters whose sum with the rows wraps to an empty funnel.
		{"funnel wraps", func(s *EngineState) {
			s.TotalObservations, s.RawAlts = 0, nil
			s.GrossErrors, s.Duplicates = math.MaxInt, math.MaxInt-len(s.Epochs)+2
		}},
		{"infinite dst hour", func(s *EngineState) { s.Wx[len(s.Wx)/2] = math.Inf(-1) }},
		{"weather start without weather", func(s *EngineState) { s.Wx = nil }},
	}
	for _, tc := range corrupt {
		st := e.State() // fresh deep copy every time
		tc.mut(&st)
		if _, err := FromState(DefaultConfig(), st); err == nil {
			t.Errorf("%s: corrupted state accepted", tc.name)
		}
	}
}

// TestNaNAltitudeIsGrossError feeds a 40-row history with one NaN altitude
// through the batch builder and through the engine. Both must count the NaN
// row as a gross error and keep every other row: no cleaned point is NaN.
func TestNaNAltitudeIsGrossError(t *testing.T) {
	start := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	const rows = 40
	batch := make([]core.Observation, rows)
	for i := range batch {
		batch[i] = core.Observation{
			Catalog: 44713,
			Epoch:   start.Add(time.Duration(i) * 12 * time.Hour).Unix(),
			AltKm:   550 + 0.1*float64(i%3),
			BStar:   1e-4,
			Incl:    53,
		}
	}
	batch[17].AltKm = math.NaN()
	wx := make([]float64, rows*12)
	for i := range wx {
		wx[i] = -10
	}
	weather := dst.FromValues(start, wx)

	check := func(label string, d *core.Dataset) {
		t.Helper()
		if got := d.Cleaning().GrossErrors; got != 1 {
			t.Errorf("%s: %d gross errors, want 1", label, got)
		}
		tr := d.Track(44713)
		if tr == nil {
			t.Fatalf("%s: the track did not survive cleaning", label)
		}
		if len(tr.Points)+tr.RaisingRemoved != rows-1 {
			t.Errorf("%s: %d points + %d raising, want %d rows kept", label, len(tr.Points), tr.RaisingRemoved, rows-1)
		}
		for _, p := range tr.Points {
			if math.IsNaN(float64(p.AltKm)) {
				t.Fatalf("%s: cleaned track holds a NaN point at %d", label, p.Epoch)
			}
		}
	}

	cfg := DefaultConfig()
	b := core.NewBuilder(cfg.Core, weather)
	b.AddObservations(batch)
	d, err := b.Build(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	check("batch", d)

	e := New(cfg)
	if st := e.IngestObservations(batch); st.GrossErrors != 1 || st.Applied != rows-1 {
		t.Errorf("engine ingest: %+v, want 1 gross error and %d applied", st, rows-1)
	}
	if _, err := e.IngestDst(start, wx); err != nil {
		t.Fatal(err)
	}
	d, err = e.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	check("engine", d)
}

// TestDeltaStreamShape pins the delta vocabulary on a small scripted run:
// track birth, storm open/close, event qualification, deviation and onset
// maintenance all emit, with strictly increasing sequence numbers.
func TestDeltaStreamShape(t *testing.T) {
	weather, obs := fleetObs(t, 7, 6)
	cfg := DefaultConfig()
	e := New(cfg)
	var kinds = map[Kind]int{}
	lastSeq := uint64(0)
	e.OnDelta(func(d Delta) {
		if d.Seq <= lastSeq {
			t.Fatalf("non-increasing seq: %d after %d", d.Seq, lastSeq)
		}
		lastSeq = d.Seq
		kinds[d.Kind]++
	})
	e.IngestObservations(obs)
	if _, err := e.IngestDst(weather.Start(), weather.Values()); err != nil {
		t.Fatal(err)
	}
	for _, k := range []Kind{KindTrackNew, KindStormOpen, KindStormClose, KindEventOpen, KindDeviationNew} {
		if kinds[k] == 0 {
			t.Errorf("no %s deltas emitted", k)
		}
	}
	if e.Seq() != lastSeq {
		t.Errorf("Seq() %d != last emitted %d", e.Seq(), lastSeq)
	}
}
