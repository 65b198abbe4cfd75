package constellation

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"cosmicdance/internal/dst"
)

// diffResults fails the test unless a and b are identical field for field.
func diffResults(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if !a.Start.Equal(b.Start) || a.Hours != b.Hours {
		t.Fatalf("%s: header differs: %v/%d vs %v/%d", label, a.Start, a.Hours, b.Start, b.Hours)
	}
	if len(a.Sats) != len(b.Sats) {
		t.Fatalf("%s: sat counts differ: %d vs %d", label, len(a.Sats), len(b.Sats))
	}
	for i := range a.Sats {
		if a.Sats[i] != b.Sats[i] {
			t.Fatalf("%s: sat %d differs:\n  %+v\n  %+v", label, i, a.Sats[i], b.Sats[i])
		}
	}
	if len(a.Samples) != len(b.Samples) {
		t.Fatalf("%s: sample counts differ: %d vs %d", label, len(a.Samples), len(b.Samples))
	}
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			t.Fatalf("%s: sample %d differs:\n  %+v\n  %+v", label, i, a.Samples[i], b.Samples[i])
		}
	}
}

// restrict cuts r down to the satellites with catalogs in [lo, hi) and
// their samples, keeping r's order: what a chunk over that window returns.
func restrict(r *Result, lo, hi int) *Result {
	out := &Result{Start: r.Start, Hours: r.Hours}
	for _, s := range r.Sats {
		if s.Catalog >= lo && s.Catalog < hi {
			out.Sats = append(out.Sats, s)
		}
	}
	for _, s := range r.Samples {
		if int(s.Catalog) >= lo && int(s.Catalog) < hi {
			out.Samples = append(out.Samples, s)
		}
	}
	return out
}

// diffChunks runs every chunk of cfg at chunkSize and fails the test unless
// each equals want (Run's result) restricted to the chunk's catalog window
// and the chunks together create exactly want's satellites.
func diffChunks(t *testing.T, label string, cfg Config, weather *dst.Index, chunkSize int, want *Result) {
	t.Helper()
	plan, err := PlanChunks(cfg, chunkSize)
	if err != nil {
		t.Fatal(err)
	}
	created := 0
	for i := 0; i < plan.NumChunks(); i++ {
		got, err := plan.RunChunk(context.Background(), i, weather)
		if err != nil {
			t.Fatalf("%s chunk %d of size %d: %v", label, i, chunkSize, err)
		}
		lo, hi := plan.ChunkBounds(i)
		diffResults(t, fmt.Sprintf("%s chunk %d of size %d", label, i, chunkSize), restrict(want, plan.firstCat+lo, plan.firstCat+hi), got)
		created += len(got.Sats)
	}
	if created != len(want.Sats) {
		t.Fatalf("%s chunk size %d: chunks created %d satellites, Run %d", label, chunkSize, created, len(want.Sats))
	}
}

// chunkTestConfig exercises every creation path at once: an initial fleet
// spread over multiple shells, launches before/at/after the window start, a
// launch past the window end (never created), out-of-range shell indices,
// zero-means-default staging parameters, scripted events, and a storm to
// drive random safe-mode draws.
func chunkTestConfig(seed int64, hours int) Config {
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.Start = simStart
	cfg.Hours = hours
	cfg.InitialFleet = 37
	cfg.Launches = []Launch{
		{At: simStart.AddDate(0, 0, -3), Shell: 1, Count: 9},                        // before start: processed at hour 0
		{At: simStart, Shell: 0, Count: 11},                                         // at start
		{At: simStart.Add(30 * time.Minute), Shell: 2, Count: 5},                    // mid-hour: processed at hour 1
		{At: simStart.Add(72 * time.Hour), Shell: 99, Count: 7, StagingAltKm: 320},  // out-of-range shell -> 0
		{At: simStart.Add(200 * time.Hour), Shell: 3, Count: 6, StagingDays: 10},    // short checkout
		{At: simStart.Add(time.Duration(hours+5) * time.Hour), Shell: 0, Count: 50}, // after end: never created
		{At: simStart.Add(time.Duration(hours) * time.Hour), Shell: 0, Count: 8},    // exactly at end: never created
	}
	first := cfg.FirstCatalog
	if first == 0 {
		first = 44713
	}
	cfg.Scripted = []ScriptedEvent{
		{Catalog: first + 2, At: simStart.Add(100 * time.Hour), Action: ScriptSafeMode, DurationDays: 6},
		{Catalog: first + 40, At: simStart.Add(140 * time.Hour), Action: ScriptFail, DragFactor: 1.4},
		{Catalog: first + 50, At: simStart.Add(150 * time.Hour), Action: ScriptDeorbit},
	}
	return cfg
}

// TestRunChunkedEquivalence is the core partition-soundness proof: for every
// chunk size, each chunk reproduces Run restricted to its catalog window
// exactly, samples and ground truth both.
func TestRunChunkedEquivalence(t *testing.T) {
	hours := 24 * 20
	weather := stormIndex(hours, 24*10, -250)
	for _, seed := range []int64{7, 42} {
		cfg := chunkTestConfig(seed, hours)
		want, err := Run(context.Background(), cfg, weather)
		if err != nil {
			t.Fatal(err)
		}
		for _, chunkSize := range []int{1, 7, 16, 37, 64, 1000} {
			diffChunks(t, fmt.Sprintf("seed %d", seed), cfg, weather, chunkSize, want)
		}
	}
}

// TestRunChunkedResearchFleet covers the launch-cadence preset (no initial
// fleet, launches spread over the whole window).
func TestRunChunkedResearchFleet(t *testing.T) {
	start := simStart
	end := simStart.AddDate(0, 4, 0)
	cfg := ResearchFleet(3, start, end, 19)
	weather := stormIndex(cfg.Hours, cfg.Hours/2, -300)
	want, err := Run(context.Background(), cfg, weather)
	if err != nil {
		t.Fatal(err)
	}
	for _, chunkSize := range []int{13, 50} {
		diffChunks(t, "research", cfg, weather, chunkSize, want)
	}
}

// TestPlanChunksRoster checks the plan's accounting of the satellites the
// run creates: catalog contiguity, bounds arithmetic, and exclusion of
// never-processed launches.
func TestPlanChunksRoster(t *testing.T) {
	cfg := chunkTestConfig(1, 24*20)
	plan, err := PlanChunks(cfg, 16)
	if err != nil {
		t.Fatal(err)
	}
	// 37 initial + 9 + 11 + 5 + 7 + 6 launched; the two launches at/after the
	// window end never run.
	if want := 37 + 9 + 11 + 5 + 7 + 6; plan.TotalSats() != want {
		t.Fatalf("TotalSats = %d, want %d", plan.TotalSats(), want)
	}
	if got := plan.NumChunks(); got != (plan.TotalSats()+15)/16 {
		t.Fatalf("NumChunks = %d", got)
	}
	covered := 0
	for i := 0; i < plan.NumChunks(); i++ {
		lo, hi := plan.ChunkBounds(i)
		if lo != covered || hi <= lo || hi > plan.TotalSats() {
			t.Fatalf("chunk %d bounds [%d, %d) break coverage at %d", i, lo, hi, covered)
		}
		covered = hi
	}
	if covered != plan.TotalSats() {
		t.Fatalf("chunks cover %d of %d", covered, plan.TotalSats())
	}
	if !plan.Start().Equal(simStart) {
		t.Fatalf("Start = %v", plan.Start())
	}
}

// TestPlanChunksValidation covers the error paths, cancellation included.
func TestPlanChunksValidation(t *testing.T) {
	if _, err := PlanChunks(chunkTestConfig(1, 24), 0); err == nil {
		t.Error("chunk size 0 accepted")
	}
	bad := chunkTestConfig(1, 24)
	bad.Hours = 0
	if _, err := PlanChunks(bad, 16); err == nil {
		t.Error("Hours=0 accepted")
	}
	plan, err := PlanChunks(chunkTestConfig(1, 24), 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.RunChunk(context.Background(), -1, quietIndex(24)); err == nil {
		t.Error("negative chunk accepted")
	}
	if _, err := plan.RunChunk(context.Background(), plan.NumChunks(), quietIndex(24)); err == nil {
		t.Error("out-of-range chunk accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := plan.RunChunk(ctx, 0, quietIndex(24)); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled chunk: err = %v, want context.Canceled", err)
	}
}

// TestMegaFleetPreset sanity-checks the multi-constellation preset: all four
// constellations populated and every chunk equivalent to the direct run.
func TestMegaFleetPreset(t *testing.T) {
	cfg := MegaFleet(7, 600, simStart, 4)
	if got, want := len(cfg.Shells), len(StarlinkShells())+len(StarlinkGen2Shells())+len(KuiperShells())+len(OneWebShells()); got != want {
		t.Fatalf("MegaShells: %d shells, want %d", got, want)
	}
	weather := stormIndex(cfg.Hours, cfg.Hours/2, -350)
	want, err := Run(context.Background(), cfg, weather)
	if err != nil {
		t.Fatal(err)
	}
	perShell := make(map[int]int)
	for _, s := range want.Sats {
		perShell[s.Shell]++
	}
	for i := range cfg.Shells {
		if perShell[i] == 0 {
			t.Errorf("shell %d (%s) unpopulated", i, cfg.Shells[i].Name)
		}
	}
	diffChunks(t, "mega", cfg, weather, 128, want)
}

// TestRunChunkBytesPerSatellite is an exact memory gate on the simulator:
// one default-size chunk (4,096 satellites) of a week-long storm run
// allocates under 2 KiB per satellite. None of its streams draws often
// enough to fill a 4.9 KB register; seeded through rand.NewSource, the same
// chunk allocated about 9.9 KB per satellite.
func TestRunChunkBytesPerSatellite(t *testing.T) {
	const sats = 4096
	cfg := MegaFleet(42, sats, simStart, 7)
	plan, err := PlanChunks(cfg, sats)
	if err != nil {
		t.Fatal(err)
	}
	weather := stormIndex(cfg.Hours, cfg.Hours/4, -400)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := plan.RunChunk(context.Background(), 0, weather)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sats) != sats {
		t.Fatalf("chunk created %d satellites, want %d", len(res.Sats), sats)
	}
	perSat := float64(after.TotalAlloc-before.TotalAlloc) / sats
	t.Logf("%.0f B and %.2f allocations per satellite", perSat, float64(after.Mallocs-before.Mallocs)/sats)
	if perSat >= 2048 {
		t.Fatalf("RunChunk allocated %.0f B per satellite, want < 2048", perSat)
	}
}
