package scale

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"cosmicdance/internal/artifact"
	"cosmicdance/internal/testkit"
)

func testSpec() Spec {
	return Spec{Sats: 300, Days: 3, Seed: 7, ChunkSize: 64, Parallelism: 1}
}

func runReport(t *testing.T, spec Spec) string {
	t.Helper()
	rep, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := rep.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestReportInvariantUnderExecutionShape is the harness-level equivalence
// gate: the report must be identical across chunk sizes, worker widths, and
// segment stores (in-memory, persistent cache).
func TestReportInvariantUnderExecutionShape(t *testing.T) {
	ref := runReport(t, testSpec())
	if !strings.Contains(ref, "digest ") || strings.Contains(ref, "digest \n") {
		t.Fatalf("reference report has no digest:\n%s", ref)
	}

	variants := map[string]Spec{}
	for _, chunk := range []int{13, 100, 1000} {
		s := testSpec()
		s.ChunkSize = chunk
		variants[fmt.Sprintf("chunk-%d", chunk)] = s
	}
	wide := testSpec()
	wide.Parallelism = 8
	variants["width-8"] = wide
	cached := testSpec()
	cached.CacheDir = t.TempDir()
	variants["cache"] = cached

	for name, s := range variants {
		if got := runReport(t, s); got != ref {
			t.Fatalf("%s: report differs from reference\n--- got ---\n%s--- want ---\n%s", name, got, ref)
		}
	}
	// A warm cache rerun must also reproduce the report exactly.
	if got := runReport(t, cached); got != ref {
		t.Fatal("warm cached report differs from reference")
	}
}

// TestReportGolden pins the report of `cosmicdance scale -sats 2000 -days 7
// -seed 42` byte for byte. A week-long run draws so little from each
// satellite's random stream that no stream ever fills its register, a path
// the figures golden barely reaches (most of the paper fleet's streams
// fill theirs). Regenerate with -update only after an intended change to
// simulated output.
func TestReportGolden(t *testing.T) {
	got := runReport(t, Spec{Sats: 2000, Days: 7, Seed: 42})
	testkit.Golden(t, "scale_sats2000_days7_seed42.golden", []byte(got))
}

// TestReportSeedSensitivity guards against a degenerate digest: different
// inputs must move the report.
func TestReportSeedSensitivity(t *testing.T) {
	a := runReport(t, testSpec())
	s := testSpec()
	s.Seed = 42
	if b := runReport(t, s); a == b {
		t.Fatal("reports identical across seeds")
	}
}

// TestReportMatchesMaterializedDataset cross-checks the streaming reduction
// against the monolithic path: building the full dataset and analyzing it
// with the Dataset methods must yield the same counts and extrema.
func TestReportMatchesMaterializedDataset(t *testing.T) {
	spec := testSpec()
	rep, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}

	pipe := artifact.NewPipeline(nil)
	d, err := pipe.Dataset(context.Background(), WeatherConfig(spec), FleetConfig(spec), CoreConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tracks != len(d.Tracks()) {
		t.Fatalf("tracks %d, dataset has %d", rep.Tracks, len(d.Tracks()))
	}
	if rep.Stats != d.Cleaning() {
		t.Fatalf("stats %+v, dataset has %+v", rep.Stats, d.Cleaning())
	}
	events, err := d.EventsAbovePercentile(eventPercentile, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Events != len(events) {
		t.Fatalf("events %d, dataset has %d", rep.Events, len(events))
	}
	if rep.Events == 0 {
		t.Fatal("scale scenario produced no high-intensity events")
	}
	devs := d.Associate(context.Background(), events, windowDays)
	if rep.Deviations != len(devs) {
		t.Fatalf("deviations %d, dataset has %d", rep.Deviations, len(devs))
	}
	maxDev := 0.0
	for _, dv := range devs {
		maxDev = math.Max(maxDev, dv.MaxDevKm)
	}
	if rep.MaxDevKm != maxDev {
		t.Fatalf("max dev %v, dataset has %v", rep.MaxDevKm, maxDev)
	}
	onsets := d.DecayOnsets(minDropKm)
	if rep.Onsets != len(onsets) {
		t.Fatalf("onsets %d, dataset has %d", rep.Onsets, len(onsets))
	}
	raw := d.Partial().RawAlts
	if rep.RawCount != int64(len(raw)) {
		t.Fatalf("raw count %d, dataset has %d", rep.RawCount, len(raw))
	}
	var sum uint64
	mn, mx := math.Inf(1), math.Inf(-1)
	for _, v := range raw {
		sum += math.Float64bits(v)
		mn, mx = math.Min(mn, v), math.Max(mx, v)
	}
	if rep.RawSumBits != sum || rep.RawMin != mn || rep.RawMax != mx {
		t.Fatal("raw-altitude aggregates disagree with the materialized dataset")
	}
}

// TestRunValidation rejects nonsensical specs.
func TestRunValidation(t *testing.T) {
	if _, err := Run(context.Background(), Spec{Sats: 0, Days: 2}); err == nil {
		t.Fatal("Sats=0 accepted")
	}
	if _, err := Run(context.Background(), Spec{Sats: 10, Days: 0}); err == nil {
		t.Fatal("Days=0 accepted")
	}
}

// TestPeakRSSBytes sanity-checks the /proc reader on Linux.
func TestPeakRSSBytes(t *testing.T) {
	n, ok := PeakRSSBytes()
	if !ok {
		t.Skip("no /proc/self/status on this platform")
	}
	if n <= 0 {
		t.Fatalf("peak RSS %d", n)
	}
}
