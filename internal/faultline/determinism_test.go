package faultline

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	"cosmicdance/internal/constellation"
	"cosmicdance/internal/core"
	"cosmicdance/internal/dst"
	"cosmicdance/internal/spacetrack"
	"cosmicdance/internal/testkit"
)

// The headline suite: for every builtin fault schedule, the full ingest
// pipeline (FetchGroup → FetchHistories → Builder.AddTLEs → storm
// analysis) must produce a dataset and deviation list identical to the
// fault-free run. Faults may slow ingest; they may never change science.

var detStart = time.Date(2023, 1, 1, 0, 0, 0, 0, time.UTC)

// detWorld builds the simulated world the suite ingests: 45 days of weather
// with one sharp storm at day 20 noon, and a small fleet flown through it.
func detWorld(t *testing.T) (*spacetrack.Catalog, *dst.Index, time.Time) {
	t.Helper()
	days := 45
	vals := make([]float64, days*24)
	for i := range vals {
		vals[i] = -12
	}
	onset := 20*24 + 12
	for k := 0; k < 10; k++ {
		vals[onset+k] = -180
	}
	weather := dst.FromValues(detStart, vals)

	cfg := constellation.DefaultConfig()
	cfg.Start = detStart
	cfg.Hours = days * 24
	cfg.InitialFleet = 12
	cfg.GrossErrorProb = 0
	cfg.DecommissionPerYear = 0
	res, err := constellation.Run(context.Background(), cfg, weather)
	if err != nil {
		t.Fatal(err)
	}
	end := detStart.Add(time.Duration(cfg.Hours) * time.Hour)
	return spacetrack.NewCatalog(spacetrack.NewResultArchive("starlink", res), end), weather, end
}

// ingestResult is everything the pipeline produces that science depends on.
type ingestResult struct {
	dataset    *core.Dataset
	deviations []core.Deviation
	onsets     int
}

// ingest runs the paper's ingest workflow against the handler and analyses
// the result. Sequential fetching (workers=1) keeps retry attempts adjacent
// on the injector's request counter, so MaxConsecutiveFaults bounds the
// retry budget a schedule demands.
func ingest(t *testing.T, handler http.Handler, weather *dst.Index, end time.Time) (*ingestResult, error) {
	t.Helper()
	ts := httptest.NewServer(handler)
	defer ts.Close()
	client, err := spacetrack.NewClient(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	client.MaxRetries = 8
	client.Seed = 7
	clock := testkit.NewClock(detStart)
	client.Sleep = clock.Sleep

	ctx := context.Background()
	latest, err := client.FetchGroup(ctx, "starlink")
	if err != nil {
		return nil, err
	}
	cats := spacetrack.CatalogNumbers(latest)
	results, err := spacetrack.FetchHistories(ctx, client, cats, detStart, end, 1)
	if err != nil {
		return nil, err
	}
	if fails := spacetrack.Failures(results); len(fails) > 0 {
		return nil, fails[0]
	}
	b := core.NewBuilder(core.DefaultConfig(), weather)
	for _, r := range results {
		b.AddTLEs(r.Sets)
	}
	d, err := b.Build(context.Background())
	if err != nil {
		return nil, err
	}
	events, err := d.EventsAbovePercentile(95, 1, 0)
	if err != nil {
		return nil, err
	}
	return &ingestResult{
		dataset:    d,
		deviations: d.Associate(context.Background(), events, 14),
		onsets:     len(d.DecayOnsets(20)),
	}, nil
}

func TestIngestDeterministicUnderEveryBuiltinSchedule(t *testing.T) {
	archive, weather, end := detWorld(t)
	inner := spacetrack.NewServer(archive, end).Handler()

	base, err := ingest(t, inner, weather, end)
	if err != nil {
		t.Fatalf("fault-free ingest: %v", err)
	}
	if len(base.dataset.Tracks()) == 0 {
		t.Fatal("fault-free ingest produced no tracks")
	}

	names := make([]string, 0, len(Builtin()))
	for name := range Builtin() {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		sched := Builtin()[name]
		t.Run(name, func(t *testing.T) {
			in := New(inner, sched, 42)
			got, err := ingest(t, in, weather, end)
			if err != nil {
				t.Fatalf("ingest under %q (%s): %v", name, sched, err)
			}
			if diff := testkit.DiffDatasets(base.dataset, got.dataset); diff != "" {
				t.Fatalf("dataset under %q diverged:\n%s", name, diff)
			}
			if diff := testkit.DiffDeviations(base.deviations, got.deviations); diff != "" {
				t.Fatalf("deviations under %q diverged:\n%s", name, diff)
			}
			if got.onsets != base.onsets {
				t.Fatalf("decay onsets under %q: %d, want %d", name, got.onsets, base.onsets)
			}
			if name != "latency" && in.Stats()[Latency] == 0 && len(in.Stats()) == 0 {
				t.Fatalf("schedule %q injected nothing — vacuous pass", name)
			}
		})
	}
}

// TestPermanentFailureIsTypedUnderFaults: when one catalog is permanently
// gone, a faulty network must not blur that into a silent omission — the
// bulk fetch surfaces a typed per-catalog error naming it.
func TestPermanentFailureIsTypedUnderFaults(t *testing.T) {
	archive, _, end := detWorld(t)
	inner := spacetrack.NewServer(archive, end).Handler()
	broken := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("catalog") == "44715" {
			http.Error(w, "deorbited, records purged", http.StatusNotFound)
			return
		}
		inner.ServeHTTP(w, r)
	})
	in := New(broken, Builtin()["everything"], 42)
	ts := httptest.NewServer(in)
	defer ts.Close()
	client, err := spacetrack.NewClient(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	client.MaxRetries = 8
	client.Sleep = testkit.NewClock(detStart).Sleep

	ctx := context.Background()
	latest, err := client.FetchGroup(ctx, "starlink")
	if err != nil {
		t.Fatal(err)
	}
	results, err := spacetrack.FetchHistories(ctx, client, spacetrack.CatalogNumbers(latest), detStart, end, 1)
	if err != nil {
		t.Fatal(err)
	}
	fails := spacetrack.Failures(results)
	if len(fails) != 1 || fails[0].Catalog != 44715 {
		t.Fatalf("Failures = %v, want exactly catalog 44715", fails)
	}
	var se *spacetrack.StatusError
	if !errors.As(fails[0], &se) || se.Code != http.StatusNotFound {
		t.Fatalf("failure = %v, want a wrapped 404", fails[0])
	}
	for _, r := range results {
		if r.Catalog != 44715 && (r.Err != nil || len(r.Sets) == 0) {
			t.Fatalf("healthy catalog %d degraded: err=%v sets=%d", r.Catalog, r.Err, len(r.Sets))
		}
	}
}
