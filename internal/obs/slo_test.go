package obs_test

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"cosmicdance/internal/obs"
	"cosmicdance/internal/testkit"
)

func TestParseObjectives(t *testing.T) {
	objs, err := obs.ParseObjectives("group:99:400,ingest:99.5:500:10m")
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 2 {
		t.Fatalf("parsed %d objectives", len(objs))
	}
	if objs[0].Endpoint != "group" || objs[0].Availability != 0.99 || objs[0].LatencyP99Ms != 400 || objs[0].Window != 5*time.Minute {
		t.Fatalf("objs[0] = %+v", objs[0])
	}
	if objs[1].Availability != 0.995 || objs[1].Window != 10*time.Minute {
		t.Fatalf("objs[1] = %+v", objs[1])
	}

	for _, bad := range []string{
		"",
		"group",
		"group:99",
		"group:0:400",
		"group:100:400",
		"group:x:400",
		"group:99:0",
		"group:99:400:nope",
		"group:99:400:-5m",
		"group:99:400:5m:extra",
	} {
		if _, err := obs.ParseObjectives(bad); err == nil {
			t.Fatalf("ParseObjectives(%q) accepted", bad)
		}
	}
}

func TestDefaultObjectivesConstruct(t *testing.T) {
	clock := testkit.NewClock(time.Unix(0, 0).UTC())
	tr := obs.NewSLOTracker(obs.NewRegistry(), obs.DefaultObjectives(), clock.Now)
	if got := len(tr.Report()); got != 3 {
		t.Fatalf("default objectives report %d endpoints, want 3", got)
	}
}

// TestSLOBurnRate pins the burn-rate math: with a 99% availability target
// the error budget is 1%, so a 5% in-window error rate burns 5×.
func TestSLOBurnRate(t *testing.T) {
	clock := testkit.NewClock(time.Unix(0, 0).UTC())
	tr := obs.NewSLOTracker(nil, []obs.Objective{
		{Endpoint: "group", Availability: 0.99, LatencyP99Ms: 100, Window: time.Minute},
	}, clock.Now)
	for i := 0; i < 100; i++ {
		clock.Advance(time.Millisecond)
		tr.Record("group", 10*time.Millisecond, i < 5)
	}
	tr.Record("unknown", time.Second, true) // no objective: dropped

	rep := tr.Report()
	if len(rep) != 1 {
		t.Fatalf("report has %d entries", len(rep))
	}
	r := rep[0]
	if r.Ops != 100 || r.Errors != 5 {
		t.Fatalf("ops/errors = %d/%d", r.Ops, r.Errors)
	}
	if r.ErrorRate != 0.05 || r.BurnRate != 5 {
		t.Fatalf("error rate %v, burn %v; want 0.05, 5", r.ErrorRate, r.BurnRate)
	}
	if r.P50Ms != 10 || r.P99Ms != 10 {
		t.Fatalf("p50 %v p99 %v", r.P50Ms, r.P99Ms)
	}
	if r.AvailabilityPass || !r.LatencyPass || r.Verdict != "fail" {
		t.Fatalf("verdict %+v", r)
	}
}

// TestSLOWindowSlides pins the sliding window: errors older than the window
// stop burning budget, while lifetime Ops/Errors keep counting.
func TestSLOWindowSlides(t *testing.T) {
	clock := testkit.NewClock(time.Unix(0, 0).UTC())
	tr := obs.NewSLOTracker(nil, []obs.Objective{
		{Endpoint: "group", Availability: 0.99, LatencyP99Ms: 100, Window: time.Minute},
	}, clock.Now)
	for i := 0; i < 10; i++ {
		tr.Record("group", 5*time.Millisecond, true) // a burst of failures at t=0
	}
	clock.Advance(2 * time.Minute) // the burst ages out
	for i := 0; i < 10; i++ {
		tr.Record("group", 5*time.Millisecond, false)
	}
	r := tr.Report()[0]
	if r.Ops != 20 || r.Errors != 10 {
		t.Fatalf("lifetime ops/errors = %d/%d, want 20/10", r.Ops, r.Errors)
	}
	if r.BurnRate != 0 || r.Verdict != "pass" {
		t.Fatalf("aged-out burst still burning: %+v", r)
	}
}

func TestSLOLatencyVerdict(t *testing.T) {
	clock := testkit.NewClock(time.Unix(0, 0).UTC())
	tr := obs.NewSLOTracker(nil, []obs.Objective{
		{Endpoint: "group", Availability: 0.99, LatencyP99Ms: 50, Window: time.Minute},
	}, clock.Now)
	for i := 0; i < 98; i++ {
		tr.Record("group", 10*time.Millisecond, false)
	}
	// Two stragglers: nearest-rank p99 of 100 samples reads the 99th
	// smallest, so a single outlier would hide below the rank.
	tr.Record("group", 500*time.Millisecond, false)
	tr.Record("group", 500*time.Millisecond, false)
	r := tr.Report()[0]
	if r.P50Ms != 10 || r.P99Ms != 500 {
		t.Fatalf("p50 %v p99 %v", r.P50Ms, r.P99Ms)
	}
	if !r.AvailabilityPass || r.LatencyPass || r.Verdict != "fail" {
		t.Fatalf("verdict %+v", r)
	}
}

func TestSLOPublishGauges(t *testing.T) {
	clock := testkit.NewClock(time.Unix(0, 0).UTC())
	reg := obs.NewRegistry()
	tr := obs.NewSLOTracker(reg, []obs.Objective{
		{Endpoint: "group", Availability: 0.99, LatencyP99Ms: 100, Window: time.Minute},
	}, clock.Now)
	for i := 0; i < 10; i++ {
		tr.Record("group", 20*time.Millisecond, i == 0)
	}
	tr.Publish()
	if got := reg.Gauge("spacetrack_slo_burn_rate", "endpoint", "group").Value(); got != 10 {
		t.Fatalf("burn gauge %v, want 10", got)
	}
	if got := reg.Gauge("spacetrack_slo_p99_ms", "endpoint", "group").Value(); got != 20 {
		t.Fatalf("p99 gauge %v, want 20", got)
	}
	if got := reg.Gauge("spacetrack_slo_pass", "endpoint", "group").Value(); got != 0 {
		t.Fatalf("pass gauge %v, want 0", got)
	}
}

func TestSLOTrackerNilSafe(t *testing.T) {
	var tr *obs.SLOTracker
	tr.Record("group", time.Second, true)
	tr.Publish()
	if tr.Report() != nil {
		t.Fatal("nil tracker reported")
	}
}

func TestSLOTrackerRejectsBadObjectives(t *testing.T) {
	clock := testkit.NewClock(time.Unix(0, 0).UTC())
	for name, objs := range map[string][]obs.Objective{
		"empty endpoint":  {{Endpoint: "", Availability: 0.99, LatencyP99Ms: 1, Window: time.Minute}},
		"availability=1":  {{Endpoint: "g", Availability: 1, LatencyP99Ms: 1, Window: time.Minute}},
		"zero p99 target": {{Endpoint: "g", Availability: 0.99, LatencyP99Ms: 0, Window: time.Minute}},
		"zero window":     {{Endpoint: "g", Availability: 0.99, LatencyP99Ms: 1, Window: 0}},
		"duplicate": {
			{Endpoint: "g", Availability: 0.99, LatencyP99Ms: 1, Window: time.Minute},
			{Endpoint: "g", Availability: 0.98, LatencyP99Ms: 2, Window: time.Minute},
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			obs.NewSLOTracker(nil, objs, clock.Now)
		}()
	}
	defer func() {
		if recover() == nil {
			t.Error("nil clock did not panic")
		}
	}()
	obs.NewSLOTracker(nil, obs.DefaultObjectives(), nil)
}

// TestSLOReportMatchesNaiveWindow records a seeded mix of latencies and
// failures across several windows, on a test clock that sometimes stands
// still and sometimes jumps past a whole window, and compares every Report
// field with a recomputation over the recorded samples inside the window.
func TestSLOReportMatchesNaiveWindow(t *testing.T) {
	obj := obs.Objective{Endpoint: "group", Availability: 0.99, LatencyP99Ms: 50, Window: time.Minute}
	clock := testkit.NewClock(time.Unix(0, 0).UTC())
	tr := obs.NewSLOTracker(nil, []obs.Objective{obj}, clock.Now)
	type sample struct {
		at     time.Time
		ms     float64
		failed bool
	}
	var all []sample
	rng := rand.New(rand.NewSource(7))
	check := func() {
		t.Helper()
		now := clock.Now()
		want := obs.SLOResult{Endpoint: obj.Endpoint, P99TargetMs: obj.LatencyP99Ms}
		var lats []float64
		errs := 0
		for _, s := range all {
			want.Ops++
			if s.failed {
				want.Errors++
			}
			if s.at.After(now.Add(-obj.Window)) {
				lats = append(lats, s.ms)
				if s.failed {
					errs++
				}
			}
		}
		nearestRank := func(p float64) float64 {
			return lats[max(1, min(len(lats), int(math.Ceil(p*float64(len(lats))))))-1]
		}
		round := func(v float64) float64 { return math.Round(v*1000) / 1000 }
		if n := len(lats); n > 0 {
			sort.Float64s(lats)
			rate := float64(errs) / float64(n)
			want.ErrorRate = round(rate)
			want.BurnRate = round(rate / (1 - obj.Availability))
			want.P50Ms = round(nearestRank(0.50))
			want.P99Ms = round(nearestRank(0.99))
		}
		want.AvailabilityPass = want.BurnRate <= 1
		want.LatencyPass = want.P99Ms <= obj.LatencyP99Ms
		want.Verdict = "fail"
		if want.AvailabilityPass && want.LatencyPass {
			want.Verdict = "pass"
		}
		if got := tr.Report(); len(got) != 1 || got[0] != want {
			t.Fatalf("after %d samples at %v: Report = %+v, want %+v", len(all), now, got, want)
		}
	}
	windows := 0
	for i := 0; i < 20000; i++ {
		switch r := rng.Intn(1000); {
		case r == 0:
			clock.Advance(obj.Window + time.Duration(rng.Intn(1000))*time.Millisecond)
			windows++
		case r < 100:
			// The clock stands still: several samples share an instant.
		default:
			clock.Advance(time.Duration(rng.Intn(40)) * time.Millisecond)
		}
		latency := time.Duration(rng.ExpFloat64() * float64(15*time.Millisecond))
		failed := rng.Intn(100) < 2
		tr.Record(obj.Endpoint, latency, failed)
		all = append(all, sample{clock.Now(), float64(latency) / float64(time.Millisecond), failed})
		if i%97 == 0 {
			check()
		}
	}
	check()
	clock.Advance(obj.Window) // every sample expires
	check()
	if span := clock.Now().Sub(time.Unix(0, 0)); span < 5*obj.Window || windows == 0 {
		t.Fatalf("the run spanned %v with %d jumps, want several windows", span, windows)
	}
}

// BenchmarkSLORecordFullWindow times Record once the default 5-minute
// window is full: 300,000 samples at 1 ms spacing, so every Record expires
// one sample.
func BenchmarkSLORecordFullWindow(b *testing.B) {
	clock := testkit.NewClock(time.Unix(0, 0).UTC())
	tr := obs.NewSLOTracker(nil, obs.DefaultObjectives(), clock.Now)
	for i := 0; i < 300000; i++ {
		clock.Advance(time.Millisecond)
		tr.Record("group", 10*time.Millisecond, false)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clock.Advance(time.Millisecond)
		tr.Record("group", 10*time.Millisecond, false)
	}
}
