package cosmicdance_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"cosmicdance/internal/constellation"
	"cosmicdance/internal/dst"
	"cosmicdance/internal/obs"
	"cosmicdance/internal/spacetrack"
)

// The telemetry-overhead gate (scripts/obs_overhead.sh) compares each
// hot-path benchmark with metrics on against the COSMICDANCE_OBS=off
// floor. Off and on must run inside ONE process: separate processes
// differ in heap layout, GC schedule, and CPU frequency by far more
// than the 2% bound being enforced, while an in-process pair shares all
// of that state and its ratio isolates the instrumentation cost.
//
// SetEnabled(false) is the same mechanism the env kill switch uses
// (obs.Default flips the identical atomic bool at init), so the Off
// side measures exactly the floor the gate promises.
func withObs(b *testing.B, on bool, bench func(*testing.B)) {
	r := obs.Default()
	prev := r.Enabled()
	r.SetEnabled(on)
	defer r.SetEnabled(prev)
	bench(b)
}

// Each hot path gets an ABBA quartet — off, on, on, off in declaration
// (and therefore execution) order. The gate combines the two ratios of a
// quartet geometrically: any drift that is linear over the process
// window (heap growth, GC pacing, CPU frequency ramps) biases the AB
// pair and the BA pair in opposite directions and cancels exactly.
func BenchmarkFleetSimObsOff(b *testing.B)      { withObs(b, false, BenchmarkFleetSim) }
func BenchmarkFleetSimObsOn(b *testing.B)       { withObs(b, true, BenchmarkFleetSim) }
func BenchmarkFleetSimObsOnB(b *testing.B)      { withObs(b, true, BenchmarkFleetSim) }
func BenchmarkFleetSimObsOffB(b *testing.B)     { withObs(b, false, BenchmarkFleetSim) }
func BenchmarkDatasetBuildObsOff(b *testing.B)  { withObs(b, false, BenchmarkDatasetBuild) }
func BenchmarkDatasetBuildObsOn(b *testing.B)   { withObs(b, true, BenchmarkDatasetBuild) }
func BenchmarkDatasetBuildObsOnB(b *testing.B)  { withObs(b, true, BenchmarkDatasetBuild) }
func BenchmarkDatasetBuildObsOffB(b *testing.B) { withObs(b, false, BenchmarkDatasetBuild) }
func BenchmarkAssociateObsOff(b *testing.B)     { withObs(b, false, BenchmarkAssociate) }
func BenchmarkAssociateObsOn(b *testing.B)      { withObs(b, true, BenchmarkAssociate) }
func BenchmarkAssociateObsOnB(b *testing.B)     { withObs(b, true, BenchmarkAssociate) }
func BenchmarkAssociateObsOffB(b *testing.B)    { withObs(b, false, BenchmarkAssociate) }

// benchServeGroup measures the group-endpoint serving path. The wired
// variant carries the full serving-plane observability config — a
// client-minted Cosmic-Trace header, request spans, flight-recorder
// events, SLO accounting, latency exemplars — so its quartet bounds the
// whole plane against a bare server, not just the counter writes.
func benchServeGroup(b *testing.B, wired bool) {
	b.ReportAllocs()
	start := time.Date(2023, 1, 1, 0, 0, 0, 0, time.UTC)
	ccfg := constellation.DefaultConfig()
	ccfg.Start = start
	ccfg.Hours = 5 * 24
	ccfg.InitialFleet = 100
	ccfg.GrossErrorProb = 0
	ccfg.DecommissionPerYear = 0
	vals := make([]float64, ccfg.Hours)
	for i := range vals {
		vals[i] = -10
	}
	res, err := constellation.Run(context.Background(), ccfg, dst.FromValues(start, vals))
	if err != nil {
		b.Fatal(err)
	}
	end := start.Add(time.Duration(ccfg.Hours) * time.Hour)
	srv := spacetrack.NewServer(spacetrack.NewCatalog(spacetrack.NewResultArchive("starlink", res), end), end)
	srv.Now = func() time.Time { return end }
	var stream *obs.IDStream
	if wired {
		srv.Trace = obs.NewIDStream(42, 0)
		srv.Flight = obs.NewFlightRecorder(1024, srv.Now)
		srv.SLO = obs.NewSLOTracker(nil, obs.DefaultObjectives(), srv.Now)
		stream = obs.NewIDStream(42, 1)
	}
	h := srv.Handler()
	const path = "/NORAD/elements/gp.php?GROUP=starlink&FORMAT=tle"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		if stream != nil {
			req.Header.Set(obs.TraceHeader, stream.Next().String())
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d", rec.Code)
		}
	}
}

func BenchmarkServeGroupObsOff(b *testing.B) {
	withObs(b, false, func(b *testing.B) { benchServeGroup(b, false) })
}
func BenchmarkServeGroupObsOn(b *testing.B) {
	withObs(b, true, func(b *testing.B) { benchServeGroup(b, true) })
}
func BenchmarkServeGroupObsOnB(b *testing.B) {
	withObs(b, true, func(b *testing.B) { benchServeGroup(b, true) })
}
func BenchmarkServeGroupObsOffB(b *testing.B) {
	withObs(b, false, func(b *testing.B) { benchServeGroup(b, false) })
}
