package cosmicdance

// Substrate micro-benchmarks: the hot paths a production deployment cares
// about (TLE codec throughput, storm detection, time-series merge, and raw
// simulator speed).

import (
	"context"
	"testing"
	"time"

	"cosmicdance/internal/constellation"
	"cosmicdance/internal/dst"
	"cosmicdance/internal/tle"
	"cosmicdance/internal/units"
)

const (
	benchLine1 = "1 25544U 98067A   08264.51782528 -.00002182  00000-0 -11606-4 0  2927"
	benchLine2 = "2 25544  51.6416 247.4627 0006703 130.5360 325.0288 15.72125391563537"
)

func BenchmarkTLEParse(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := tle.Parse(benchLine1, benchLine2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTLEFormat(b *testing.B) {
	t, err := tle.Parse(benchLine1, benchLine2)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := t.Format(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWDCRecordRoundTrip(b *testing.B) {
	r := &dst.Record{Year: 2024, Month: time.May, Day: 11, Version: 2}
	for h := range r.Hourly {
		r.Hourly[h] = -float64(h * 15)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		line, err := r.Format()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := dst.ParseRecord(line); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStormDetection(b *testing.B) {
	weather := BenchPaperWeather(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if storms := weather.Storms(units.StormThreshold); len(storms) == 0 {
			b.Fatal("no storms")
		}
	}
}

// BenchmarkConstellationYear measures raw simulator throughput: 100
// satellites through one quiet year of hourly steps.
func BenchmarkConstellationYear(b *testing.B) {
	start := time.Date(2023, 1, 1, 0, 0, 0, 0, time.UTC)
	vals := make([]float64, 365*24)
	for i := range vals {
		vals[i] = -10
	}
	weather := dst.FromValues(start, vals)
	cfg := constellation.DefaultConfig()
	cfg.Start = start
	cfg.Hours = len(vals)
	cfg.InitialFleet = 100
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		if _, err := constellation.Run(context.Background(), cfg, weather); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cfg.Hours)*100, "sat-hours/op")
}

// BenchmarkPipelineBuild measures the cleaning stage over the full paper
// archive (~3 M observations).
func BenchmarkPipelineBuild(b *testing.B) {
	weather, fleet, _ := paperFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		builder := NewBuilder(DefaultPipelineConfig(), weather)
		builder.AddSamples(fleet.Samples)
		if _, err := builder.Build(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(fleet.Samples)), "observations/op")
}
