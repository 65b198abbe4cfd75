package cosmicdance_test

import (
	"context"
	"fmt"
	"time"

	"cosmicdance"
)

// Example is the README's Quickstart: the paper's weather and fleet, the
// cleaned dataset, and the orbital shifts closely after high-intensity
// storms. It has no Output line, so go test compiles it without running the
// 4.5-year simulation.
func Example() {
	ctx := context.Background()
	weather, _ := cosmicdance.PaperWeather()
	fleet, _ := cosmicdance.PaperConstellation(ctx, weather, 42)
	dataset, _ := cosmicdance.NewDataset(ctx, weather, fleet)

	events, _ := dataset.EventsAbovePercentile(95, 1, 0)
	shifts := dataset.Associate(ctx, events, 30)
	cdf, _ := cosmicdance.DeviationCDF(shifts)
	fmt.Printf("p99 orbital shift after storms: %.1f km (max %.0f km)\n",
		cdf.Quantile(0.99), cdf.Max())
}

// ExampleParseTLE decodes a published element set and derives the quantity
// the paper's analysis runs on: the altitude implied by the mean motion.
func ExampleParseTLE() {
	tle, err := cosmicdance.ParseTLE(
		"1 25544U 98067A   08264.51782528 -.00002182  00000-0 -11606-4 0  2927",
		"2 25544  51.6416 247.4627 0006703 130.5360 325.0288 15.72125391563537",
	)
	if err != nil {
		panic(err)
	}
	fmt.Printf("catalog %d at %.0f km, inclination %.1f deg\n",
		tle.CatalogNumber, float64(tle.Altitude()), float64(tle.Inclination))
	// Output: catalog 25544 at 360 km, inclination 51.6 deg
}

// ExampleNewTriggerEngine replays a storm through the trigger engine the way
// a LEOScope integration would consume CosmicDance signals.
func ExampleNewTriggerEngine() {
	engine, err := cosmicdance.NewTriggerEngine(cosmicdance.StormThreshold, -30)
	if err != nil {
		panic(err)
	}
	engine.Subscribe(func(ev cosmicdance.TriggerEvent) {
		fmt.Printf("%s at %s (%v)\n", ev.Kind, ev.At.Format("15:04"), ev.Category)
	})
	t0 := time.Date(2024, 5, 10, 20, 0, 0, 0, time.UTC)
	for i, reading := range []cosmicdance.NanoTesla{-20, -60, -250, -412, -150, -25} {
		engine.Feed(t0.Add(time.Duration(i)*time.Hour), reading)
	}
	// Output:
	// onset at 21:00 (G1 (minor))
	// escalation at 22:00 (G4 (severe))
	// escalation at 23:00 (G5 (extreme))
	// cleared at 01:00 (G5 (extreme))
}

// ExampleGenerateWeather builds a small custom scenario and detects its
// storm.
func ExampleGenerateWeather() {
	start := time.Date(2023, 1, 1, 0, 0, 0, 0, time.UTC)
	weather, err := cosmicdance.GenerateWeather(cosmicdance.WeatherConfig{
		Start: start, Hours: 30 * 24, Seed: 1,
		QuietMean: -11, QuietStd: 6, QuietRho: 0.9,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println(weather.Len(), "hours generated")
	// Output: 720 hours generated
}
