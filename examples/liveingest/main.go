// Liveingest: the complete CosmicDance deployment loop, over the wire.
//
// The paper's tool runs against two public HTTP services: WDC Kyoto for the
// hourly Dst index and CelesTrak/Space-Track for TLEs. This example stands
// up both simulated services in-process and then runs the exact ingest the
// paper describes:
//
//  1. fetch the Dst index incrementally from the WDC service,
//
//  2. fetch the current catalog once to learn the catalog numbers,
//
//  3. pull each object's history through the on-disk incremental cache,
//
//  4. build the pipeline and print the happens-closely-after analysis.
//
//     go run ./examples/liveingest
//
// Pass -faults to degrade the tracking service with a deterministic fault
// schedule (see internal/faultline) and watch the same ingest succeed anyway:
//
//	go run ./examples/liveingest -faults '429:2/5,503:1/7,truncate:1/6,corrupt:1/9'
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"cosmicdance/internal/constellation"
	"cosmicdance/internal/core"
	"cosmicdance/internal/faultline"
	"cosmicdance/internal/spacetrack"
	"cosmicdance/internal/spaceweather"
	"cosmicdance/internal/wdc"
)

func main() {
	faults := flag.String("faults", "", "fault schedule for the tracking service, e.g. '429:2/5,truncate:1/6'")
	flag.Parse()
	sched, err := faultline.ParseSchedule(*faults)
	if err != nil {
		log.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// --- The "remote" side: simulated upstream services. -----------------
	weather, err := spaceweather.Generate(spaceweather.May2024())
	if err != nil {
		log.Fatal(err)
	}
	fleetCfg := constellation.May2024Fleet(7)
	fleetCfg.InitialFleet = 120
	fleet, err := constellation.Run(ctx, fleetCfg, weather)
	if err != nil {
		log.Fatal(err)
	}
	wdcServer := httptest.NewServer(wdc.NewServer(weather).Handler())
	defer wdcServer.Close()
	end := fleet.Start.Add(time.Duration(fleet.Hours) * time.Hour)
	catalog := spacetrack.NewCatalog(spacetrack.NewResultArchive("starlink", fleet), end)
	var trackHandler http.Handler = spacetrack.NewServer(catalog, end).Handler()
	var injector *faultline.Injector
	if len(sched.Rules) > 0 {
		injector = faultline.New(trackHandler, sched, 42)
		trackHandler = injector
		fmt.Printf("liveingest: degrading tracking service with %s (worst case %d consecutive faults)\n",
			sched, sched.MaxConsecutiveFaults())
	}
	trackServer := httptest.NewServer(trackHandler)
	defer trackServer.Close()

	// --- The "local" side: CosmicDance's ingest, exactly as deployed. ----
	// 1. Dst, incrementally: first half of the month, then the rest.
	wdcClient, err := wdc.NewClient(wdcServer.URL, wdcServer.Client())
	if err != nil {
		log.Fatal(err)
	}
	from := weather.Start()
	local, err := wdcClient.FetchIncremental(ctx, nil, from, from.AddDate(0, 0, 15))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("liveingest: fetched %d Dst hours (first increment)\n", local.Len())
	local, err = wdcClient.FetchIncremental(ctx, local, from, weather.End())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("liveingest: extended to %d Dst hours\n", local.Len())

	// 2. Catalog numbers, once.
	stClient, err := spacetrack.NewClient(trackServer.URL, trackServer.Client())
	if err != nil {
		log.Fatal(err)
	}
	if injector != nil {
		// Give the retry loop room to outlast the worst burst the schedule
		// can produce, with margin for back-to-back rule overlaps.
		if budget := 2*sched.MaxConsecutiveFaults() + 2; budget > stClient.MaxRetries {
			stClient.MaxRetries = budget
		}
	}
	current, err := stClient.FetchGroup(ctx, "starlink")
	if err != nil {
		log.Fatal(err)
	}
	numbers := spacetrack.CatalogNumbers(current)
	fmt.Printf("liveingest: current catalog has %d satellites\n", len(numbers))

	// 3. Per-object history through the incremental on-disk cache.
	cacheDir, err := os.MkdirTemp("", "cosmicdance-cache-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(cacheDir)
	fetcher, err := spacetrack.NewCachingFetcher(stClient, cacheDir)
	if err != nil {
		log.Fatal(err)
	}
	builder := core.NewBuilder(core.DefaultConfig(), local)
	total := 0
	for _, n := range numbers {
		history, err := fetcher.History(ctx, n, local.Start(), local.End())
		if err != nil {
			log.Fatalf("history for %d: %v", n, err)
		}
		builder.AddTLEs(history)
		total += len(history)
	}
	fmt.Printf("liveingest: cached %d historical element sets in %s\n", total, cacheDir)

	// 4. The pipeline.
	dataset, err := builder.Build(ctx)
	if err != nil {
		log.Fatal(err)
	}
	events, err := dataset.EventsAbovePercentile(95, 1, 0)
	if err != nil {
		log.Fatal(err)
	}
	devs := dataset.Associate(ctx, events, 14)
	cdf, err := core.DeviationCDF(devs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%d tracks, %d high-intensity events, %d associations\n",
		len(dataset.Tracks()), len(events), len(devs))
	fmt.Printf("altitude change within 14 days: median %.2f km, p99 %.2f km, max %.1f km\n",
		cdf.Quantile(0.5), cdf.Quantile(0.99), cdf.Max())
	min, at := local.Min()
	fmt.Printf("driving event: %v at %s\n", min, at.Format("2006-01-02 15:04"))
	if injector != nil {
		fmt.Printf("faults survived: %s over %d requests\n", injector.Summary(), injector.Requests())
	}
}
