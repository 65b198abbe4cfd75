// Stormwatch: live storm monitoring with LEOScope-style triggers.
//
// The paper's §6 proposes feeding CosmicDance storm signals into LEOScope,
// a LEO measurement testbed with trigger-based experiment scheduling. This
// example plays that integration out end-to-end against a simulated
// Space-Track service: an in-process tracking server carries the May 2024
// fleet, the May 2024 Dst feed is replayed hour by hour through the trigger
// engine, and every onset/escalation snapshots the current catalog over HTTP
// and computes where (in latitude) the fleet is exposed — everything a
// measurement campaign scheduler needs.
//
//	go run ./examples/stormwatch
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"time"

	"cosmicdance/internal/constellation"
	"cosmicdance/internal/groundtrack"
	"cosmicdance/internal/spacetrack"
	"cosmicdance/internal/spaceweather"
	"cosmicdance/internal/trigger"
	"cosmicdance/internal/units"
)

func main() {
	ctx := context.Background()
	// The May 2024 scenario: the strongest storm since 2003.
	weather, err := spaceweather.Generate(spaceweather.May2024())
	if err != nil {
		log.Fatal(err)
	}
	fleetCfg := constellation.May2024Fleet(7)
	fleetCfg.InitialFleet = 500 // a subsample is plenty for a demo
	fleet, err := constellation.Run(ctx, fleetCfg, weather)
	if err != nil {
		log.Fatal(err)
	}

	// Publish the archive over HTTP, exactly like cmd/spacetrackd.
	end := fleet.Start.Add(time.Duration(fleet.Hours) * time.Hour)
	catalog := spacetrack.NewCatalog(spacetrack.NewResultArchive("starlink", fleet), end)
	server := httptest.NewServer(spacetrack.NewServer(catalog, end).Handler())
	defer server.Close()
	client, err := spacetrack.NewClient(server.URL, server.Client())
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	fmt.Printf("stormwatch: monitoring %d satellites through May 2024\n\n", len(fleet.Sats))

	// The trigger engine: onset at the storm threshold, cleared at -30 nT
	// (hysteresis), and a 12-hour refractory gap against ragged storm tails.
	engine, err := trigger.New(units.StormThreshold, -30)
	if err != nil {
		log.Fatal(err)
	}
	engine.MinGap = 12 * time.Hour
	analyzer := groundtrack.NewAnalyzer()

	engine.Subscribe(func(ev trigger.Event) {
		switch ev.Kind {
		case trigger.Onset, trigger.Escalation:
			// Snapshot the catalog over HTTP: the campaign scheduler's view.
			snapshot, err := client.FetchGroup(ctx, "starlink")
			if err != nil {
				log.Fatalf("catalog snapshot: %v", err)
			}
			// Where is the fleet while the storm pours in? High-latitude
			// satellites bear the brunt (the paper's §6 refinement).
			sats := groundtrack.FromSamples(fleet.Samples, ev.At)
			exposure, err := analyzer.Analyze(sats, ev.At, ev.At.Add(3*time.Hour))
			if err != nil {
				log.Fatalf("exposure: %v", err)
			}
			fmt.Printf("%-10s %s  dst=%v (%v)  tracked=%d  auroral exposure=%.0f%%\n",
				ev.Kind, ev.At.Format("2006-01-02 15:04"), ev.Reading, ev.Category,
				len(snapshot), exposure.AuroralFraction*100)
			fmt.Println("           -> schedule latency/throughput probes across ground stations now")
		case trigger.Cleared:
			fmt.Printf("%-10s %s  storm peaked at %v (%v)\n",
				ev.Kind, ev.At.Format("2006-01-02 15:04"), ev.Peak, ev.Category)
		}
	})

	// Replay the Dst feed. A real deployment would poll WDC Kyoto hourly;
	// the replay collapses the month to an instant while keeping the logic
	// identical.
	events := engine.Replay(weather)

	peak, at := weather.Min()
	fmt.Printf("\n%d trigger event(s); storm peak %v at %s\n", len(events), peak, at.Format("2006-01-02 15:04"))
}
