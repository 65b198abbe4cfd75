// Command spaceload is a deterministic closed-loop load generator for the
// spacetrack serving plane. It drives the real server handler — catalog,
// admission control, conditional fetches, gzip, live ingest — with a seeded
// client mix on a virtual clock, entirely in process: no sockets, no wall
// time, no goroutines. Two invocations with the same seed, mix and fault
// schedule emit byte-identical JSON reports, so a report diff is a real
// behaviour change, never noise.
//
// Usage:
//
//	spaceload [-seed S] [-duration 10m] [-bulk N] [-poll N] [-spike N] [-ingesters N]
//	          [-feed N] [-rate R] [-burst B] [-capacity C] [-capacity-burst CB]
//	          [-max-inflight M] [-faults SCHED] [-days D] [-o FILE] [-slo-report]
//
// The client mix models the serving workloads: bulk-history crawlers
// pulling multi-day windows, incremental pollers revalidating with
// ETag/If-None-Match, a storm spike that wakes at one third of the run
// and hammers the group endpoint — the scenario admission control exists
// for — and incremental-feed subscribers that revalidate the decay-risk
// view and drain its delta stream from a saved cursor. -faults threads a
// faultline schedule (e.g. '429:1/31,reset:1/37') in front of the server.
// The report (p50/p99 virtual latency, throughput, status mix, ingest loss,
// SLO burn-rate verdicts, flight-recorder reject summary) goes to stdout or
// -o FILE; -slo-report renders the SLO verdicts as a text table instead.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
	"time"

	"cosmicdance/internal/loadsim"
)

func main() {
	ctx := context.Background()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "spaceload:", err)
		os.Exit(1)
	}
}

// run executes one load run with the given arguments, writing the JSON
// report to out (or the -o file when set).
func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("spaceload", flag.ContinueOnError)
	seed := fs.Int64("seed", 42, "run seed: think times, window picks, retry jitter, fault bytes")
	duration := fs.Duration("duration", 10*time.Minute, "virtual run length")
	bulk := fs.Int("bulk", 2, "bulk-history crawler clients")
	poll := fs.Int("poll", 4, "incremental conditional-poll clients")
	spike := fs.Int("spike", 6, "storm-spike clients (burst window at one third of the run)")
	ingesters := fs.Int("ingesters", 2, "live ingest writers")
	feed := fs.Int("feed", 2, "incremental-feed subscribers (risk view + delta stream)")
	rate := fs.Float64("rate", 20, "per-client rate limit in requests/second (0 disables)")
	burst := fs.Float64("burst", 10, "per-client burst size")
	capacity := fs.Float64("capacity", 8, "global capacity in requests/second (0 disables)")
	capacityBurst := fs.Float64("capacity-burst", 4, "global capacity burst size")
	maxInflight := fs.Int64("max-inflight", 0, "max concurrently served requests (0 disables)")
	faults := fs.String("faults", "", "fault schedule, e.g. '429:1/31,reset:1/37' (see internal/faultline)")
	days := fs.Int("days", 10, "simulated archive span in days")
	output := fs.String("o", "", "write the report to FILE instead of stdout")
	sloReport := fs.Bool("slo-report", false, "render the SLO verdicts as a text table instead of the JSON report")
	if err := fs.Parse(args); err != nil {
		return err
	}

	report, err := loadsim.Run(ctx, loadsim.Config{
		Seed:           *seed,
		Duration:       *duration,
		Bulk:           *bulk,
		Poll:           *poll,
		Spike:          *spike,
		Ingesters:      *ingesters,
		Feed:           *feed,
		FaultSchedule:  *faults,
		RatePerSec:     *rate,
		Burst:          *burst,
		CapacityPerSec: *capacity,
		CapacityBurst:  *capacityBurst,
		MaxInFlight:    *maxInflight,
		ArchiveDays:    *days,
	})
	if err != nil {
		return err
	}
	data, err := report.Marshal()
	if err != nil {
		return err
	}
	if *sloReport {
		data = renderSLO(report)
	}
	if *output != "" {
		return os.WriteFile(*output, data, 0o644)
	}
	_, err = out.Write(data)
	return err
}

// renderSLO formats the report's SLO verdicts as an aligned text table —
// the `make slo-report` view. The rows come straight from the deterministic
// report, so the table is as reproducible as the JSON.
func renderSLO(report *loadsim.Report) []byte {
	var buf bytes.Buffer
	tw := tabwriter.NewWriter(&buf, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "ENDPOINT\tOPS\tERRORS\tBURN\tP50_MS\tP99_MS\tTARGET_MS\tVERDICT")
	overall := "pass"
	for _, r := range report.SLO {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%g\t%g\t%g\t%g\t%s\n",
			r.Endpoint, r.Ops, r.Errors, r.BurnRate, r.P50Ms, r.P99Ms, r.P99TargetMs, r.Verdict)
		if r.Verdict != "pass" {
			overall = "fail"
		}
	}
	tw.Flush()
	if report.Flight != nil {
		fmt.Fprintf(&buf, "rejects: %d (%d distinct traces)\n",
			report.Flight.Rejects, len(report.Flight.RejectedTraces))
	}
	fmt.Fprintf(&buf, "overall: %s\n", overall)
	return buf.Bytes()
}
