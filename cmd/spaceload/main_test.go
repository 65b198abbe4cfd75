package main

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"cosmicdance/internal/testkit"
)

// TestDoubleRunByteIdentical is the CLI-level determinism gate: two
// invocations with identical flags must emit identical report bytes.
func TestDoubleRunByteIdentical(t *testing.T) {
	args := []string{
		"-seed", "7", "-duration", "5m",
		"-bulk", "1", "-poll", "2", "-spike", "3", "-ingesters", "1",
		"-days", "5", "-faults", "429:1/29",
	}
	var a, b bytes.Buffer
	if err := run(context.Background(), args, &a); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), args, &b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("double run diverged:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a.Bytes(), b.Bytes())
	}
	var report map[string]any
	if err := json.Unmarshal(a.Bytes(), &report); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if report["schema"] != "spaceload/v1" {
		t.Fatalf("schema = %v", report["schema"])
	}
	// The observability sections — SLO verdicts and the flight-recorder
	// summary, trace IDs included — are part of the byte-identity contract.
	if _, ok := report["slo"]; !ok {
		t.Fatal("report has no slo section")
	}
	if _, ok := report["flight"]; !ok {
		t.Fatal("report has no flight section")
	}
}

// TestSLOReportText pins the -slo-report text table: one row per endpoint,
// an overall verdict, and determinism (it renders from the same report).
func TestSLOReportText(t *testing.T) {
	args := []string{
		"-seed", "7", "-duration", "5m",
		"-bulk", "0", "-poll", "2", "-spike", "0", "-ingesters", "1", "-feed", "0",
		"-rate", "100", "-burst", "100", "-capacity", "0",
		"-days", "5", "-slo-report",
	}
	var a, b bytes.Buffer
	if err := run(context.Background(), args, &a); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), args, &b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("slo-report diverged:\n%s\n---\n%s", a.Bytes(), b.Bytes())
	}
	text := a.String()
	for _, want := range []string{"ENDPOINT", "VERDICT", "group", "ingest", "overall: pass"} {
		if !strings.Contains(text, want) {
			t.Fatalf("slo-report missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "\"schema\"") {
		t.Fatal("-slo-report still emitted the JSON report")
	}
}

// TestReportGolden pins the serving plane's traffic: the report of verify.sh's
// spaceload run (seed 42, ten virtual minutes over a ten-day archive, the
// 429/reset fault schedule). Any change to admission, the catalog, the
// incremental feed or the client's retries that moves a status, a latency or
// a delta shows up here; -update regenerates it for a deliberate change.
func TestReportGolden(t *testing.T) {
	args := []string{"-seed", "42", "-duration", "10m", "-days", "10", "-faults", "429:1/31,reset:1/37"}
	var out bytes.Buffer
	if err := run(context.Background(), args, &out); err != nil {
		t.Fatal(err)
	}
	testkit.Golden(t, "report_seed42.golden", out.Bytes())
}

func TestRunWritesFile(t *testing.T) {
	path := t.TempDir() + "/report.json"
	args := []string{"-seed", "1", "-duration", "2m", "-poll", "1", "-spike", "0",
		"-bulk", "0", "-ingesters", "0", "-days", "3", "-o", path}
	var stdout bytes.Buffer
	if err := run(context.Background(), args, &stdout); err != nil {
		t.Fatal(err)
	}
	if stdout.Len() != 0 {
		t.Fatalf("-o still wrote %d bytes to stdout", stdout.Len())
	}
}

func TestRunBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-duration", "0s"}, &out); err == nil {
		t.Error("zero duration accepted")
	}
	if err := run(context.Background(), []string{"-faults", "garbage"}, &out); err == nil {
		t.Error("bad schedule accepted")
	}
	if err := run(context.Background(), []string{"-no-such-flag"}, &out); err == nil {
		t.Error("unknown flag accepted")
	}
}
