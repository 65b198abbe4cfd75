package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cosmicdance/internal/constellation"
	"cosmicdance/internal/core"
	"cosmicdance/internal/dst"
	"cosmicdance/internal/spaceweather"
)

func TestLoadWeatherScenarios(t *testing.T) {
	for _, scenario := range []string{"paper", "fiftyyears", "may2024", ""} {
		x, err := loadWeather(context.Background(), "", scenario)
		if err != nil {
			t.Fatalf("scenario %q: %v", scenario, err)
		}
		if x.Len() == 0 {
			t.Fatalf("scenario %q: empty index", scenario)
		}
	}
	if _, err := loadWeather(context.Background(), "", "marsweather"); err == nil {
		t.Error("unknown scenario accepted")
	}
}

func TestLoadWeatherFromWDCFile(t *testing.T) {
	// Round-trip: generate a month, write WDC records, load them back.
	idx, err := spaceweather.Generate(spaceweather.May2024())
	if err != nil {
		t.Fatal(err)
	}
	records, err := dst.FromIndex(idx, 2)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "dst.wdc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.WriteRecords(f, records); err != nil {
		t.Fatal(err)
	}
	f.Close()

	loaded, err := loadWeather(context.Background(), path, "")
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != idx.Len() {
		t.Fatalf("loaded %d hours, want %d", loaded.Len(), idx.Len())
	}
	// The super-storm survives the file round trip (WDC stores integers).
	min, at := loaded.Min()
	if min != -412 || !at.Equal(spaceweather.May2024Peak) {
		t.Errorf("min = %v at %v", min, at)
	}
	if _, err := loadWeather(context.Background(), filepath.Join(t.TempDir(), "missing.wdc"), ""); err == nil {
		t.Error("missing file accepted")
	}
}

func TestLoadTrajectoriesFromTLEFile(t *testing.T) {
	ctx := context.Background()
	weather, err := loadWeather(ctx, "", "may2024")
	if err != nil {
		t.Fatal(err)
	}
	// The simulated fleet feeds the builder directly.
	b := core.NewBuilder(core.DefaultConfig(), weather)
	if err := loadTrajectories(ctx, b, weather, "", "", "small", 7, 2); err != nil {
		t.Fatal(err)
	}
	d, err := b.Build(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Tracks()) == 0 {
		t.Fatal("no tracks from simulated fleet")
	}

	// Write the same fleet as 3LE text with the simulator's TLE writer, as
	// tlegen -names does, and load it back from the file.
	cfg, err := fleetConfig("small", 7, weather)
	if err != nil {
		t.Fatal(err)
	}
	res, err := constellation.Run(ctx, cfg, weather)
	if err != nil {
		t.Fatal(err)
	}
	var text bytes.Buffer
	if err := res.WriteTLEs(&text, true); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(text.String(), "\n")
	lines = lines[:len(lines)-1] // the empty string after the last newline
	written := len(lines) / 3
	if written == 0 || len(lines)%3 != 0 {
		t.Fatalf("%d lines of 3LE text", len(lines))
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "small.tle")
	if err := os.WriteFile(path, text.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	b = core.NewBuilder(core.DefaultConfig(), weather)
	if err := loadTrajectories(ctx, b, weather, path, "", "", 7, 0); err != nil {
		t.Fatal(err)
	}
	if d, err = b.Build(ctx); err != nil {
		t.Fatal(err)
	}
	if n := d.Cleaning().TotalObservations; n != written {
		t.Fatalf("loaded %d observations from %d sets written", n, written)
	}

	// One flipped checksum digit fails the whole load, naming the file and
	// the record's first line.
	rec := written / 2
	l2 := lines[3*rec+2]
	lines[3*rec+2] = l2[:68] + string('0'+(l2[68]-'0'+1)%10) + l2[69:]
	bad := filepath.Join(dir, "flipped.tle")
	if err := os.WriteFile(bad, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	err = loadTrajectories(ctx, core.NewBuilder(core.DefaultConfig(), weather), weather, bad, "", "", 7, 0)
	if err == nil || !strings.Contains(err.Error(), bad) || !strings.Contains(err.Error(), fmt.Sprintf("line %d:", 3*rec+1)) {
		t.Fatalf("flipped checksum: err = %v, want it to name %s and line %d", err, bad, 3*rec+1)
	}

	if err := loadTrajectories(ctx, core.NewBuilder(core.DefaultConfig(), weather), weather, "nonexistent.tle", "", "", 7, 0); err == nil {
		t.Error("missing TLE file accepted")
	}
	if err := loadTrajectories(ctx, core.NewBuilder(core.DefaultConfig(), weather), weather, "", "", "megafleet", 7, 0); err == nil {
		t.Error("unknown fleet accepted")
	}
}

func TestCmdScale(t *testing.T) {
	// The subcommand writes the report to stdout; run it against a tiny spec
	// twice — once in-memory, once through a cache — and require identical
	// bytes.
	capture := func(args []string) string {
		t.Helper()
		old := os.Stdout
		r, w, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		os.Stdout = w
		cmdErr := cmdScale(context.Background(), args)
		w.Close()
		os.Stdout = old
		out, err := io.ReadAll(r)
		if err != nil {
			t.Fatal(err)
		}
		if cmdErr != nil {
			t.Fatal(cmdErr)
		}
		return string(out)
	}
	a := capture([]string{"-sats", "120", "-days", "2", "-seed", "5", "-chunk", "16"})
	b := capture([]string{"-sats", "120", "-days", "2", "-seed", "5", "-chunk", "64", "-cache", t.TempDir()})
	if a != b {
		t.Fatalf("scale reports differ across chunk size and store:\n--- a ---\n%s--- b ---\n%s", a, b)
	}
	if !strings.Contains(a, "satellites 120\n") || !strings.Contains(a, "digest ") {
		t.Fatalf("unexpected report:\n%s", a)
	}
}
