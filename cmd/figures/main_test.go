package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cosmicdance/internal/artifact"
	"cosmicdance/internal/constellation"
	"cosmicdance/internal/spaceweather"
	"cosmicdance/internal/testkit"
)

// TestWeatherOnlyFigures renders the figures that need no fleet simulation
// (fast enough for the unit-test tier) and checks their headline content.
func TestWeatherOnlyFigures(t *testing.T) {
	cases := []struct {
		figure int
		want   []string
	}{
		{1, []string{"Fig 1", "G4 (severe)", "3", "p99="}},
		{2, []string{"Fig 2", "G1 (minor)", "median h"}},
		{8, []string{"Fig 8", "1989", "-589", "named storms:"}},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		if err := run(context.Background(), &buf, c.figure, 42, 0, artifact.NewPipeline(nil)); err != nil {
			t.Fatalf("figure %d: %v", c.figure, err)
		}
		out := buf.String()
		for _, want := range c.want {
			if !strings.Contains(out, want) {
				t.Errorf("figure %d output missing %q", c.figure, want)
			}
		}
	}
}

func TestFullRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full substrate build in -short mode")
	}
	var buf bytes.Buffer
	if err := run(context.Background(), &buf, 0, 42, 0, artifact.NewPipeline(nil)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for fig := 1; fig <= 10; fig++ {
		marker := "Fig " + string(rune('0'+fig))
		if fig == 10 {
			marker = "Fig 10"
		}
		if !strings.Contains(out, marker) {
			t.Errorf("output missing %q", marker)
		}
	}
	if err := runExtensions(context.Background(), &buf, 42, 0, artifact.NewPipeline(nil)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "latitude-band exposure") ||
		!strings.Contains(buf.String(), "conjunction pressure") {
		t.Error("extension sections missing")
	}
}

func TestCSVExport(t *testing.T) {
	if testing.Short() {
		t.Skip("substrate build in -short mode")
	}
	dir := t.TempDir()
	csvOut = dir
	defer func() { csvOut = "" }()
	var buf bytes.Buffer
	if err := run(context.Background(), &buf, 4, 42, 0, artifact.NewPipeline(nil)); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fig04a.csv", "fig04b.csv"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.HasPrefix(string(data), "day,median_km,p95_km\n") {
			t.Errorf("%s header: %q", name, string(data[:40]))
		}
	}
}

// TestFiguresGolden pins the complete seed-42 rendering of Figures 1-10
// byte-for-byte — at every worker-pool width. The same golden file must
// reproduce at Parallelism 1, 2, 4 and 8: the parallel pipeline's headline
// invariant is that worker count and scheduling cannot leak into the output.
// Regenerate after an intentional output change with:
//
//	go test ./cmd/figures -run TestFiguresGolden -update
func TestFiguresGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full substrate build in -short mode")
	}
	var sequential []byte
	for _, width := range []int{1, 2, 4, 8} {
		var buf bytes.Buffer
		if err := run(context.Background(), &buf, 0, 42, width, artifact.NewPipeline(nil)); err != nil {
			t.Fatalf("parallelism %d: %v", width, err)
		}
		testkit.Golden(t, "figures_seed42.golden", buf.Bytes())
		if width == 1 {
			sequential = buf.Bytes()
		} else if !bytes.Equal(sequential, buf.Bytes()) {
			t.Fatalf("parallelism %d diverged from the sequential rendering", width)
		}
	}
}

// TestFiguresCacheWarmIdentical proves the tentpole guarantee end to end: a
// warm render of every figure served from the artifact cache is
// byte-identical to the cold render that populated it, and reads the cache
// without adding or rewriting an entry. It also pins what a render stores:
// the paper and May 2024 datasets, but no whole-fleet archive; Fig 9's L1
// cohort is the only archive entry.
func TestFiguresCacheWarmIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet build in -short mode")
	}
	dir := t.TempDir()
	cache, err := artifact.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var cold, warm bytes.Buffer
	if err := run(context.Background(), &cold, 0, 42, 0, artifact.NewPipeline(cache)); err != nil {
		t.Fatal(err)
	}
	entries := cacheEntries(t, dir)
	if err := run(context.Background(), &warm, 0, 42, 0, artifact.NewPipeline(cache)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cold.Bytes(), warm.Bytes()) {
		t.Fatal("warm (cached) rendering differs from the cold build")
	}
	if after := cacheEntries(t, dir); !maps.Equal(after, entries) {
		t.Fatalf("warm render changed the cache: %v before, %v after", entries, after)
	}

	archive := func(wcfg spaceweather.Config, fcfg constellation.Config) string {
		return cache.Path(artifact.KindArchive, artifact.FingerprintFleet(artifact.FingerprintWeather(wcfg), fcfg))
	}
	for name, path := range map[string]string{
		"PaperFleet(42)":   archive(spaceweather.Paper2020to2024(), constellation.PaperFleet(42)),
		"May2024Fleet(42)": archive(spaceweather.May2024(), constellation.May2024Fleet(42)),
	} {
		if _, err := os.Stat(path); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("%s archive stored (stat: %v)", name, err)
		}
	}
	archives, err := filepath.Glob(filepath.Join(dir, artifact.KindArchive.String()+"-*.cda"))
	if err != nil {
		t.Fatal(err)
	}
	cohort := archive(spaceweather.Paper2020to2024(), l1CohortFleet(42, 0))
	if len(archives) != 1 || archives[0] != cohort {
		t.Fatalf("archive entries %v, want only the L1 cohort %s", archives, cohort)
	}
}

// cacheEntries lists a cache directory as name → size and modification
// time, so a rewritten entry shows up even when its size is unchanged.
func cacheEntries(t *testing.T, dir string) map[string]string {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(des))
	for _, de := range des {
		info, err := de.Info()
		if err != nil {
			t.Fatal(err)
		}
		out[de.Name()] = fmt.Sprintf("%d bytes, %s", info.Size(), info.ModTime().Format(time.RFC3339Nano))
	}
	return out
}

// TestWeatherFiguresGolden pins the weather-only figures in the fast tier,
// so byte-level regressions surface even under -short.
func TestWeatherFiguresGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, fig := range []int{1, 2, 8} {
		if err := run(context.Background(), &buf, fig, 42, 0, artifact.NewPipeline(nil)); err != nil {
			t.Fatal(err)
		}
	}
	testkit.Golden(t, "figures_weather_seed42.golden", buf.Bytes())
}
