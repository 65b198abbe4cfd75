// Command tlegen runs the constellation simulator against a synthetic solar
// activity scenario and writes the resulting tracking archive as standard
// 2LE/3LE text — the trajectory file format `cosmicdance analyze -tles`
// reads.
//
// Usage:
//
//	tlegen [-fleet paper|may2024|small] [-seed S] [-names] [-out FILE]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"time"

	"cosmicdance/internal/constellation"
	"cosmicdance/internal/obs"
	"cosmicdance/internal/spaceweather"
)

// logger keeps status and errors structured and on stderr; stdout is
// reserved for the generated archive.
var logger = obs.NewLogger(os.Stderr, slog.LevelInfo)

func fatal(err error) {
	logger.Error("tlegen failed", "err", err)
	os.Exit(1)
}

func main() {
	ctx := context.Background()
	fleet := flag.String("fleet", "small", "fleet preset: paper (4.5 y, ~2000 sats), may2024 (1 month, 5900 sats) or small (6 months, 40 sats)")
	seed := flag.Int64("seed", 42, "simulation seed")
	names := flag.Bool("names", false, "emit 3LE name lines")
	out := flag.String("out", "", "write to this file instead of stdout")
	flag.Parse()

	var (
		cfg constellation.Config
		wx  spaceweather.Config
	)
	switch *fleet {
	case "paper":
		cfg = constellation.PaperFleet(*seed)
		wx = spaceweather.Paper2020to2024()
	case "may2024":
		cfg = constellation.May2024Fleet(*seed)
		wx = spaceweather.May2024()
	case "small":
		start := time.Date(2023, 1, 1, 0, 0, 0, 0, time.UTC)
		cfg = constellation.ResearchFleet(*seed, start, start.AddDate(0, 6, 0), 8)
		wx = spaceweather.Paper2020to2024()
	default:
		fatal(fmt.Errorf("unknown fleet %q", *fleet))
	}
	weather, err := spaceweather.Generate(wx)
	if err != nil {
		fatal(err)
	}
	res, err := constellation.Run(ctx, cfg, weather)
	if err != nil {
		fatal(err)
	}
	w := io.Writer(os.Stdout)
	closeOut := func() error { return nil }
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		w = f
		closeOut = f.Close
	}
	if err := res.WriteTLEs(w, *names); err != nil {
		fatal(err)
	}
	if err := closeOut(); err != nil {
		fatal(err)
	}
	logger.Info("simulated archive", "satellites", len(res.Sats), "samples", len(res.Samples))
}
