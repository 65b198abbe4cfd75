package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
	"time"

	"cosmicdance/internal/artifact"
	"cosmicdance/internal/constellation"
	"cosmicdance/internal/core"
	"cosmicdance/internal/dst"
	"cosmicdance/internal/scale"
	"cosmicdance/internal/spaceweather"
)

// scaleSeed42Digest is the SHA-256 of `cosmicdance scale -sats 100000 -days 7
// -seed 42`'s standard output.
const scaleSeed42Digest = "60c9afecd67e5b127eda245ed7df25cc0c7a67248b9e56f760c6942c5be48ab5"

// scaleWorkload streams a 100k-satellite mega-constellation through the
// chunked pipeline with `cosmicdance scale`. It keeps every pipeline layer
// busy (simulate, clean, segment encode/decode, associate) and runs no
// serving code.
type scaleWorkload struct {
	warm   bool
	first  []byte // the first run's report, which every later run must repeat
	differ int    // runs whose report differed from the first
}

func (w *scaleWorkload) name() string { return "scale-100k" }
func (w *scaleWorkload) rate() string { return "sats_per_s" }

func (w *scaleWorkload) args(e *env, sats int) []string {
	return []string{"scale", "-sats", strconv.Itoa(sats), "-days", strconv.Itoa(e.sz.scaleDays), "-seed", strconv.FormatInt(e.seed, 10)}
}

func (w *scaleWorkload) run(ctx context.Context, e *env, budget time.Duration) (*run, error) {
	bin := e.bin("cosmicdance")
	r := &run{}
	// Set-up is what every invocation pays whatever the fleet size: process
	// start, weather, event selection and the chunk plan, measured on a
	// one-satellite fleet. A run takes about 2 ms, so a median of many keeps
	// one slow millisecond from setting it.
	for i := 0; i < 11; i++ {
		p, err := runProc(ctx, bin, w.args(e, 1)...)
		if err != nil {
			return nil, err
		}
		r.setups = append(r.setups, p.wall.Seconds())
	}
	if !w.warm {
		if _, err := runProc(ctx, bin, w.args(e, e.sz.scaleSats)...); err != nil {
			return nil, err
		}
		w.warm = true
	}
	// A run's peak RSS swings by a third with when its collections happen
	// to fall, so every round takes at least two runs, however slow the
	// machine: a median over three would carry that swing.
	for r.window < budget || len(r.ops) < 2 {
		p, err := runProc(ctx, bin, w.args(e, e.sz.scaleSats)...)
		if err != nil {
			r.ops = append(r.ops, op{class: "run"})
			e.printf("op %s failed: %v\n", w.name(), err)
			break
		}
		ok := true
		if w.first == nil {
			w.first = p.stdout
		} else if !bytes.Equal(p.stdout, w.first) {
			ok = false
			w.differ++
		}
		r.ops = append(r.ops, op{class: "run", ms: ms(p.wall), ok: ok})
		r.window += p.wall
		r.rates = append(r.rates, float64(e.sz.scaleSats)/p.wall.Seconds())
		r.cpuMS = append(r.cpuMS, ms(p.cpu))
		r.rssMB = append(r.rssMB, p.rssMB)
	}
	return r, nil
}

func (w *scaleWorkload) checks(e *env) []check {
	cs := []check{{name: "report identical across runs", ok: w.first != nil && w.differ == 0, detail: fmt.Sprintf("%d differed", w.differ)}}
	if e.seed == 42 && e.sz == full {
		sum := sha256.Sum256(w.first)
		got := hex.EncodeToString(sum[:])
		cs = append(cs, check{name: "report matches the pinned seed-42 digest", ok: got == scaleSeed42Digest, detail: got})
	}
	return cs
}

// scaleCounts are the report fields the traced composition must reproduce.
type scaleCounts struct{ tracks, points, deviations, onsets int64 }

// parseScaleCounts reads the counts from a scale report.
func parseScaleCounts(report []byte) (scaleCounts, error) {
	var c scaleCounts
	fields := map[string]*int64{"tracks": &c.tracks, "points": &c.points, "deviations": &c.deviations, "onsets": &c.onsets}
	found := 0
	sc := bufio.NewScanner(bytes.NewReader(report))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 2 {
			continue
		}
		if dst, ok := fields[f[0]]; ok {
			v, err := strconv.ParseInt(f[1], 10, 64)
			if err != nil {
				return c, fmt.Errorf("scale report line %q: %w", sc.Text(), err)
			}
			*dst = v
			found++
		}
	}
	if found != len(fields) {
		return c, fmt.Errorf("scale report has %d of %d count lines", found, len(fields))
	}
	return c, nil
}

// The analysis knobs internal/scale pins for its report.
const (
	scaleEventPercentile = 95
	scaleWindowDays      = 30
	scaleMinDropKm       = 20
)

// scaleStream is scale.Run's chunked stream composed from the modules'
// public calls, one chunk at a time (width 1) so every span is on one lane.
// Each chunk is simulated, cleaned, encoded as a segment and decoded back,
// exactly the hand-off the in-memory segment store makes.
func scaleStream(ctx context.Context, rec *recorder, spec scale.Spec) (scaleCounts, error) {
	var c scaleCounts
	root := rec.root(0, "bench.scale")
	defer rec.end(root, 0)
	call := func(name string, fn func() error) error {
		id := rec.begin(0, name)
		defer rec.end(id, 0)
		return fn()
	}

	wcfg, fcfg, ccfg := scale.WeatherConfig(spec), scale.FleetConfig(spec), scale.CoreConfig()
	var (
		weather *dst.Index
		events  []core.Event
		plan    *constellation.ChunkPlan
	)
	if err := call("spaceweather.generate", func() (err error) {
		weather, err = spaceweather.Generate(wcfg)
		return err
	}); err != nil {
		return c, err
	}
	if err := call("core.weather_events", func() (err error) {
		events, err = core.WeatherEventsAbovePercentile(weather, scaleEventPercentile, 1, 0)
		return err
	}); err != nil {
		return c, err
	}
	if err := call("constellation.plan_chunks", func() (err error) {
		plan, err = constellation.PlanChunks(fcfg, artifact.DefaultChunkSize)
		return err
	}); err != nil {
		return c, err
	}
	chunkCfg := ccfg
	chunkCfg.Parallelism = 1
	var calls, hits float64
	for i := 0; i < plan.NumChunks(); i++ {
		var (
			res  *constellation.Result
			part *core.ChunkPartial
			blob bytes.Buffer
		)
		if err := call("constellation.run_chunk", func() (err error) {
			res, err = plan.RunChunk(ctx, i, weather)
			return err
		}); err != nil {
			return c, err
		}
		rec.add("constellation.samples", float64(len(res.Samples)))
		if err := call("core.build_chunk_partial", func() (err error) {
			part, err = core.BuildChunkPartial(ctx, chunkCfg, res.Samples)
			return err
		}); err != nil {
			return c, err
		}
		rec.add("core.observations", float64(part.Stats.TotalObservations))
		if err := call("artifact.encode_segment", func() error { return artifact.EncodeSegment(&blob, i, part) }); err != nil {
			return c, err
		}
		rec.add("artifact.segment_bytes", float64(blob.Len()))
		if err := call("artifact.decode_segment", func() error {
			chunk, decoded, err := artifact.DecodeSegment(bytes.NewReader(blob.Bytes()))
			if err == nil && chunk != i {
				err = fmt.Errorf("segment %d decoded as chunk %d", i, chunk)
			}
			part = decoded
			return err
		}); err != nil {
			return c, err
		}
		_ = call("core.track_decay_onset", func() error {
			for _, tr := range part.Tracks {
				if _, ok := core.TrackDecayOnset(tr, ccfg.DecayFilterKm, scaleMinDropKm); ok {
					c.onsets++
				}
			}
			return nil
		})
		_ = call("core.associate_track", func() error {
			for _, tr := range part.Tracks {
				for _, ev := range events {
					calls++
					if _, ok := core.AssociateTrack(ccfg, ev, tr, scaleWindowDays); ok {
						hits++
					}
				}
			}
			return nil
		})
		for _, tr := range part.Tracks {
			c.tracks++
			c.points += int64(len(tr.Points))
		}
	}
	c.deviations = int64(hits)
	if calls > 0 {
		rec.add("core.associate_track.hit_ratio", hits/calls)
	}
	return c, nil
}

func (w *scaleWorkload) traced(ctx context.Context, e *env, _ time.Duration) (*tracedRun, error) {
	spec := scale.Spec{Sats: e.sz.scaleSats, Days: e.sz.scaleDays, Seed: e.seed, Parallelism: 1}
	start := time.Now()
	plain, err := scaleStream(ctx, nil, spec)
	if err != nil {
		return nil, err
	}
	untraced := time.Since(start)
	rec := newRecorder()
	start = time.Now()
	got, err := scaleStream(ctx, rec, spec)
	if err != nil {
		return nil, err
	}
	traced := time.Since(start)
	p, err := runProc(ctx, e.bin("cosmicdance"), w.args(e, e.sz.scaleSats)...)
	if err != nil {
		return nil, err
	}
	want, err := parseScaleCounts(p.stdout)
	if err != nil {
		return nil, err
	}
	return &tracedRun{
		rec:      rec,
		overhead: 100 * (traced.Seconds()/untraced.Seconds() - 1),
		lines: []string{
			fmt.Sprintf("latency_ms %.6g ms (untraced in process %.6g ms, width 1)", ms(traced), ms(untraced)),
			fmt.Sprintf("sats_per_s %.6g 1/s", float64(spec.Sats)/traced.Seconds()),
		},
		checks: []check{
			{name: "traced counts match the scale report", ok: got == want, detail: fmt.Sprintf("%+v vs %+v", got, want)},
			{name: "untraced counts match the scale report", ok: plain == want, detail: fmt.Sprintf("%+v vs %+v", plain, want)},
		},
	}, nil
}
