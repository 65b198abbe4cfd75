package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"cosmicdance/internal/incremental"
	"cosmicdance/internal/tle"
	"cosmicdance/internal/units"
)

const (
	// refreshesPerBatch existing catalogs ride along with each probe.
	refreshesPerBatch = 9
	// probeBase is the first probe's catalog number; probes are new objects,
	// above every catalog the fleet holds.
	probeBase = 80000
	// maxProbes keeps probe catalog numbers within the five digits a TLE
	// carries.
	maxProbes = 99999 - probeBase
	// dstEvery iterations one Dst hour is posted and the risk view read.
	dstEvery = 10
	// The posted Dst hours cycle through stormHours at stormNT, then quiet
	// hours at quietNT, so every cycle opens a storm that sweeps the fleet.
	stormHours, cycleHours = 3, 12
	stormNT, quietNT       = -80, -10
	// probeWait bounds how long a probe's delta may take to arrive.
	probeWait = 10 * time.Second
)

// liveIngest writes to spacetrackd while a subscriber follows the live
// feed: catalog copy-on-write ingest, feed append and SSE fan-out work
// while the group read path stays idle. One writer connection posts
// batches; one subscriber connection streams /v1/risk/stream.
//
// The mix is synthetic: no measured upstream traffic fixes the batch size,
// the Dst cadence or the storm share. They are chosen so that every ingest
// both creates a track (the probe) and extends existing ones (the
// refreshes), and so that storm openings, which sweep the whole fleet, are
// frequent enough to reach the delivery tail.
type liveIngest struct {
	first  []uint64 // the first run's probe delta sequence numbers
	differ int      // runs whose sequence numbers disagreed with the first
	runs   int
}

func (w *liveIngest) name() string { return "live-ingest" }
func (w *liveIngest) rate() string { return "ingest_per_s" }

func (w *liveIngest) checks(*env) []check {
	return []check{{
		name:   "probe delta sequence numbers identical across runs",
		ok:     w.runs > 0 && w.differ == 0,
		detail: fmt.Sprintf("%d of %d runs differed", w.differ, w.runs),
	}}
}

// compare checks one run's probe sequence numbers against the first run's
// over the iterations both completed.
func (w *liveIngest) compare(seqs []uint64) {
	w.runs++
	if w.first == nil {
		w.first = seqs
		return
	}
	n := min(len(seqs), len(w.first))
	for i := 0; i < n; i++ {
		if seqs[i] != w.first[i] {
			w.differ++
			return
		}
	}
}

// ingestPlan is what the writer needs before its first batch: element-set
// templates for the fleet, the feed's sequence number and weather
// watermark, and the archive frontier the batches' epochs start from.
type ingestPlan struct {
	templates []*tle.TLE
	probe     *tle.TLE
	order     []int
	startSeq  uint64
	watermark time.Time
	epoch     time.Time
}

func prepareIngest(ctx context.Context, rec *recorder, url string, seed int64) (*ingestPlan, error) {
	cl, err := newClient(url)
	if err != nil {
		return nil, err
	}
	root := rec.root(1, "bench.prepare")
	defer rec.end(root, 0)
	id := rec.child(1, "spacetrack.client.group", root)
	sets, err := cl.FetchGroup(ctx, "starlink")
	rec.end(id, 0)
	if err != nil {
		return nil, err
	}
	p := &ingestPlan{templates: sets, order: rand.New(rand.NewSource(seed)).Perm(len(sets))}
	for _, t := range sets {
		if alt := t.Altitude(); alt >= 500 && alt <= 600 {
			p.probe = t
			break
		}
	}
	if p.probe == nil {
		return nil, errors.New("no operational satellite to model probes on")
	}
	var view incremental.RiskView
	if err := getJSON(ctx, &http.Client{Timeout: 30 * time.Second}, url+"/v1/risk", &view); err != nil {
		return nil, err
	}
	p.startSeq = view.Seq
	p.watermark = time.Unix(view.WeatherWatermark, 0).UTC()
	_, p.epoch = archiveWindow(seed)
	return p, nil
}

// batch is iteration i's /ingest body: one probe with a fresh catalog
// number and refreshesPerBatch existing catalogs in seed-shuffled order,
// every epoch one minute past the previous batch's.
func (p *ingestPlan) batch(i int) ([]byte, error) {
	epoch := p.epoch.Add(time.Duration(i+1) * time.Minute)
	sets := make([]*tle.TLE, 0, 1+refreshesPerBatch)
	probe := *p.probe
	probe.CatalogNumber = probeBase + i
	sets = append(sets, &probe)
	for j := 0; j < refreshesPerBatch; j++ {
		t := *p.templates[p.order[(i*refreshesPerBatch+j)%len(p.order)]]
		sets = append(sets, &t)
	}
	for _, t := range sets {
		t.Epoch, t.Name = epoch, ""
	}
	var buf bytes.Buffer
	err := tle.Write(&buf, sets)
	return buf.Bytes(), err
}

// dstHour is the k-th posted Dst hour.
func dstHour(k int) units.NanoTesla {
	if k%cycleHours < stormHours {
		return stormNT
	}
	return quietNT
}

// probeDelta is one probe's track_new delta as the subscriber received it.
type probeDelta struct {
	catalog int
	seq     uint64
	at      time.Time
	recAt   int64 // recorder clock
}

// subscribe streams the feed from cursor and hands every probe's track_new
// delta to out until ctx ends.
func subscribe(ctx context.Context, rec *recorder, url string, cursor uint64, out chan<- probeDelta) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, fmt.Sprintf("%s/v1/risk/stream?cursor=%d", url, cursor), nil)
	if err != nil {
		return err
	}
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("stream: %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	var (
		seq   uint64
		event string
	)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			seq, _ = strconv.ParseUint(line[4:], 10, 64)
		case strings.HasPrefix(line, "event: "):
			event = line[7:]
		case strings.HasPrefix(line, "data: ") && event == string(incremental.KindTrackNew):
			var d incremental.Delta
			if err := json.Unmarshal([]byte(line[6:]), &d); err != nil {
				return err
			}
			if d.Catalog < probeBase {
				continue
			}
			select {
			case out <- probeDelta{catalog: d.Catalog, seq: seq, at: time.Now(), recAt: rec.now()}:
			case <-ctx.Done():
				return nil
			}
		case line == "":
			event = ""
		}
	}
	if ctx.Err() != nil {
		return nil
	}
	return sc.Err()
}

// ingestLoop is the closed loop: each iteration posts a batch, waits for the
// ack and for the probe's delta at the subscriber; every dstEvery-th also
// posts a Dst hour and reads the risk view. Delivery latency runs from the
// POST's send to the probe's delta arriving. urls[0] serves the writer,
// urls[1] the subscriber. st, when set, is the in-process stack whose
// OnIngest hook marks where fan-out begins.
func ingestLoop(ctx context.Context, rec *recorder, st *stack, urls []string, p *ingestPlan, budget time.Duration, limit int) (*run, []uint64, error) {
	subCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	// The writer takes one delta per iteration; the buffer only absorbs a
	// subscriber that runs ahead of it.
	probes := make(chan probeDelta, 64)
	var (
		wg     sync.WaitGroup
		subErr error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		subErr = subscribe(subCtx, rec, urls[1], p.startSeq, probes)
	}()
	r, seqs, err := writeLoop(ctx, rec, st, urls[0], p, probes, budget, limit)
	cancel()
	wg.Wait()
	if err == nil {
		err = subErr
	}
	return r, seqs, err
}

func writeLoop(ctx context.Context, rec *recorder, st *stack, url string, p *ingestPlan, probes <-chan probeDelta, budget time.Duration, limit int) (*run, []uint64, error) {
	writer := &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	if limit == 0 || limit > maxProbes {
		limit = maxProbes
	}
	r := &run{}
	var seqs []uint64
	seen := map[int]bool{}
	start := time.Now()
	deadline := start.Add(budget)
	for i := 0; i < limit && time.Now().Before(deadline); i++ {
		body, err := p.batch(i)
		if err != nil {
			return nil, nil, err
		}
		root := rec.root(1, "bench.iteration")
		o := op{class: "delivery", ok: true}
		send := time.Now()
		id := rec.child(1, "http.client", root)
		var ack struct{ Received, Applied int }
		if err := postJSON(ctx, writer, url+"/ingest?group=starlink", body, &ack); err != nil || ack.Received != 1+refreshesPerBatch {
			fmt.Fprintf(os.Stderr, "bench: ingest %d: %v (received %d)\n", i, err, ack.Received)
			o.ok = false
		}
		rec.end(id, 0)
		hookEnd := int64(0)
		if st != nil {
			hookEnd = st.hookEnd.Load()
		}
		want := probeBase + i
		var got *probeDelta
		timeout := time.After(probeWait)
		for got == nil && o.ok {
			select {
			case d := <-probes:
				if d.catalog == want {
					got = &d
				}
				if seen[d.catalog] {
					fmt.Fprintf(os.Stderr, "bench: probe %d delivered twice\n", d.catalog)
					o.ok = false
				}
				seen[d.catalog] = true
			case <-timeout:
				fmt.Fprintf(os.Stderr, "bench: probe %d not delivered within %v\n", want, probeWait)
				o.ok = false
			case <-ctx.Done():
				return nil, nil, ctx.Err()
			}
		}
		if got != nil {
			o.ms = ms(got.at.Sub(send))
			seqs = append(seqs, got.seq)
			rec.interval(1, "incremental.fanout", root, hookEnd, got.recAt)
		}
		if i%dstEvery == dstEvery-1 && o.ok {
			if err := postDst(ctx, rec, root, writer, url, p, i/dstEvery); err != nil {
				fmt.Fprintf(os.Stderr, "bench: dst hour %d: %v\n", i/dstEvery, err)
				o.ok = false
			}
		}
		rec.end(root, 0)
		o.end = time.Now()
		r.ops = append(r.ops, o)
		if !o.ok {
			break
		}
		r.units++
	}
	r.window = time.Since(start)
	return r, seqs, nil
}

// postDst posts the k-th Dst hour and reads the risk view back.
func postDst(ctx context.Context, rec *recorder, root int, c *http.Client, url string, p *ingestPlan, k int) error {
	id := rec.child(1, "http.client", root)
	at := p.watermark.Add(time.Duration(k) * time.Hour).Format(time.RFC3339)
	var st incremental.IngestStats
	err := postJSON(ctx, c, url+"/v1/dst?start="+at, []byte(fmt.Sprintf("%g\n", float64(dstHour(k)))), &st)
	rec.end(id, 0)
	if err == nil && st.Applied != 1 {
		err = fmt.Errorf("dst hour %d applied %d readings", k, st.Applied)
	}
	if err != nil {
		return err
	}
	id = rec.child(1, "http.client", root)
	defer rec.end(id, 0)
	var view incremental.RiskView
	return getJSON(ctx, c, url+"/v1/risk", &view)
}

func postJSON(ctx context.Context, c *http.Client, url string, body []byte, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "text/plain")
	return doJSON(c, req, out)
}

func getJSON(ctx context.Context, c *http.Client, url string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	return doJSON(c, req, out)
}

func doJSON(c *http.Client, req *http.Request, out any) error {
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: %s: %s", req.Method, req.URL.Path, resp.Status, bytes.TrimSpace(body))
	}
	return json.Unmarshal(body, out)
}

func (w *liveIngest) run(ctx context.Context, e *env, budget time.Duration) (*run, error) {
	return measureDaemon(ctx, e, func(url string) (*run, error) {
		p, err := prepareIngest(ctx, nil, url, e.seed)
		if err != nil {
			return nil, err
		}
		r, seqs, err := ingestLoop(ctx, nil, nil, []string{url, url}, p, budget, e.sz.ingestOps)
		if err != nil {
			return nil, err
		}
		w.compare(seqs)
		return r, nil
	})
}

// inProcess runs the ingest loop against an in-process stack, recording the
// catalog's and the feed's counts.
func (w *liveIngest) inProcess(ctx context.Context, e *env, rec *recorder, budget time.Duration) (*run, []uint64, error) {
	st, err := newStack(ctx, rec, e.seed)
	if err != nil {
		return nil, nil, err
	}
	defer st.close()
	var urls [2]string
	for k := range urls {
		if urls[k], err = st.listen(k + 1); err != nil {
			return nil, nil, err
		}
	}
	p, err := prepareIngest(ctx, rec, urls[0], e.seed)
	if err != nil {
		return nil, nil, err
	}
	r, seqs, err := ingestLoop(ctx, rec, st, urls[:], p, budget, e.sz.ingestOps)
	if err != nil {
		return nil, nil, err
	}
	deltas := float64(st.feed.Risk().Seq - p.startSeq)
	rec.add("incremental.deltas", deltas)
	rec.add("incremental.deltas_per_batch", deltas/float64(max(len(r.ops), 1)))
	rec.add("spacetrack.catalog.delta_sets", float64(st.catalog.DeltaSets()))
	return r, seqs, nil
}

func (w *liveIngest) traced(ctx context.Context, e *env, budget time.Duration) (*tracedRun, error) {
	plain, plainSeqs, err := w.inProcess(ctx, e, nil, budget)
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	r, seqs, err := w.inProcess(ctx, e, rec, budget)
	if err != nil {
		return nil, err
	}
	failed := failures(r.ops)
	same := true
	for i := 0; i < min(len(seqs), len(plainSeqs)); i++ {
		same = same && seqs[i] == plainSeqs[i]
	}
	return &tracedRun{
		rec:      rec,
		overhead: 100 * (perOpMS(r)/perOpMS(plain) - 1),
		lines:    servingLines(r),
		checks: []check{
			{name: "every traced probe delta arrived exactly once", ok: failed == 0 && len(r.ops) > 0, detail: fmt.Sprintf("%d of %d failed", failed, len(r.ops))},
			{name: "traced probe sequence numbers match the untraced run", ok: same && len(seqs) > 0},
		},
	}, nil
}
