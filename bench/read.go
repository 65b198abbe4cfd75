package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"cosmicdance/internal/spacetrack"
)

// readClients is the crawl's width: its histories are fetched over this
// many connections at once. cmd/cosmicdance's crawl fetches them eight at a
// time; the benchmark uses one connection per CPU of the two-core machine it
// was sized on, so load comes from one process with at most nproc
// connections.
const readClients = 2

// serveRead is cmd/cosmicdance's crawl (fetchInto) against spacetrackd, run
// as a closed loop: a pass fetches the current catalog by group once to
// learn the catalog numbers, then every object's history over the whole
// archive window, in seed-shuffled order, split between readClients
// connections. When a pass ends the next one starts with the group again,
// so the mix is the crawl's own: one group fetch per 5,900 histories. Only
// the read path works here; the incremental engine sits idle.
type serveRead struct{}

func (w *serveRead) name() string        { return "serve-read" }
func (w *serveRead) rate() string        { return "read_rps" }
func (w *serveRead) checks(*env) []check { return nil }

// newClient returns a crawl client on its own connection that never
// retries: a failed request is a failed operation.
func newClient(url string) (*spacetrack.Client, error) {
	cl, err := spacetrack.NewClient(url, &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	})
	if err != nil {
		return nil, err
	}
	cl.MaxRetries = 0
	return cl, nil
}

// readLoop runs crawl passes until budget runs out or limit requests (0 for
// no limit) have been sent. urls gives each connection's server; the group
// fetch goes over the first. Every group fetch must return the whole fleet
// with no unparseable record.
func readLoop(ctx context.Context, rec *recorder, urls []string, seed int64, budget time.Duration, limit int) (*run, error) {
	clients := make([]*spacetrack.Client, readClients)
	for k := range clients {
		cl, err := newClient(urls[k])
		if err != nil {
			return nil, err
		}
		clients[k] = cl
	}
	from, to := archiveWindow(seed)
	fleet := fleetConfig(seed).InitialFleet
	order := rand.New(rand.NewSource(seed))
	var sent atomic.Int64
	start := time.Now()
	deadline := start.Add(budget)
	more := func() bool {
		return time.Now().Before(deadline) && (limit == 0 || sent.Add(1) <= int64(limit))
	}

	r := &run{}
	for more() {
		root := rec.root(1, "bench.crawl")
		id := rec.child(1, "spacetrack.client.group", root)
		t0 := time.Now()
		sets, err := clients[0].FetchGroup(ctx, "starlink")
		cats := spacetrack.CatalogNumbers(sets)
		if err == nil && (len(sets) != fleet || len(cats) != fleet) {
			err = fmt.Errorf("group returned %d sets of %d catalogs, want %d", len(sets), len(cats), fleet)
		}
		t1 := time.Now()
		r.ops = append(r.ops, op{class: "group", ms: ms(t1.Sub(t0)), ok: err == nil, end: t1})
		rec.end(id, 0)
		if err != nil {
			rec.end(root, 0)
			fmt.Fprintf(os.Stderr, "bench: group: %v\n", err)
			break
		}
		r.units++

		perm := order.Perm(len(cats))
		var next atomic.Int64
		ops := make([][]op, readClients)
		var wg sync.WaitGroup
		for k := range clients {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				lane, parent := k+1, root
				if k > 0 {
					parent = rec.root(lane, "bench.crawl")
					defer rec.end(parent, 0)
				}
				for {
					i := int(next.Add(1)) - 1
					if i >= len(perm) || !more() {
						return
					}
					id := rec.child(lane, "spacetrack.client.history", parent)
					t0 := time.Now()
					_, err := clients[k].FetchHistory(ctx, cats[perm[i]], from, to)
					t1 := time.Now()
					ops[k] = append(ops[k], op{class: "history", ms: ms(t1.Sub(t0)), ok: err == nil, end: t1})
					rec.end(id, 0)
					if err != nil {
						fmt.Fprintf(os.Stderr, "bench: client %d history %d: %v\n", k, cats[perm[i]], err)
					}
				}
			}(k)
		}
		wg.Wait()
		rec.end(root, 0)
		for _, lane := range ops {
			for _, o := range lane {
				r.ops = append(r.ops, o)
				if o.ok {
					r.units++
				}
			}
		}
	}
	r.window = time.Since(start)
	return r, nil
}

func (w *serveRead) run(ctx context.Context, e *env, budget time.Duration) (*run, error) {
	return measureDaemon(ctx, e, func(url string) (*run, error) {
		return readLoop(ctx, nil, []string{url, url}, e.seed, budget, e.sz.readOps)
	})
}

// inProcess runs the read loop against an in-process stack.
func (w *serveRead) inProcess(ctx context.Context, e *env, rec *recorder, budget time.Duration) (*run, error) {
	st, err := newStack(ctx, rec, e.seed)
	if err != nil {
		return nil, err
	}
	defer st.close()
	urls := make([]string, readClients)
	for k := range urls {
		if urls[k], err = st.listen(k + 1); err != nil {
			return nil, err
		}
	}
	return readLoop(ctx, rec, urls, e.seed, budget, e.sz.readOps)
}

func (w *serveRead) traced(ctx context.Context, e *env, budget time.Duration) (*tracedRun, error) {
	plain, err := w.inProcess(ctx, e, nil, budget)
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	r, err := w.inProcess(ctx, e, rec, budget)
	if err != nil {
		return nil, err
	}
	failed := failures(r.ops)
	return &tracedRun{
		rec:      rec,
		overhead: 100 * (perOpMS(r)/perOpMS(plain) - 1),
		lines:    servingLines(r),
		checks: []check{{
			name:   "every traced request succeeded with a full group",
			ok:     failed == 0 && len(r.ops) > 0,
			detail: fmt.Sprintf("%d of %d failed", failed, len(r.ops)),
		}},
	}, nil
}

// perOpMS is a loop's wall time per operation.
func perOpMS(r *run) float64 { return ms(r.window) / float64(max(len(r.ops), 1)) }

// servingLines prints a traced serving loop's own end-to-end values.
func servingLines(r *run) []string {
	lat := latencies(r.ops)
	return []string{
		fmt.Sprintf("latency_p50_ms %.6g ms n=%d", percentile(lat, 50), len(lat)),
		fmt.Sprintf("throughput_per_s %.6g 1/s", r.units/r.window.Seconds()),
	}
}
