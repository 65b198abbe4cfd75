package obs

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Objective is one endpoint's service-level objective: an availability
// target (fraction of requests that must not fail, exclusive of 1 so the
// error budget is never zero) and a p99 latency target, evaluated over a
// sliding window on the injected clock.
type Objective struct {
	Endpoint     string        `json:"endpoint"`
	Availability float64       `json:"availability"`
	LatencyP99Ms float64       `json:"latency_p99_ms"`
	Window       time.Duration `json:"window"`
}

// DefaultObjectives returns the serving plane's stock objectives: 99%
// availability with storm-tolerant p99 targets on the three request
// endpoints, over a 5-minute window.
func DefaultObjectives() []Objective {
	return []Objective{
		{Endpoint: "group", Availability: 0.99, LatencyP99Ms: 400, Window: 5 * time.Minute},
		{Endpoint: "history", Availability: 0.99, LatencyP99Ms: 600, Window: 5 * time.Minute},
		{Endpoint: "ingest", Availability: 0.995, LatencyP99Ms: 500, Window: 5 * time.Minute},
	}
}

// ParseObjectives parses the -slo flag form: comma-separated
// endpoint:availability%:p99ms[:window] entries, e.g.
// "group:99:400,ingest:99.5:500:10m". Window defaults to 5m.
func ParseObjectives(spec string) ([]Objective, error) {
	var objs []Objective
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		parts := strings.Split(entry, ":")
		if len(parts) < 3 || len(parts) > 4 {
			return nil, fmt.Errorf("obs: bad SLO entry %q (want endpoint:availability%%:p99ms[:window])", entry)
		}
		avail, err := strconv.ParseFloat(parts[1], 64)
		if err != nil {
			return nil, fmt.Errorf("obs: bad availability in SLO entry %q: %v", entry, err)
		}
		if avail <= 0 || avail >= 100 {
			return nil, fmt.Errorf("obs: availability in SLO entry %q must be in (0,100) exclusive", entry)
		}
		p99, err := strconv.ParseFloat(parts[2], 64)
		if err != nil || p99 <= 0 {
			return nil, fmt.Errorf("obs: bad p99 target in SLO entry %q", entry)
		}
		window := 5 * time.Minute
		if len(parts) == 4 {
			window, err = time.ParseDuration(parts[3])
			if err != nil || window <= 0 {
				return nil, fmt.Errorf("obs: bad window in SLO entry %q", entry)
			}
		}
		objs = append(objs, Objective{
			Endpoint:     parts[0],
			Availability: avail / 100,
			LatencyP99Ms: p99,
			Window:       window,
		})
	}
	if len(objs) == 0 {
		return nil, fmt.Errorf("obs: empty SLO spec %q", spec)
	}
	return objs, nil
}

// SLOResult is one endpoint's verdict at report time. Float fields are
// rounded to 3 decimals so same-seed runs render byte-identically.
type SLOResult struct {
	Endpoint         string  `json:"endpoint"`
	Ops              int64   `json:"ops"`
	Errors           int64   `json:"errors"`
	ErrorRate        float64 `json:"error_rate"`
	BurnRate         float64 `json:"burn_rate"`
	P50Ms            float64 `json:"p50_ms"`
	P99Ms            float64 `json:"p99_ms"`
	P99TargetMs      float64 `json:"p99_target_ms"`
	AvailabilityPass bool    `json:"availability_pass"`
	LatencyPass      bool    `json:"latency_pass"`
	Verdict          string  `json:"verdict"`
}

type sloSample struct {
	at     time.Time
	ms     float64
	failed bool
}

type sloWindow struct {
	obj     Objective
	samples []sloSample
	// Lifetime tallies survive window pruning so Ops/Errors describe the
	// whole run even when the window has slid past its start.
	totalOps    int64
	totalErrors int64

	gaugeBurn *Gauge
	gaugeP99  *Gauge
	gaugePass *Gauge
}

// SLOTracker evaluates objectives over sliding windows on an injected
// clock. Record is mutex-guarded (the serving hot path already serializes
// per-request bookkeeping behind admission), Report/Publish snapshot under
// the same lock. Endpoints without a configured objective are ignored.
type SLOTracker struct {
	mu      sync.Mutex
	now     func() time.Time
	windows map[string]*sloWindow
}

// NewSLOTracker builds a tracker for objectives on clock now, registering
// per-endpoint burn-rate/p99/pass gauges in reg (skipped when reg is nil —
// loadsim tracks SLOs without exposing gauges). Invalid objectives panic:
// they come from typed config or a validated flag, so a bad one is a
// programming error.
func NewSLOTracker(reg *Registry, objectives []Objective, now func() time.Time) *SLOTracker {
	if now == nil {
		panic("obs: NewSLOTracker requires an injected clock")
	}
	t := &SLOTracker{now: now, windows: make(map[string]*sloWindow, len(objectives))}
	for _, obj := range objectives {
		if obj.Endpoint == "" || obj.Availability <= 0 || obj.Availability >= 1 ||
			obj.LatencyP99Ms <= 0 || obj.Window <= 0 {
			panic(fmt.Sprintf("obs: invalid SLO objective %+v", obj))
		}
		if _, dup := t.windows[obj.Endpoint]; dup {
			panic(fmt.Sprintf("obs: duplicate SLO objective for endpoint %q", obj.Endpoint))
		}
		w := &sloWindow{obj: obj}
		if reg != nil {
			w.gaugeBurn = reg.Gauge("spacetrack_slo_burn_rate", "endpoint", obj.Endpoint)
			w.gaugeP99 = reg.Gauge("spacetrack_slo_p99_ms", "endpoint", obj.Endpoint)
			w.gaugePass = reg.Gauge("spacetrack_slo_pass", "endpoint", obj.Endpoint)
		}
		t.windows[obj.Endpoint] = w
	}
	return t
}

// Record adds one request outcome for endpoint. failed means the request
// burned error budget (5xx or shed); a 304 or 429-then-retried success does
// not. Unknown endpoints are dropped. A nil tracker is a no-op.
func (t *SLOTracker) Record(endpoint string, latency time.Duration, failed bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	w, ok := t.windows[endpoint]
	if !ok {
		return
	}
	now := t.now()
	w.prune(now)
	w.samples = append(w.samples, sloSample{at: now, ms: float64(latency) / float64(time.Millisecond), failed: failed})
	w.totalOps++
	if failed {
		w.totalErrors++
	}
}

func (w *sloWindow) prune(now time.Time) {
	cut := now.Add(-w.obj.Window)
	i := 0
	for i < len(w.samples) && !w.samples[i].at.After(cut) {
		i++
	}
	// Reslice rather than copy the live tail down: a full window expires a
	// sample on nearly every Record, and the copy ran under the tracker's
	// lock. append reallocates from the live tail once capacity runs out.
	w.samples = w.samples[i:]
}

// Report evaluates every objective against its current window and returns
// results sorted by endpoint. Burn rate is the window's error rate divided
// by the error budget (1 − availability): burn ≤ 1 means the endpoint is
// inside budget, burn N means the budget is being spent N× too fast.
func (t *SLOTracker) Report() []SLOResult {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	endpoints := make([]string, 0, len(t.windows))
	for ep := range t.windows {
		endpoints = append(endpoints, ep)
	}
	sort.Strings(endpoints)
	out := make([]SLOResult, 0, len(endpoints))
	for _, ep := range endpoints {
		w := t.windows[ep]
		w.prune(now)
		res := SLOResult{
			Endpoint:    ep,
			Ops:         w.totalOps,
			Errors:      w.totalErrors,
			P99TargetMs: w.obj.LatencyP99Ms,
		}
		n := len(w.samples)
		if n > 0 {
			errs := 0
			lats := make([]float64, n)
			for i, s := range w.samples {
				lats[i] = s.ms
				if s.failed {
					errs++
				}
			}
			sort.Float64s(lats)
			res.ErrorRate = float64(errs) / float64(n)
			res.BurnRate = res.ErrorRate / (1 - w.obj.Availability)
			res.P50Ms = percentile(lats, 0.50)
			res.P99Ms = percentile(lats, 0.99)
		}
		res.ErrorRate = sloRound(res.ErrorRate)
		res.BurnRate = sloRound(res.BurnRate)
		res.P50Ms = sloRound(res.P50Ms)
		res.P99Ms = sloRound(res.P99Ms)
		res.AvailabilityPass = res.BurnRate <= 1
		res.LatencyPass = res.P99Ms <= w.obj.LatencyP99Ms
		if res.AvailabilityPass && res.LatencyPass {
			res.Verdict = "pass"
		} else {
			res.Verdict = "fail"
		}
		out = append(out, res)
	}
	return out
}

// Publish refreshes the tracker's gauges from a fresh Report. Called at
// scrape time (the /metrics handler), not per request, so sliding-window
// evaluation stays off the serving hot path.
func (t *SLOTracker) Publish() {
	if t == nil {
		return
	}
	for _, res := range t.Report() {
		t.mu.Lock()
		w := t.windows[res.Endpoint]
		t.mu.Unlock()
		if w.gaugeBurn == nil {
			continue
		}
		w.gaugeBurn.Set(res.BurnRate)
		w.gaugeP99.Set(res.P99Ms)
		pass := 0.0
		if res.Verdict == "pass" {
			pass = 1
		}
		w.gaugePass.Set(pass)
	}
}

// percentile returns the nearest-rank percentile of sorted (ascending)
// values — deterministic, no interpolation surprises across platforms.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// sloRound rounds to 3 decimals, normalizing -0.
func sloRound(v float64) float64 {
	r := math.Round(v*1000) / 1000
	if r == 0 {
		return 0
	}
	return r
}
