package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"regexp"
	"strconv"
	"sync"
	"syscall"
	"time"

	"cosmicdance/internal/constellation"
)

// Both serving workloads run against spacetrackd's May 2024 fleet: 5,900
// satellites over a 31-day archive.
func fleetConfig(seed int64) constellation.Config { return constellation.May2024Fleet(seed) }

// archiveWindow is the span of the daemon's archive.
func archiveWindow(seed int64) (from, to time.Time) {
	cfg := fleetConfig(seed)
	from = cfg.Start.UTC().Truncate(time.Hour)
	return from, from.Add(time.Duration(cfg.Hours) * time.Hour)
}

// daemon is one spacetrackd process under test.
type daemon struct {
	cmd   *exec.Cmd
	done  chan error // receives the process's exit once
	url   string
	setup time.Duration // launch to the first 200 from /healthz
	log   *logTail
}

// logTail keeps the start of the daemon's stderr and reports the address
// the daemon logs once it listens.
type logTail struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	addr  chan string
	found bool
}

var addrRe = regexp.MustCompile(`addr=(\S+)`)

func (l *logTail) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.buf.Len() < 1<<16 {
		l.buf.Write(p)
	}
	if !l.found {
		if m := addrRe.FindSubmatch(l.buf.Bytes()); m != nil {
			l.found = true
			l.addr <- string(m[1])
		}
	}
	return len(p), nil
}

func (l *logTail) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return lastLines(l.buf.String(), 5)
}

// startDaemon launches spacetrackd on a free loopback port and waits until
// /healthz answers 200. Rate limiting is off so every request is served.
// "-slo default" is the daemon's default, spelled out because the traced
// stack installs the same obs.DefaultObjectives.
func startDaemon(ctx context.Context, e *env) (*daemon, error) {
	log := &logTail{addr: make(chan string, 1)}
	cmd := exec.CommandContext(ctx, e.bin("spacetrackd"),
		"-addr", "127.0.0.1:0", "-fleet", "may2024", "-seed", strconv.FormatInt(e.seed, 10), "-rate", "0", "-slo", "default")
	cmd.Stderr = log
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, done: make(chan error, 1), log: log}
	go func() { d.done <- cmd.Wait() }()
	select {
	case addr := <-log.addr:
		d.url = "http://" + addr
	case err := <-d.done:
		return nil, fmt.Errorf("spacetrackd exited before serving: %v\n%s", err, log)
	case <-time.After(90 * time.Second):
		d.kill()
		return nil, errors.New("spacetrackd: no listen address after 90s")
	}
	probe := &http.Client{Timeout: 2 * time.Second}
	for {
		resp, err := probe.Get(d.url + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(start) > 90*time.Second {
			d.kill()
			return nil, errors.New("spacetrackd: /healthz not ready after 90s")
		}
		time.Sleep(2 * time.Millisecond)
	}
	d.setup = time.Since(start)
	return d, nil
}

// kill ends the daemon without ceremony, on a failure path.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.done
}

// stop shuts the daemon down with SIGTERM, as an operator would, checks
// that it exits cleanly and returns its peak RSS.
func (d *daemon) stop() (float64, error) {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return 0, err
	}
	select {
	case err := <-d.done:
		if err != nil {
			return 0, fmt.Errorf("spacetrackd exit: %v\n%s", err, d.log)
		}
	case <-time.After(30 * time.Second):
		d.kill()
		return 0, errors.New("spacetrackd ignored SIGTERM for 30s")
	}
	_, rss := usage(d.cmd.ProcessState)
	return rss, nil
}

// measureDaemon starts a daemon, runs load against it and stops it,
// recording set-up time, throughput and the daemon's CPU per operation slice
// by slice over the load alone, and the daemon's peak RSS.
func measureDaemon(ctx context.Context, e *env, load func(url string) (*run, error)) (*run, error) {
	d, err := startDaemon(ctx, e)
	if err != nil {
		return nil, err
	}
	stop := make(chan struct{})
	samples := make(chan []cpuSample, 1)
	go func() { samples <- sampleCPU(d.cmd.Process.Pid, stop) }()
	r, err := load(d.url)
	close(stop)
	cs := <-samples
	if err != nil {
		d.kill()
		return nil, err
	}
	rss, err := d.stop()
	if err != nil {
		return nil, err
	}
	r.rssMB = []float64{rss}
	r.setups = []float64{d.setup.Seconds()}
	r.rates, r.cpuMS = perSlice(r.ops, cs)
	return r, nil
}

// sliceLen is the serving workloads' sampling period. Throughput and CPU
// per operation are taken per slice and reported as medians over every
// slice of the invocation. On the VM the benchmark was sized on, one CPU's
// speed dips by up to 40% for 0.5–4 s every few tens of seconds, and each
// round starts with a slow slice while the fresh daemon warms up; a median
// over slices outvotes both, where a whole-round average would carry them.
const sliceLen = 250 * time.Millisecond

// cpuSample is a process's CPU time at one instant.
type cpuSample struct {
	at  time.Time
	cpu time.Duration
}

// sampleCPU records pid's CPU time every sliceLen and once more when stop
// closes, then returns the samples.
func sampleCPU(pid int, stop <-chan struct{}) []cpuSample {
	var out []cpuSample
	take := func() {
		if cpu, err := procCPU(pid); err == nil {
			out = append(out, cpuSample{time.Now(), cpu})
		}
	}
	t := time.NewTicker(sliceLen)
	defer t.Stop()
	take()
	for {
		select {
		case <-t.C:
			take()
		case <-stop:
			take()
			return out
		}
	}
}

// perSlice turns a serving window into samples of throughput (successful
// operations per second) and of CPU per operation, one per interval between
// consecutive CPU samples. An interval shorter than half a slice (the last,
// cut short when the load stopped) gives neither, unless no interval is
// longer, when the whole window is the one sample. An interval in which no
// operation completed gives no CPU sample, and neither does one in which
// the daemon's CPU time went backwards (a thread exited).
func perSlice(ops []op, cs []cpuSample) (rates, cpuMS []float64) {
	sample := func(a, b cpuSample) {
		n, good := 0, 0
		for _, o := range ops {
			if o.end.After(a.at) && !o.end.After(b.at) {
				n++
				if o.ok {
					good++
				}
			}
		}
		rates = append(rates, float64(good)/b.at.Sub(a.at).Seconds())
		if cpu := b.cpu - a.cpu; n > 0 && cpu >= 0 {
			cpuMS = append(cpuMS, ms(cpu)/float64(n))
		}
	}
	for i := 1; i < len(cs); i++ {
		if cs[i].at.Sub(cs[i-1].at) >= sliceLen/2 {
			sample(cs[i-1], cs[i])
		}
	}
	if len(rates) == 0 && len(cs) > 1 {
		sample(cs[0], cs[len(cs)-1])
	}
	return rates, cpuMS
}
