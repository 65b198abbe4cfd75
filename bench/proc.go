package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// binaries are the commands under test, built once per invocation. No
// metric includes the build.
var binaries = []string{"cosmicdance", "figures", "spacetrackd"}

// build compiles the commands under test from the checkout at root into
// binDir with go build.
func build(ctx context.Context, root, binDir string) error {
	args := []string{"build", "-o", binDir + string(os.PathSeparator)}
	for _, b := range binaries {
		args = append(args, "./cmd/"+b)
	}
	cmd := exec.CommandContext(ctx, "go", args...)
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build: %v\n%s", err, out)
	}
	return nil
}

// procResult is one finished process under test.
type procResult struct {
	wall   time.Duration
	cpu    time.Duration // user + system
	rssMB  float64       // peak resident set size
	stdout []byte
}

// runProc runs a command under test to completion, timing it from start to
// exit and taking CPU time and peak RSS from its wait4 rusage.
func runProc(ctx context.Context, bin string, args ...string) (*procResult, error) {
	cmd := exec.CommandContext(ctx, bin, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %v\n%s", filepath.Base(bin), strings.Join(args, " "), err, lastLines(stderr.String(), 5))
	}
	res := &procResult{wall: wall, stdout: stdout.Bytes()}
	res.cpu, res.rssMB = usage(cmd.ProcessState)
	return res, nil
}

// usage extracts CPU time and peak RSS (Linux reports ru_maxrss in KiB)
// from a finished process.
func usage(ps *os.ProcessState) (time.Duration, float64) {
	ru, ok := ps.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, 0
	}
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return cpu, float64(ru.Maxrss) / 1024
}

func lastLines(s string, n int) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}

// procCPU reads a live process's CPU time, summed over its threads from
// /proc/<pid>/task/*/schedstat. That counts nanoseconds where
// /proc/<pid>/stat counts 10 ms ticks, fine enough to take a daemon's cost
// over quarter-second slices of the measured window.
func procCPU(pid int) (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, t := range tasks {
		data, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if err != nil {
			continue // the thread exited after the listing
		}
		f := strings.Fields(string(data))
		if len(f) == 0 {
			return 0, fmt.Errorf("empty %s/%s/schedstat", dir, t.Name())
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s/%s/schedstat: %w", dir, t.Name(), err)
		}
		total += ns
	}
	return time.Duration(total), nil
}

// onlineCPUs counts the machine's CPUs from /proc/stat, whatever CPUs this
// process is pinned to (runtime.NumCPU reports those).
func onlineCPUs() int {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	n := 0
	for _, line := range strings.Split(string(data), "\n") {
		if len(line) > 3 && line[:3] == "cpu" && line[3] >= '0' && line[3] <= '9' {
			n++
		}
	}
	return n
}

// cpuTimes is a /proc/stat sample of the machine's aggregate CPU counters.
type cpuTimes struct{ total, iowait, steal int64 }

func readCPUTimes() cpuTimes {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTimes{}
	}
	var t cpuTimes
	for i, s := range f[1:] {
		v, _ := strconv.ParseInt(s, 10, 64)
		if i < 8 { // guest time is already counted in user time
			t.total += v
		}
		switch i {
		case 4:
			t.iowait = v
		case 7:
			t.steal = v
		}
	}
	return t
}

// noise is the share of the machine's CPU time lost to other tenants
// (steal) and to waiting on I/O between two /proc/stat samples, in %.
type noise struct{ stealPct, iowaitPct float64 }

// stealLimit flags a run whose steal share makes its timings suspect.
const stealLimit = 5.0

func (n noise) String() string {
	s := fmt.Sprintf("steal_pct=%.2f iowait_pct=%.2f", n.stealPct, n.iowaitPct)
	if n.stealPct > stealLimit {
		s += " STEAL>5%"
	}
	return s
}

func noiseBetween(a, b cpuTimes) noise {
	total := float64(b.total - a.total)
	if total <= 0 {
		return noise{}
	}
	return noise{
		stealPct:  100 * float64(b.steal-a.steal) / total,
		iowaitPct: 100 * float64(b.iowait-a.iowait) / total,
	}
}
