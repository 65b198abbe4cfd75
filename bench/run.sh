#!/usr/bin/env bash
# run.sh — build and run the benchmark harness from the repository root.
#
#   bash bench/run.sh --workload scale-100k --seed 7 --seconds 10 --trace 0
#
# Every build product, Go cache and temporary file stays under
# .bench_build/ in the current directory, and no module is downloaded: the
# harness and the binaries it measures build from the checkout alone.
#
# The harness and every process it starts run pinned to one CPU, the last
# one this shell may use: on the two-vCPU machine the benchmark was sized on
# the capacity behind the second vCPU comes and goes, so anything that runs
# on both at once times bimodally (see bench/README.md, "Why one CPU").
set -euo pipefail

root="$PWD"
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomod"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
# The go command's telemetry counters and any other per-user state land
# here rather than in the home directory.
export XDG_CONFIG_HOME="$out/config"
export XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-buildvcs=false
export GOENV=off

go -C "$root/bench" build -o "$out/bin/bench" .

pin=()
if command -v taskset >/dev/null; then
	cpus=$(taskset -cp $$) # "pid N's current affinity list: 0,1" or "...: 0-3"
	pin=(taskset -c "${cpus##*[ ,-]}")
fi
exec "${pin[@]}" "$out/bin/bench" "$@"
