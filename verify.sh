#!/bin/sh
# verify.sh — the full local verification gate:
#
#   0. gofmt over every tracked Go file,
#   1. go vet over every package,
#   2. a clean build,
#   3. the entire test suite under the race detector,
#   4. the parallel-equivalence suite at GOMAXPROCS=1 and GOMAXPROCS=4
#      (worker-pool output must be bit-identical regardless of how many
#      CPUs the scheduler actually has; the suite's prefix dimension is
#      the live-feed gate — the incremental engine replayed over any
#      prefix of the event stream must equal the batch pipeline at the
#      same watermark),
#   5. the artifact-cache identity gate: the same analyze run, cold then
#      warm over one cache dir, must print byte-identical output (a cache
#      hit is the cold build, bit for bit),
#   6. the spaceload determinism gate: the closed-loop load harness, run
#      twice with one seed/mix/fault schedule, must emit byte-identical
#      reports (a report diff is a behaviour change, never noise),
#   7. the telemetry-overhead gate: the instrumented hot paths — the group
#      serving path with tracing, flight recorder and SLO accounting
#      enabled included — may cost at most 2% more than a
#      COSMICDANCE_OBS=off run (the short tier smoke-runs the serving
#      quartet; the long tier enforces the bound),
#   8. the chunk-equivalence gate: a 30k-satellite chunked run must print
#      byte-identical reports at two different chunk sizes and through the
#      disk cache, cold and warm (the scale-out refactor may not change a
#      single output bit),
#   9. the flat-RSS gate: a 100k-satellite run at chunk width 2 must peak
#      under 64 MiB of resident memory — the streaming pipeline holds
#      O(chunk × width), not O(fleet); the width is pinned so the verdict
#      does not depend on the machine's core count,
#  10. the benchdiff gate against the pinned BENCH_PR9.json baseline,
#      including the O(delta) ratio: one incremental append must stay
#      under 1% of a cold rebuild at 100k satellites,
#  11. the benchmark module (bench/, its own go.mod): vet plus its tests,
#      which compile it against obs, spacetrack, artifact and
#      constellation — the root `go test ./...` never reaches it (the
#      short tier skips its end-to-end smoke run),
#  12. every fuzz target, seeds + 10s of new coverage each (scripts/fuzz.sh
#      finds them in the code).
#
# Pass -short as $1 to run the fast tier (skips the year-long substrate
# builds and the fuzz sessions).
set -eu
cd "$(dirname "$0")"

SHORT=""
FUZZ=1
if [ "${1:-}" = "-short" ]; then
    SHORT="-short"
    FUZZ=0
fi

echo "== gofmt -l (every tracked Go file must be gofmt-clean)"
test -z "$(gofmt -l $(git ls-files '*.go'))" || {
    echo "verify: gofmt would reformat:" >&2
    gofmt -l $(git ls-files '*.go') >&2
    exit 1
}

echo "== go vet ./..."
go vet ./...

echo "== cosmiclint ./..."
go run ./cmd/cosmiclint ./...

echo "== go build ./..."
go build ./...

echo "== go test -race $SHORT ./..."
go test -race $SHORT ./...

echo "== parallel equivalence (widths, chunks, incremental prefix replay) at GOMAXPROCS=1 and GOMAXPROCS=4"
GOMAXPROCS=1 go test -count=1 -run 'TestParallelEquivalence|TestDatasetConcurrentReaders' .
GOMAXPROCS=4 go test -count=1 -run 'TestParallelEquivalence|TestDatasetConcurrentReaders' .

echo "== warm cache equals cold build (analyze output must be bit-identical)"
cachedir="$(mktemp -d -t cosmicdance-cache.XXXXXX)"
cold="$(mktemp -t cosmicdance-cold.XXXXXX)"
warm="$(mktemp -t cosmicdance-warm.XXXXXX)"
trap 'rm -rf "$cachedir" "$cold" "$warm"' EXIT
go run ./cmd/cosmicdance analyze -scenario may2024 -fleet small -cache "$cachedir" > "$cold"
go run ./cmd/cosmicdance analyze -scenario may2024 -fleet small -cache "$cachedir" > "$warm"
cmp "$cold" "$warm" || {
    echo "verify: warm-cache analyze output differs from the cold build" >&2
    exit 1
}

echo "== benchmark module: go vet + go test $SHORT (bench/)"
(cd bench && go vet ./... && go test $SHORT ./...)

if [ -n "$SHORT" ]; then
    # The full floor-pooling gate needs the long tier; the short tier still
    # proves the serving-path quartet — the full flight-recorder + trace +
    # SLO config — builds and runs on both sides.
    echo "== telemetry overhead smoke (ServeGroup quartet, one round)"
    go test -run '^$' -bench '^BenchmarkServeGroupObs(Off|On|OnB|OffB)$' -benchtime 20x . > /dev/null
fi

if [ -z "$SHORT" ]; then
    echo "== spaceload determinism (same seed/mix/schedule -> identical report bytes)"
    load_a="$(mktemp -t cosmicdance-load-a.XXXXXX)"
    load_b="$(mktemp -t cosmicdance-load-b.XXXXXX)"
    trap 'rm -rf "$cachedir" "$cold" "$warm" "$load_a" "$load_b"' EXIT
    LOAD_ARGS="-seed 42 -duration 10m -days 10 -faults 429:1/31,reset:1/37"
    go run ./cmd/spaceload $LOAD_ARGS -o "$load_a"
    go run ./cmd/spaceload $LOAD_ARGS -o "$load_b"
    cmp "$load_a" "$load_b" || {
        echo "verify: spaceload reports differ between identical runs" >&2
        exit 1
    }

    echo "== telemetry overhead gate (<= 2% on the hot paths)"
    ./scripts/obs_overhead.sh

    echo "== chunk equivalence at 30k satellites (chunk 4096 vs 2048 vs 4096 through a cold, then warm cache, byte-identical)"
    scale_a="$(mktemp -t cosmicdance-scale-a.XXXXXX)"
    scale_b="$(mktemp -t cosmicdance-scale-b.XXXXXX)"
    scale_c="$(mktemp -t cosmicdance-scale-c.XXXXXX)"
    scale_d="$(mktemp -t cosmicdance-scale-d.XXXXXX)"
    scale_cache="$(mktemp -d -t cosmicdance-scale-cache.XXXXXX)"
    scale_rss="$(mktemp -t cosmicdance-scale-rss.XXXXXX)"
    trap 'rm -rf "$cachedir" "$cold" "$warm" "$load_a" "$load_b" "$scale_a" "$scale_b" "$scale_c" "$scale_d" "$scale_cache" "$scale_rss"' EXIT
    go run ./cmd/cosmicdance scale -sats 30000 -days 2 -seed 42 -chunk 4096 > "$scale_a" 2> /dev/null
    go run ./cmd/cosmicdance scale -sats 30000 -days 2 -seed 42 -chunk 2048 > "$scale_b" 2> /dev/null
    go run ./cmd/cosmicdance scale -sats 30000 -days 2 -seed 42 -chunk 4096 -cache "$scale_cache" > "$scale_c" 2> /dev/null
    # A cold cached run decodes the segments it has just built; only this
    # warm rerun reads them back from disk.
    go run ./cmd/cosmicdance scale -sats 30000 -days 2 -seed 42 -chunk 4096 -cache "$scale_cache" > "$scale_d" 2> /dev/null
    cmp "$scale_a" "$scale_b" || {
        echo "verify: 30k scale reports differ between chunk sizes 4096 and 2048" >&2
        exit 1
    }
    cmp "$scale_a" "$scale_c" || {
        echo "verify: 30k scale report through the cold cache differs from the in-memory run" >&2
        exit 1
    }
    cmp "$scale_a" "$scale_d" || {
        echo "verify: 30k scale report through the warm cache differs from the in-memory run" >&2
        exit 1
    }

    echo "== flat-RSS gate (100k satellites at width 2 must peak under 64 MiB)"
    go run ./cmd/cosmicdance scale -sats 100000 -days 2 -seed 42 -parallel 2 > /dev/null 2> "$scale_rss"
    rss="$(awk '$1 == "peak_rss_bytes" { print $2 }' "$scale_rss")"
    if [ -z "$rss" ]; then
        echo "verify: 100k scale run reported no peak_rss_bytes" >&2
        exit 1
    fi
    if [ "$rss" -gt 67108864 ]; then
        echo "verify: 100k scale run peaked at $rss bytes, over the 67108864-byte (64 MiB) ceiling" >&2
        exit 1
    fi
    echo "verify: 100k satellites peaked at $rss bytes (ceiling 67108864)"

    echo "== benchdiff gate against BENCH_PR9.json (fan-outs + O(delta) append ratio)"
    ./scripts/benchdiff.sh
fi

if [ "$FUZZ" = 1 ]; then
    ./scripts/fuzz.sh
fi

echo "verify: OK"
