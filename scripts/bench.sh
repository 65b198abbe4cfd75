#!/bin/sh
# bench.sh — pin the performance baseline behind `make bench-baseline`.
#
# Runs the four fan-out benchmarks (FleetSim, DatasetBuild, Associate,
# PipelineBuild) plus the incremental-engine pair (IncrementalAppend and
# IncrementalColdRebuild over one 100k-satellite world — their ratio is
# the O(delta) live-feed claim, recorded as append_pct_of_cold) with
# -benchmem ($BENCHCOUNT runs each, default 4, keeping the minimum ns/op
# run — the same floor estimator benchdiff compares against, so a freshly
# pinned baseline survives an immediate benchdiff), times a
# cold-versus-warm `cmd/figures` render over a fresh
# artifact cache, runs the mega-constellation scale sweep (6k/30k/100k
# satellites through the chunked streaming pipeline, recording wall time,
# sats/sec, and peak RSS), and writes the whole picture to one JSON file
# (default BENCH_PR9.json, override with $1) so perf changes land with
# numbers attached instead of adjectives.
#
# The benchmark substrate itself goes through the artifact cache
# ($COSMICDANCE_CACHE_DIR overrides the location), but every measured
# region sits after b.ResetTimer(), so the cache only shortens setup.
set -eu
cd "$(dirname "$0")/.."

out="${1:-BENCH_PR9.json}"
benchtime="${BENCHTIME:-3x}"
count="${BENCHCOUNT:-4}"

raw="$(mktemp -t cosmicdance-bench.XXXXXX)"
cachedir="$(mktemp -d -t cosmicdance-bench-cache.XXXXXX)"
figout="$(mktemp -t cosmicdance-bench-fig.XXXXXX)"
trap 'rm -rf "$raw" "$cachedir" "$figout" "$figout.warm"' EXIT

echo "== go test -bench (FleetSim|DatasetBuild|Associate|PipelineBuild|IncrementalAppend|IncrementalColdRebuild) -benchmem -benchtime $benchtime -count $count"
go test -run '^$' \
    -bench '^(BenchmarkFleetSim|BenchmarkDatasetBuild|BenchmarkAssociate|BenchmarkPipelineBuild|BenchmarkIncrementalAppend|BenchmarkIncrementalColdRebuild)$' \
    -benchmem -benchtime "$benchtime" -count "$count" . | tee "$raw"

# Cold-versus-warm figure render over one fresh cache directory. The warm
# run serves every simulated intermediate from disk; output bytes are
# asserted identical (the same invariant TestFiguresCacheWarmIdentical and
# verify.sh enforce).
echo "== cmd/figures cold render (fresh cache)"
cold_start="$(date +%s.%N)"
go run ./cmd/figures -cache "$cachedir" -out "$figout"
cold_end="$(date +%s.%N)"

echo "== cmd/figures warm render (same cache)"
warm_start="$(date +%s.%N)"
go run ./cmd/figures -cache "$cachedir" -out "$figout.warm"
warm_end="$(date +%s.%N)"

cmp "$figout" "$figout.warm" || {
    echo "bench: warm figures differ from cold figures" >&2
    exit 1
}

cold="$(awk -v a="$cold_start" -v b="$cold_end" 'BEGIN { printf "%.3f", b - a }')"
warm="$(awk -v a="$warm_start" -v b="$warm_end" 'BEGIN { printf "%.3f", b - a }')"
speedup="$(awk -v c="$cold" -v w="$warm" 'BEGIN { printf "%.2f", c / w }')"
echo "bench: figures cold ${cold}s, warm ${warm}s (${speedup}x)"

# Mega-constellation scale sweep: the chunked streaming pipeline end to
# end at three fleet sizes, no cache (every chunk is simulated, cleaned,
# encoded, stored, and merge-read). Peak RSS must stay flat as the fleet
# grows — that is the scale-out claim, and benchdiff gates on it.
scalebin="$(mktemp -t cosmicdance-bench-scale.XXXXXX)"
scalejson=""
go build -o "$scalebin" ./cmd/cosmicdance
for sats in 6000 30000 100000; do
    rss_file="$(mktemp -t cosmicdance-bench-rss.XXXXXX)"
    s_start="$(date +%s.%N)"
    "$scalebin" scale -sats "$sats" -days 2 -seed 42 > /dev/null 2> "$rss_file"
    s_end="$(date +%s.%N)"
    rss="$(awk '$1 == "peak_rss_bytes" { print $2 }' "$rss_file")"
    rm -f "$rss_file"
    secs="$(awk -v a="$s_start" -v b="$s_end" 'BEGIN { printf "%.3f", b - a }')"
    rate="$(awk -v n="$sats" -v s="$secs" 'BEGIN { printf "%.0f", n / s }')"
    echo "bench: scale $sats sats in ${secs}s (${rate} sats/sec, peak RSS ${rss:-0} bytes)"
    entry="$(printf '"%s": {"seconds": %s, "sats_per_sec": %s, "peak_rss_bytes": %s}' "$sats" "$secs" "$rate" "${rss:-0}")"
    scalejson="${scalejson}${scalejson:+, }${entry}"
done
rm -f "$scalebin"

awk -v goversion="$(go env GOVERSION)" -v maxprocs="$(nproc)" \
    -v cold="$cold" -v warm="$warm" -v speedup="$speedup" \
    -v scalejson="$scalejson" '
BEGIN {
    printf "{\n  \"go\": \"%s\",\n  \"gomaxprocs\": %s,\n", goversion, maxprocs
    printf "  \"benchmarks\": {\n"
}
/^Benchmark/ {
    # Each benchmark runs $BENCHCOUNT times; keep the run with the minimum
    # ns/op — the same least-noisy-floor estimator benchdiff compares with,
    # so the pinned baseline and the gate measure the same quantity.
    name = $1
    sub(/-[0-9]+$/, "", name)
    sub(/^Benchmark/, "", name)
    run_ns = 0
    for (i = 3; i < NF; i += 2) {
        if ($(i + 1) == "ns/op") run_ns = $i + 0
    }
    if (!(name in ns)) order[++norder] = name
    if (!(name in ns) || run_ns < ns[name]) {
        ns[name] = run_ns
        fields[name] = sprintf("\"iterations\": %s", $2)
        for (i = 3; i < NF; i += 2) {
            unit = $(i + 1)
            gsub(/\//, "_per_", unit)
            fields[name] = fields[name] sprintf(", \"%s\": %s", unit, $i)
        }
    }
}
END {
    for (k = 1; k <= norder; k++) {
        name = order[k]
        sep = k > 1 ? ",\n" : ""
        printf "%s    \"%s\": {%s}", sep, name, fields[name]
    }
    printf "\n  },\n"
    if (("IncrementalAppend" in ns) && ns["IncrementalColdRebuild"] > 0) {
        printf "  \"incremental\": {\"append_ns_per_op\": %d, \"cold_rebuild_ns_per_op\": %d, \"append_pct_of_cold\": %.4f},\n", \
            ns["IncrementalAppend"], ns["IncrementalColdRebuild"], \
            100 * ns["IncrementalAppend"] / ns["IncrementalColdRebuild"]
    }
    printf "  \"figures_wall_seconds\": {\"cold\": %s, \"warm\": %s, \"speedup\": %s},\n", cold, warm, speedup
    printf "  \"scale_sweep\": {%s}\n}\n", scalejson
}
' "$raw" > "$out"

echo "bench: wrote $out"
