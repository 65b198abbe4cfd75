#!/bin/sh
# cover.sh — the coverage gate behind `make cover`:
#
#   1. run the short test suite with -coverprofile,
#   2. fail if internal/lint (the analyzer guarding every other
#      invariant) covers < 85% of its statements,
#   3. fail if internal/artifact (the snapshot codec that must fail
#      closed on every malformed input) covers < 80% of its statements,
#   4. fail if internal/obs (the telemetry layer every pipeline package
#      links against — a bug here corrupts every diagnosis; now also the
#      trace/flight-recorder/SLO plane) covers < 88% of its statements,
#   5. fail if internal/spacetrack (the serving plane: the catalog,
#      admission control, conditional fetch) covers < 80%,
#   6. fail if internal/loadsim (the deterministic load harness whose
#      reports gate serving changes) covers < 80%,
#   7. fail if internal/constellation (shell presets, chunk planning,
#      and per-chunk RNG streams — the determinism substrate of the
#      chunked scale-out path) covers < 80%,
#   8. fail if internal/core (chunk partials, the ordered assembler,
#      and every cleaning invariant the equivalence matrix leans on)
#      covers < 80%,
#   9. fail if internal/incremental (the watermark engine behind the live
#      decay-risk feed — its prefix-replay determinism is load-bearing)
#      covers < 80%,
#  10. fail if internal/tle (the TLE codec: the only encoder behind every
#      served element set, and the parser that validates every ingest)
#      covers < 80%,
#  11. fail if internal/dst (the hourly Dst index every analysis reads,
#      its storm detection and the WDC record codec) covers < 90%,
#  12. fail if the module-wide total covers < 70%.
#
# The floors are deliberately asymmetric: the linter and the codec are
# small and pure logic, so they are held to a higher bar than the
# tree-wide figure, which includes thin cmd/ and examples/ mains.
set -eu
cd "$(dirname "$0")/.."

profile="${COVER_PROFILE:-$(mktemp -t cosmicdance-cover.XXXXXX)}"
trap 'rm -f "$profile"' EXIT

echo "== go test -short -coverprofile ./..."
out="$(go test -short -coverprofile="$profile" ./...)" || {
    printf '%s\n' "$out"
    exit 1
}
printf '%s\n' "$out"

floor() {
    # floor <label> <actual-percent> <minimum>
    awk -v label="$1" -v got="$2" -v min="$3" 'BEGIN {
        if (got + 0 < min + 0) {
            printf "cover: %s at %s%% is below the %s%% floor\n", label, got, min
            exit 1
        }
        printf "cover: %s %s%% (floor %s%%)\n", label, got, min
    }'
}

pkgfloor() {
    # pkgfloor <package> <minimum>, the package's percentage read from the
    # test output
    pct="$(printf '%s\n' "$out" | awk -v pkg="cosmicdance/$1" '$2 == pkg {
        for (i = 1; i <= NF; i++) if ($i ~ /%$/) { sub(/%/, "", $i); print $i }
    }')"
    if [ -z "$pct" ]; then
        echo "cover: no coverage line for cosmicdance/$1" >&2
        exit 1
    fi
    floor "$1" "$pct" "$2"
}

pkgfloor internal/lint 85
pkgfloor internal/artifact 80
pkgfloor internal/obs 88
pkgfloor internal/spacetrack 80
pkgfloor internal/loadsim 80
pkgfloor internal/constellation 80
pkgfloor internal/core 80
pkgfloor internal/incremental 80
pkgfloor internal/tle 80
pkgfloor internal/dst 90

totalpct="$(go tool cover -func="$profile" | awk '/^total:/ {
    for (i = 1; i <= NF; i++) if ($i ~ /%$/) { sub(/%/, "", $i); print $i }
}')"
if [ -z "$totalpct" ]; then
    echo "cover: no total line in cover -func output" >&2
    exit 1
fi
floor "total" "$totalpct" 70

echo "cover: OK"
