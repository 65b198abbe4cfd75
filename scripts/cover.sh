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
#   5. fail if internal/spacetrack (the serving plane: COW catalog,
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
#  11. fail if the module-wide total covers < 70%.
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

lintpct="$(printf '%s\n' "$out" | awk '$2 == "cosmicdance/internal/lint" {
    for (i = 1; i <= NF; i++) if ($i ~ /%$/) { sub(/%/, "", $i); print $i }
}')"
if [ -z "$lintpct" ]; then
    echo "cover: no coverage line for cosmicdance/internal/lint" >&2
    exit 1
fi
floor "internal/lint" "$lintpct" 85

artifactpct="$(printf '%s\n' "$out" | awk '$2 == "cosmicdance/internal/artifact" {
    for (i = 1; i <= NF; i++) if ($i ~ /%$/) { sub(/%/, "", $i); print $i }
}')"
if [ -z "$artifactpct" ]; then
    echo "cover: no coverage line for cosmicdance/internal/artifact" >&2
    exit 1
fi
floor "internal/artifact" "$artifactpct" 80

obspct="$(printf '%s\n' "$out" | awk '$2 == "cosmicdance/internal/obs" {
    for (i = 1; i <= NF; i++) if ($i ~ /%$/) { sub(/%/, "", $i); print $i }
}')"
if [ -z "$obspct" ]; then
    echo "cover: no coverage line for cosmicdance/internal/obs" >&2
    exit 1
fi
floor "internal/obs" "$obspct" 88

spacetrackpct="$(printf '%s\n' "$out" | awk '$2 == "cosmicdance/internal/spacetrack" {
    for (i = 1; i <= NF; i++) if ($i ~ /%$/) { sub(/%/, "", $i); print $i }
}')"
if [ -z "$spacetrackpct" ]; then
    echo "cover: no coverage line for cosmicdance/internal/spacetrack" >&2
    exit 1
fi
floor "internal/spacetrack" "$spacetrackpct" 80

loadsimpct="$(printf '%s\n' "$out" | awk '$2 == "cosmicdance/internal/loadsim" {
    for (i = 1; i <= NF; i++) if ($i ~ /%$/) { sub(/%/, "", $i); print $i }
}')"
if [ -z "$loadsimpct" ]; then
    echo "cover: no coverage line for cosmicdance/internal/loadsim" >&2
    exit 1
fi
floor "internal/loadsim" "$loadsimpct" 80

constellationpct="$(printf '%s\n' "$out" | awk '$2 == "cosmicdance/internal/constellation" {
    for (i = 1; i <= NF; i++) if ($i ~ /%$/) { sub(/%/, "", $i); print $i }
}')"
if [ -z "$constellationpct" ]; then
    echo "cover: no coverage line for cosmicdance/internal/constellation" >&2
    exit 1
fi
floor "internal/constellation" "$constellationpct" 80

corepct="$(printf '%s\n' "$out" | awk '$2 == "cosmicdance/internal/core" {
    for (i = 1; i <= NF; i++) if ($i ~ /%$/) { sub(/%/, "", $i); print $i }
}')"
if [ -z "$corepct" ]; then
    echo "cover: no coverage line for cosmicdance/internal/core" >&2
    exit 1
fi
floor "internal/core" "$corepct" 80

incrementalpct="$(printf '%s\n' "$out" | awk '$2 == "cosmicdance/internal/incremental" {
    for (i = 1; i <= NF; i++) if ($i ~ /%$/) { sub(/%/, "", $i); print $i }
}')"
if [ -z "$incrementalpct" ]; then
    echo "cover: no coverage line for cosmicdance/internal/incremental" >&2
    exit 1
fi
floor "internal/incremental" "$incrementalpct" 80

tlepct="$(printf '%s\n' "$out" | awk '$2 == "cosmicdance/internal/tle" {
    for (i = 1; i <= NF; i++) if ($i ~ /%$/) { sub(/%/, "", $i); print $i }
}')"
if [ -z "$tlepct" ]; then
    echo "cover: no coverage line for cosmicdance/internal/tle" >&2
    exit 1
fi
floor "internal/tle" "$tlepct" 80

totalpct="$(go tool cover -func="$profile" | awk '/^total:/ {
    for (i = 1; i <= NF; i++) if ($i ~ /%$/) { sub(/%/, "", $i); print $i }
}')"
if [ -z "$totalpct" ]; then
    echo "cover: no total line in cover -func output" >&2
    exit 1
fi
floor "total" "$totalpct" 70

echo "cover: OK"
