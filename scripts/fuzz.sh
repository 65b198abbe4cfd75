#!/bin/sh
# fuzz.sh — run every fuzz target in the module for 10s of new coverage
# each, after its seed corpus.
#
# The targets come from the code: `go test -list '^Fuzz'` over every
# package `go list ./...` names, so a new Fuzz function runs here without
# editing a list. verify.sh and `make fuzz` both call this script.
#
# -fuzzminimizetime=1x spends each budget on new inputs rather than on
# minimizing them: with the default 60s minimization, FuzzSnapshotRoundTrip
# minimizes mutants of its ~0.5 MB seed and FuzzSortFloat64s minimizes
# nearly every interesting input, so both run only a few hundred inputs in
# their 10s.
set -eu
cd "$(dirname "$0")/.."

list=$(go test -list '^Fuzz' $(go list ./...))
targets=$(printf '%s\n' "$list" | awk '
    /^Fuzz/ { names[n++] = $1; next }
    /^ok/   { for (i = 0; i < n; i++) print $2 " " names[i]; n = 0 }')
if [ -z "$targets" ]; then
    echo "fuzz: no fuzz targets found" >&2
    exit 1
fi

set -- $targets
while [ $# -gt 0 ]; do
    pkg=$1
    target=$2
    shift 2
    echo "== fuzz $pkg $target (10s)"
    go test -run='^$' -fuzz="^${target}\$" -fuzztime=10s -fuzzminimizetime=1x "$pkg"
done
