#!/usr/bin/env bash
# abpairs.sh — the benchmark's A/B recipe: alternating pairs of the parent
# commit against the checkout, read by the rule a claimed gain must meet.
#
#   scripts/abpairs.sh PARENT_REV WORKLOAD PAIRS [SECONDS]
#
# The parent is extracted with `git archive` under .bench_build/abpairs/, so
# no worktree is made and .git is not touched. Pair i runs
# `bash bench/run.sh --workload WORKLOAD --seed i --seconds SECONDS --trace 0`
# in both trees, the parent first on odd pairs and the checkout first on
# even ones. SECONDS defaults to BENCHMARK.json's run_seconds.
#
# For every end-to-end metric BENCHMARK.json lists, the summary gives each
# side's median and quartiles over the pairs, change/parent of the medians,
# and the pairs the change won in the metric's `better` direction (ties
# count for neither side). The rule column says whether a gain could be
# claimed: the change wins at least nine tenths of the pairs, and its median
# is better than the parent's by more than the parent's interquartile range.
# Every run's value is kept in .bench_build/abpairs/WORKLOAD.tsv.
#
# Exits 1 if any run reports "correct": false or prints no result line.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 3 ] || [ $# -gt 4 ]; then
	echo "usage: $0 PARENT_REV WORKLOAD PAIRS [SECONDS]" >&2
	exit 2
fi
rev=$1 workload=$2 pairs=$3
seconds=${4:-$(awk -F'[:,]' '/"run_seconds"/ { gsub(/ /, "", $2); print $2 }' BENCHMARK.json)}
case "$pairs" in
'' | *[!0-9]* | 0)
	echo "abpairs: PAIRS must be a positive integer, got '$pairs'" >&2
	exit 2
	;;
esac

# name better, one line per end-to-end metric.
metrics=$(awk '
/"end_to_end"/ { on = 1; next }
on && /^[[:space:]]*\]/ { on = 0 }
on && /"name"/ { v = $0; sub(/.*"name": *"/, "", v); sub(/".*/, "", v); name = v }
on && /"better"/ { v = $0; sub(/.*"better": *"/, "", v); sub(/".*/, "", v); print name, v }
' BENCHMARK.json)

root=$PWD
base="$root/.bench_build/abpairs"
# Re-extracting over an earlier extraction of the same revision rewrites
# every file it tracked and keeps that tree's build cache.
parent="$base/parent-$(git rev-parse "$rev")"
mkdir -p "$parent"
git archive "$rev" | tar -x -C "$parent"
tsv="$base/$workload.tsv"
: >"$tsv"

bad=0
# run SIDE TREE PAIR: one benchmark run; appends "pair side metric value"
# lines to the TSV.
run() {
	local side=$1 tree=$2 pair=$3 out line
	out="$base/$workload-$side-$pair.out"
	(cd "$tree" && bash bench/run.sh --workload "$workload" --seed "$pair" --seconds "$seconds" --trace 0) >"$out" 2>&1 || true
	line=$(grep '^{"correct"' "$out" | tail -n 1 || true)
	if [ -z "$line" ]; then
		echo "pair $pair $side: no result line (see $out)"
		bad=1
		return
	fi
	case "$line" in
	*'"correct":true'*) ;;
	*)
		echo "pair $pair $side: correct=false (see $out)"
		bad=1
		;;
	esac
	while read -r name _; do
		v=$(printf '%s\n' "$line" | grep -o "\"$name\":{\"value\":[^,}]*" | sed 's/.*://' || true)
		if [ -n "$v" ]; then
			printf '%s\t%s\t%s\t%s\n' "$pair" "$side" "$name" "$v" >>"$tsv"
		fi
	done <<<"$metrics"
	echo "pair $pair $side: $(awk -v p="$pair" -v s="$side" -F'\t' '$1 == p && $2 == s { printf "%s=%s ", $3, $4 }' "$tsv")"
}

for ((i = 1; i <= pairs; i++)); do
	if ((i % 2 == 1)); then
		run parent "$parent" "$i"
		run change "$root" "$i"
	else
		run change "$root" "$i"
		run parent "$parent" "$i"
	fi
done

echo
echo "$workload: $pairs pairs, parent $(git rev-parse --short "$rev") vs checkout, seeds 1..$pairs, ${seconds}s runs"
awk -F'\t' -v metrics="$metrics" -v pairs="$pairs" '
# q returns the p-quantile of the sorted a[1..n], interpolating linearly.
function q(a, n, p,    h, lo) {
	if (n == 0) return "nan"
	h = (n - 1) * p + 1
	lo = int(h)
	if (lo >= n) return a[n]
	return a[lo] + (h - lo) * (a[lo + 1] - a[lo])
}
function sorted(side, m, a,    n, i, j, t) {
	n = 0
	for (i = 1; i <= pairs; i++) if ((i, side, m) in val) a[++n] = val[i, side, m]
	for (i = 2; i <= n; i++) for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
	return n
}
{ val[$1, $2, $3] = $4 + 0 }
END {
	printf "%-18s %-6s %32s %32s %8s %6s  %s\n", "metric", "better", "parent median [q1, q3]", "change median [q1, q3]", "chg/par", "wins", "rule"
	n = split(metrics, lines, "\n")
	for (k = 1; k <= n; k++) {
		split(lines[k], f, " ")
		m = f[1]; better = f[2]
		np = sorted("parent", m, pa); nc = sorted("change", m, ca)
		if (np == 0 || nc == 0) { printf "%-18s %-6s no values\n", m, better; continue }
		pm = q(pa, np, 0.5); p1 = q(pa, np, 0.25); p3 = q(pa, np, 0.75)
		cm = q(ca, nc, 0.5); c1 = q(ca, nc, 0.25); c3 = q(ca, nc, 0.75)
		wins = 0; both = 0
		for (i = 1; i <= pairs; i++) {
			if (!((i, "parent", m) in val) || !((i, "change", m) in val)) continue
			both++
			d = val[i, "change", m] - val[i, "parent", m]
			if ((better == "lower" && d < 0) || (better == "higher" && d > 0)) wins++
		}
		gap = (better == "lower") ? pm - cm : cm - pm
		holds = (wins * 10 >= 9 * both && both > 0 && gap > p3 - p1) ? "holds" : "does not hold"
		ratio = (pm != 0) ? sprintf("%.3f", cm / pm) : "n/a"
		printf "%-18s %-6s %12.6g [%8.6g, %8.6g] %12.6g [%8.6g, %8.6g] %8s %3d/%-2d  %s\n", m, better, pm, p1, p3, cm, c1, c3, ratio, wins, both, holds
	}
}' "$tsv"

if [ "$bad" -ne 0 ]; then
	echo "abpairs: at least one run was not correct" >&2
	exit 1
fi
