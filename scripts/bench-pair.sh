#!/usr/bin/env bash
# Paired comparison of a base revision against the working tree on one
# workload of the federation benchmark:
#
#   scripts/bench-pair.sh BASE WORKLOAD [METRIC]     (make bench-pair)
#
# Both trees are copied into a temporary directory and built there once
# (bench/run.sh builds into the tree it sits in), then ten pairs of runs
# of BENCHMARK.json's run length alternate which side goes first. Pair k
# uses seed SEED+k-1 (SEED defaults to 1) on both sides. For METRIC, or
# without one for every end-to-end metric of BENCHMARK.json, it prints
# each side's median and quartiles, the pairs the working tree won, and
# whether that meets the rule for claiming a gain — at least nine of ten
# pairs won, and medians apart by more than the base's interquartile
# range — or exceeds the metric's regression bound.
set -euo pipefail

usage="usage: bench-pair.sh BASE WORKLOAD [METRIC]"
base=${1:?$usage}
workload=${2:?$usage}
seed=${SEED:-1}
pairs=10

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
# The end-to-end metrics, one "name better bound" per line.
spec="$(grep '"bound":' "$root/BENCHMARK.json" | sed 's/[",{}:]/ /g' | awk '{print $2, $6, $8}')"
if [ $# -ge 3 ]; then
	spec="$(echo "$spec" | awk -v m="$3" '$1 == m')"
	if [ -z "$spec" ]; then
		echo "bench-pair: $3 is not an end-to-end metric of BENCHMARK.json" >&2
		exit 2
	fi
fi

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base" "$tmp/tree"
git -C "$root" archive "$base" | tar -x -C "$tmp/base"
tar -C "$root" --exclude=./.git --exclude=./.bench_build -cf - . | tar -x -C "$tmp/tree"

# run SIDE SEED appends the result line of one run of that side to
# $tmp/SIDE.jsonl.
run() {
	local out
	# An invalid run exits nonzero; its last line still says why.
	out="$(bash "$tmp/$1/bench/run.sh" --workload "$workload" --seed "$2" --trace 0 2>&1 | tail -n 1 || true)"
	case "$out" in
	'{"correct":true,'*) echo "$out" >>"$tmp/$1.jsonl" ;;
	*)
		echo "bench-pair: $1 run with seed $2 did not pass its gate: $out" >&2
		exit 1
		;;
	esac
}

echo "building $base and the working tree ..." >&2
for side in base tree; do
	bash "$tmp/$side/bench/run.sh" --workload "$workload" --seconds 1 >/dev/null 2>&1 || true
done

for k in $(seq 1 "$pairs"); do
	s=$((seed + k - 1))
	if [ $((k % 2)) -eq 1 ]; then
		run base "$s"
		run tree "$s"
	else
		run tree "$s"
		run base "$s"
	fi
	echo "pair $k of $pairs (seed $s) done" >&2
done

# values SIDE METRIC prints that metric of every run of that side.
values() {
	grep -o "\"$2\":{\"value\":[-0-9.e+]*" "$tmp/$1.jsonl" | cut -d: -f3
}

echo "$workload: $base against the working tree, $pairs pairs, seeds $seed..$((seed + pairs - 1))"
echo "$spec" | while read -r metric better bound; do
	paste -d' ' <(values base "$metric") <(values tree "$metric") |
		awk -v metric="$metric" -v better="$better" -v bound="$bound" '
# quartile i of the sorted s[1..m], by the exclusive method bench/stats.go uses.
function quart(s, m, i,    j, d) {
	if (m == 1) return s[1]
	j = int(i * (m + 1) / 4); if (j < 1) j = 1; if (j > m - 1) j = m - 1
	d = i * (m + 1) - j * 4
	return (s[j] * (4 - d) + s[j + 1] * d) / 4
}
function sort(a, m,    i, j, t) {
	for (i = 2; i <= m; i++) for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
}
{
	n++; b[n] = $1; t[n] = $2
	if (better == "higher" ? $2 > $1 : $2 < $1) won++
	else if ($2 != $1) lost++
}
END {
	sort(b, n); sort(t, n)
	bm = quart(b, n, 2); tm = quart(t, n, 2); iqr = quart(b, n, 3) - quart(b, n, 1)
	gain = better == "higher" ? tm - bm : bm - tm
	verdict = "no gain to claim"
	if (won * 10 >= 9 * n && gain > iqr) verdict = "a gain may be claimed"
	else if (-gain > bound * bm) verdict = "WORSE THAN ITS BOUND"
	printf "%s (%s is better)\n", metric, better
	printf "  base  median %-10g quartiles %g .. %g\n", bm, quart(b, n, 1), quart(b, n, 3)
	printf "  tree  median %-10g quartiles %g .. %g\n", tm, quart(t, n, 1), quart(t, n, 3)
	printf "  tree won %d, lost %d; %+.1f%% of the base median (bound %g%%, base interquartile range %.1f%%): %s\n",
		won + 0, lost + 0, 100 * gain / bm, 100 * bound, 100 * iqr / bm, verdict
}'
done
