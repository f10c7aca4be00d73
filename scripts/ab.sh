#!/usr/bin/env bash
# A/B of one end-to-end benchmark metric: a parent commit against the
# working tree, by the rule of the choosing-metrics and simplicity-review
# guides. Clones <parent-ref> into a scratch directory (under $TMPDIR),
# builds both benchmark/ binaries into separate target directories, runs
# them in alternating order, and prints every pair, both medians, the
# parent's inter-quartile spread and the win count. A gain is real when
# the change wins at least nine tenths of the pairs (ties count for
# neither side) and the medians differ by more than the parent's spread.
#
#   scripts/ab.sh <parent-ref> <workload> <metric> [pairs=10]
#   scripts/ab.sh HEAD~1 chain_threads cpu_us_per_stable_tuple
set -euo pipefail

[ $# -ge 3 ] || { sed -n '2,14p' "$0" >&2; exit 2; }
ref=$1 workload=$2 metric=$3 pairs=${4:-10}
root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$root/BENCHMARK.json")
better=$(sed -n "s/.*\"name\": *\"$metric\"[^}]*\"better\": *\"\([a-z]*\)\".*/\1/p" "$root/BENCHMARK.json")
[ -n "$better" ] || { echo "ab.sh: $metric is not a metric of BENCHMARK.json" >&2; exit 2; }

scratch=$(mktemp -d "${TMPDIR:-/tmp}/borealis-ab.XXXXXX")
trap 'rm -rf "$scratch"' EXIT
git clone --quiet "$root" "$scratch/parent"
git -C "$scratch/parent" checkout --quiet --detach "$(git -C "$root" rev-parse "$ref")"
for side in parent change; do
    src=$root; [ $side = parent ] && src=$scratch/parent
    CARGO_TARGET_DIR=$scratch/target-$side cargo build --quiet --release --offline \
        --manifest-path "$src/benchmark/Cargo.toml"
done

# One run of a side from its own checkout; prints the metric's value.
run() {
    local src=$root; [ "$1" = parent ] && src=$scratch/parent
    (cd "$src" && "$scratch/target-$1/release/bench" --workload "$workload" \
        --seed 7 --seconds "$seconds" --trace 0) | tail -n 1 |
        sed -n "s/.*\"$metric\": *{\"value\": *\([-0-9.e+]*\).*/\1/p"
}
# Quantile $1 of the values on stdin, by linear interpolation.
quantile() {
    sort -g | awk -v q="$1" '{ v[NR] = $1 }
        END { p = (NR - 1) * q + 1; lo = int(p); hi = lo < NR ? lo + 1 : lo
              print v[lo] + (v[hi] - v[lo]) * (p - lo) }'
}

echo "$workload $metric ($better is better), $pairs pairs of ${seconds}s runs, parent $ref"
for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) = 1 ]; then p=$(run parent); c=$(run change); first=parent
    else c=$(run change); p=$(run parent); first=change; fi
    [ -n "$p" ] && [ -n "$c" ] || { echo "ab.sh: a run printed no $metric (end_to_end metrics only)" >&2; exit 1; }
    echo "$p" >>"$scratch/parent.txt"; echo "$c" >>"$scratch/change.txt"
    echo "pair $i ($first first): parent $p  change $c"
done

pm=$(quantile 0.5 <"$scratch/parent.txt"); cm=$(quantile 0.5 <"$scratch/change.txt")
iqr=$(awk -v a="$(quantile 0.25 <"$scratch/parent.txt")" -v b="$(quantile 0.75 <"$scratch/parent.txt")" 'BEGIN { print b - a }')
paste "$scratch/parent.txt" "$scratch/change.txt" | awk -v better="$better" -v n="$pairs" \
    -v pm="$pm" -v cm="$cm" -v iqr="$iqr" '
    { if (better == "lower" ? $2 < $1 : $2 > $1) wins++; else if ($2 != $1) losses++ }
    END { d = better == "lower" ? pm - cm : cm - pm
          printf "median: parent %g  change %g  (change better by %g)\n", pm, cm, d
          printf "parent inter-quartile spread: %g\n", iqr
          printf "change wins %d of %d pairs, loses %d\n", wins, n, losses
          print ((wins >= 0.9 * n && d > iqr) ? "gain" : "no gain") " by the nine-tenths-and-spread rule" }'
