#!/usr/bin/env bash
# A/B of one benchmark workload: a parent commit against the working tree,
# by the rule of the choosing-metrics and simplicity-review guides. Clones
# <parent-ref> and copies the working tree (what git tracks or would track)
# into a scratch directory (under $TMPDIR), so nothing is built in the
# working tree — cargo would rewrite the frozen benchmark/Cargo.lock there.
# Builds both benchmark/ binaries into separate target directories, runs
# them in alternating order at one seed (7 by default; 11 is the held-out
# seed), and reports every end-to-end metric of BENCHMARK.json from the
# same runs: each pair, both medians, the parent's inter-quartile spread
# (IQR) and that spread as a share of the parent's median — the smallest
# change the runs can resolve — the wins, whether the change is a gain — it
# wins at least nine tenths of the pairs (ties count for neither side) and
# the medians differ by more than the parent's spread — and whether its
# median is worse than the parent's by more than the metric's bound
# (BENCHMARK.json's regression rule). Where the parent's spread is wider
# than the bound that verdict reads `unresolved`, not `no`, unless every
# change run beats every parent run. `failed` is summed over each side's
# runs.
#
#   scripts/ab.sh <parent-ref> <workload> [pairs=10] [seed=7]
#   scripts/ab.sh HEAD~1 chain_tcp 10 11
set -euo pipefail

[ $# -ge 2 ] || { sed -n '2,22p' "$0" >&2; exit 2; }
ref=$1 workload=$2 pairs=${3:-10} seed=${4:-7}
root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$root/BENCHMARK.json")
# One line per end-to-end metric (the entries that carry a bound):
# name, which direction is better, bound.
metrics=$(sed -n 's/.*"name": *"\([a-z0-9_]*\)"[^}]*"better": *"\([a-z]*\)", *"bound": *\([0-9.]*\).*/\1 \2 \3/p' \
    "$root/BENCHMARK.json")
names=$(echo "$metrics" | cut -d' ' -f1)

scratch=$(mktemp -d "${TMPDIR:-/tmp}/borealis-ab.XXXXXX")
trap 'rm -rf "$scratch"' EXIT
git clone --quiet "$root" "$scratch/parent"
git -C "$scratch/parent" checkout --quiet --detach "$(git -C "$root" rev-parse "$ref")"
mkdir "$scratch/change"
git -C "$root" ls-files -z --cached --others --exclude-standard |
    tar -C "$root" --null -T - --ignore-failed-read -cf - 2>/dev/null | tar -C "$scratch/change" -xf -
for side in parent change; do
    CARGO_TARGET_DIR=$scratch/target-$side cargo build --quiet --release --offline \
        --manifest-path "$scratch/$side/benchmark/Cargo.toml"
done

# One run of a side from its own checkout: appends each metric's value to
# $scratch/<side>.<metric> and the run's `failed` to $scratch/<side>.failed.
run() {
    (cd "$scratch/$1" && "$scratch/target-$1/release/bench" --workload "$workload" \
        --seed "$seed" --seconds "$seconds" --trace 0 2>"$scratch/stderr") |
        tail -n 1 >"$scratch/last" || true
    for m in $names; do
        v=$(sed -n "s/.*\"$m\": *{\"value\": *\([-0-9.e+]*\).*/\1/p" "$scratch/last")
        [ -n "$v" ] || { cat "$scratch/stderr" >&2; echo "ab.sh: a $1 run printed no $m" >&2; exit 1; }
        echo "$v" >>"$scratch/$1.$m"
    done
    sed -n 's/.*"failed": *\([0-9]*\).*/\1/p' "$scratch/last" >>"$scratch/$1.failed"
}
# Quantile $1 of the values on stdin, by linear interpolation.
quantile() {
    sort -g | awk -v q="$1" '{ v[NR] = $1 }
        END { p = (NR - 1) * q + 1; lo = int(p); hi = lo < NR ? lo + 1 : lo
              print v[lo] + (v[hi] - v[lo]) * (p - lo) }'
}

echo "$workload, seed $seed, $pairs pairs of ${seconds}s runs, parent $ref (parent → change)"
for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) = 1 ]; then run parent; run change; first=parent
    else run change; run parent; first=change; fi
    line="pair $i ($first first):"
    for m in $names; do
        line="$line $m $(tail -n 1 "$scratch/parent.$m") → $(tail -n 1 "$scratch/change.$m");"
    done
    echo "$line"
done

printf '%-24s %-6s %10s %10s %8s %10s %7s %8s  %-7s %s\n' metric better parent change delta \
    parent-iqr iqr-% wins gain "worse than bound?"
echo "$metrics" | while read -r m better bound; do
    pm=$(quantile 0.5 <"$scratch/parent.$m"); cm=$(quantile 0.5 <"$scratch/change.$m")
    iqr=$(awk -v a="$(quantile 0.25 <"$scratch/parent.$m")" \
        -v b="$(quantile 0.75 <"$scratch/parent.$m")" 'BEGIN { print b - a }')
    paste "$scratch/parent.$m" "$scratch/change.$m" | awk -v m="$m" -v better="$better" \
        -v bound="$bound" -v n="$pairs" -v pm="$pm" -v cm="$cm" -v iqr="$iqr" '
        { if (better == "lower" ? $2 < $1 : $2 > $1) wins++
          if (NR == 1 || $1 < pmin) pmin = $1; if (NR == 1 || $1 > pmax) pmax = $1
          if (NR == 1 || $2 < cmin) cmin = $2; if (NR == 1 || $2 > cmax) cmax = $2 }
        END { d = better == "lower" ? pm - cm : cm - pm
              worse = better == "lower" ? cm > pm * (1 + bound) : cm < pm * (1 - bound)
              spread = pm ? 100 * iqr / pm : 0
              apart = better == "lower" ? cmax < pmin : cmin > pmax
              verdict = worse ? "WORSE" : (spread > 100 * bound && !apart) ? "unresolved" : "no"
              printf "%-24s %-6s %10g %10g %+7.1f%% %10g %6.1f%% %4d/%-3d  %-7s %s (bound %g%%)\n", m, better,
                  pm, cm, pm ? 100 * (cm - pm) / pm : 0, iqr, spread, wins, n,
                  (wins >= 0.9 * n && d > iqr) ? "gain" : "no", verdict, 100 * bound }'
done
sum() { awk '{ s += $1 } END { print s + 0 }' "$1"; }
echo "failed: parent $(sum "$scratch/parent.failed"), change $(sum "$scratch/change.failed") (over $pairs runs a side)"
