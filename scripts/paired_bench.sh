#!/usr/bin/env bash
# Measures the working tree against a base revision on one or more
# perfbench workloads, in alternating pairs of runs.
#
#   scripts/paired_bench.sh <base-rev> <workloads> [pairs] [seconds] [seed]
#
# <workloads> is one workload or a comma-separated list, e.g.
# `interception,highway-scale,sparse-highway`. Exports and builds
# <base-rev> as prove_inert.sh does and builds the working tree, once
# each, then for each workload W in turn runs `perfbench --workload W
# --seconds S --seed N --trace 0` once per side per pair (default 5 pairs
# of 30 s runs, seed 1). Odd pairs run the base first, even pairs the
# change first, so drift on a shared host does not favour one side.
# Prints, per workload, each pair's end-to-end metrics (base -> change)
# and, per metric, the median change/base ratio and how many pairs the
# change won. Exits 1 if any run reports "correct": false or failed > 0
# (that workload's summary is then replaced by a FAILED line and the
# remaining workloads still run). The temporary directory is removed on
# exit.
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 5 ]; then
    echo "usage: $0 <base-rev> <workload>[,<workload>...] [pairs] [seconds] [seed]" >&2
    exit 2
fi
base_rev=$1 workloads=$2 pairs=${3:-5} seconds=${4:-30} seed=${5:-1}
root=$(git rev-parse --show-toplevel)
# shellcheck source=scripts/base_checkout.sh
. "$root/scripts/base_checkout.sh"
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# The end-to-end metrics of BENCHMARK.json and whether higher is better.
metrics="sim_s_per_wall_s:higher run_wall_ms_p50:lower slice_ms_p50:lower slice_ms_p90:lower setup_s:lower peak_rss_mb:lower"

base_sha=$(checkout_base "$root" "$base_rev" "$work/base")
echo "base:   $base_rev ($base_sha)"
echo "change: working tree of $root"
build_side "$root"

# run WORKLOAD SIDE PAIR: one perfbench run; keeps its JSON line as
# $work/SIDE.PAIR.
run() {
    local dir
    if [ "$2" = base ]; then dir=$work/base; else dir=$root; fi
    "$dir/perfbench/target/release/perfbench" --workload "$1" --seconds "$seconds" \
        --seed "$seed" --trace 0 2> /dev/null | tail -n 1 > "$work/$2.$3" || true
}

# field FILE METRIC: the metric's value in a perfbench JSON line.
field() {
    sed -n "s/.*\"$2\": {\"value\": \([-0-9.eE+]*\).*/\1/p" "$1"
}

# shown FILE METRIC: the value to four significant digits, or "?".
shown() {
    local v
    v=$(field "$1" "$2")
    if [ -n "$v" ]; then printf '%.4g' "$v"; else printf '?'; fi
}

# bench WORKLOAD: the pairs of one workload, then its summary. Returns 1
# if a run failed.
bench() {
    local workload=$1 p order side line f m name better failed=0
    echo "workload $workload, seed $seed, $pairs pairs of $seconds s runs"
    for p in $(seq 1 "$pairs"); do
        if [ $((p % 2)) -eq 1 ]; then order="base change"; else order="change base"; fi
        for side in $order; do run "$workload" "$side" "$p"; done
        line="pair $p (${order%% *} first):"
        for side in base change; do
            f=$work/$side.$p
            if ! grep -q '"correct": true' "$f" || ! grep -q '"failed": 0,' "$f"; then
                echo "FAIL: $side run of pair $p: $(head -c 200 "$f")"
                failed=1
            fi
        done
        for m in $metrics; do
            name=${m%%:*}
            line="$line $name $(shown "$work/base.$p" "$name") -> $(shown "$work/change.$p" "$name")"
        done
        echo "$line"
    done

    if [ $failed -ne 0 ]; then
        echo "FAILED: a $workload run reported incorrect results or failed operations"
        return 1
    fi

    echo "$workload median change/base ratio (wins = pairs where the change is better):"
    for m in $metrics; do
        name=${m%%:*} better=${m##*:}
        for p in $(seq 1 "$pairs"); do
            echo "$(field "$work/base.$p" "$name") $(field "$work/change.$p" "$name")"
        done | awk -v name="$name" -v better="$better" '
            { r[NR] = $2 / $1; if ($2 != $1 && (better == "higher") == ($2 > $1)) wins++ }
            END {
                n = NR
                for (i = 2; i <= n; i++)
                    for (j = i; j > 1 && r[j - 1] > r[j]; j--) { t = r[j]; r[j] = r[j - 1]; r[j - 1] = t }
                med = (n % 2) ? r[(n + 1) / 2] : (r[n / 2] + r[n / 2 + 1]) / 2
                printf "  %-17s %.3f (%+.1f %%), %d/%d wins\n", name, med, (med - 1) * 100, wins, n
            }'
    done
}

status=0
IFS=, read -ra list <<< "$workloads"
for workload in "${list[@]}"; do
    bench "$workload" || status=1
done
exit $status
