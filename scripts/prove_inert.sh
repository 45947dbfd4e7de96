#!/usr/bin/env bash
# Proves that the working tree is behaviourally inert against a base
# revision: every simulated history must be bit-identical.
#
#   scripts/prove_inert.sh <base-rev>
#
# Exports <base-rev> with `git archive` into a temporary directory, builds
# the `repro` CLI and `perfbench` on both sides (offline, release), then
#   1. diffs each side's `perfbench --print-reference` against the working
#      tree's perfbench/reference.txt;
#   2. runs both sides' `repro` with the same flags (audit, topology for
#      both scenarios, trace + forensics, and a two-run CSV campaign of
#      fig7a fig8 fig9a fig9src fig10 fig12a fig13 fig14a fig14b ext-loss
#      ext-mobile ext-ack) and `cmp`s every artifact. The campaign covers
#      every entry point of the seeded campaign runner: A/B pairs of both
#      families (fig7a, fig8, fig9a, fig10, ext-loss), the source split
#      (fig9src), merged single-side runs (fig14a, fig14b) and the channel
#      load count (ext-ack). fig13 moves static nodes from its own
#      driver on `World` (`World::set_node_position`) with a
#      power-capped blockage replay, ext-mobile moves the attacker and
#      ext-ack runs link acknowledgements under attack; none of the
#      other runs reach those paths. A third, 400 s campaign (fig7a fig12a) runs long enough for
#      vehicles spawned during the run to reach the exit and for new ones
#      to enter behind them; the 30 s runs end before either happens.
#      Both campaigns run twice: at repro's default --jobs (the core
#      count, so no core is spare and every world steps its traffic
#      inline) and at --jobs 1, where a spare core lets each world step
#      its traffic on a helper thread (DESIGN.md, "Mobility plane ahead").
#   3. runs the working tree's history pins (crates/scenarios/tests/
#      audit.rs) and beacon-log oracle (crates/scenarios/tests/
#      beacon_log.rs) in release. Every world logs its beacons: the
#      --audit, --topology and --trace artifacts of step 2 attach a trace
#      sink, so they exercise the logged path's in-order tracing, and
#      every artifact its lazy folds. The pins (recorded when traced
#      worlds delivered every frame as an event of its own) and the
#      oracle (traced, bare and telemetry worlds on random
#      configurations) cover both directly.
# Prints one line per check and exits 1 on any difference, 0 otherwise.
# The temporary directory is removed on exit.
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 <base-rev>" >&2
    exit 2
fi
base_rev=$1
root=$(git rev-parse --show-toplevel)
# shellcheck source=scripts/base_checkout.sh
. "$root/scripts/base_checkout.sh"
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# Writes every artifact of one side into directory $2 using repro binary $1.
# Progress lines (stderr) carry wall times, so they go to a log beside it.
artifacts() {
    local repro=$1 out=$2
    mkdir -p "$out"
    {
        "$repro" --duration 30 --seed 42 --audit "$out/a" > "$out/audit.txt"
        "$repro" --duration 30 --seed 42 --topology "$out/ti" > "$out/topo-interception.txt"
        "$repro" --duration 30 --seed 42 --topology "$out/tb" --topology-scenario blockage \
            > "$out/topo-blockage.txt"
        "$repro" --duration 30 --seed 42 --trace "$out/tr" --forensics > "$out/forensics.txt"
        "$repro" --runs 2 --duration 30 --seed 42 --csv fig7a fig8 fig9a fig9src fig10 fig12a \
            fig13 fig14a fig14b ext-loss ext-mobile ext-ack > "$out/campaign.csv"
        "$repro" --runs 1 --duration 400 --seed 42 --csv fig7a fig12a > "$out/long-campaign.csv"
        "$repro" --runs 2 --duration 30 --seed 42 --jobs 1 --csv fig7a fig8 fig9a fig9src fig10 \
            fig12a fig13 fig14a fig14b ext-loss ext-mobile ext-ack > "$out/campaign-jobs1.csv"
        "$repro" --runs 1 --duration 400 --seed 42 --jobs 1 --csv fig7a fig12a \
            > "$out/long-campaign-jobs1.csv"
    } 2> "$out.stderr.log"
}

base_sha=$(checkout_base "$root" "$base_rev" "$work/base")
echo "base:   $base_rev ($base_sha)"
echo "change: working tree of $root"
build_side "$root"

status=0
for side in base change; do
    if [ "$side" = base ]; then dir=$work/base; else dir=$root; fi
    if "$dir/perfbench/target/release/perfbench" --print-reference 2>/dev/null \
        | diff -u "$root/perfbench/reference.txt" - > "$work/$side.reference.diff"; then
        echo "reference ($side): identical to perfbench/reference.txt"
    else
        echo "reference ($side): DIFF"
        cat "$work/$side.reference.diff"
        status=1
    fi
done

artifacts "$work/base/target/release/repro" "$work/out-base"
artifacts "$root/target/release/repro" "$work/out-change"

base_files=$(cd "$work/out-base" && ls)
change_files=$(cd "$work/out-change" && ls)
if [ "$base_files" != "$change_files" ]; then
    echo "artifact lists differ:"
    diff <(echo "$base_files") <(echo "$change_files") || true
    status=1
fi
same=0
for f in $base_files; do
    if [ -f "$work/out-change/$f" ] && cmp -s "$work/out-base/$f" "$work/out-change/$f"; then
        same=$((same + 1))
    else
        echo "DIFF $f"
        status=1
    fi
done
echo "artifacts: $same of $(echo "$base_files" | wc -w) cmp-equal"

if (cd "$root" && cargo test --release --offline --quiet -p geonet-scenarios \
    --test audit --test beacon_log > "$work/tests.log" 2>&1); then
    echo "pins and oracle (change): pass"
else
    echo "pins and oracle (change): FAIL"
    tail -n 40 "$work/tests.log"
    status=1
fi

if [ $status -eq 0 ]; then
    echo "inert: no difference"
else
    echo "NOT inert"
fi
exit $status
