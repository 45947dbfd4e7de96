#!/usr/bin/env bash
# Shows where the threads of one perfbench run execute.
#
#   scripts/placement.sh <perfbench-binary> <workload> [seconds]
#
# Runs `<perfbench-binary> --workload <workload> --seconds S --seed 1
# --trace 0` (default 10 s) and, every 20 ms while it runs, reads the CPU
# each of its threads last ran on: field 39 of /proc/<pid>/task/*/stat
# (read only). perfbench runs its worlds at `jobs = 1`, so with a spare
# core it has two threads, the world's and the mobility helper's. Prints
# how many samples found the two on the same CPU, on different CPUs, and
# only one thread running, then the run's sim_s_per_wall_s and
# perfbench's own summary line (reference kernel median, rounds). Builtins
# only in the sampling loop, so the probe itself forks nothing while it
# samples.
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
    echo "usage: $0 <perfbench-binary> <workload> [seconds]" >&2
    exit 2
fi
bin=$1 workload=$2 seconds=${3:-10}
out=$(mktemp) err=$(mktemp)
trap 'rm -f "$out" "$err"' EXIT

"$bin" --workload "$workload" --seconds "$seconds" --seed 1 --trace 0 > "$out" 2> "$err" &
pid=$!
# A descriptor that never becomes readable: `read -t` on it is a sleep
# without a fork.
exec {never}<> <(:)
same=0 apart=0 one=0
while kill -0 "$pid" 2> /dev/null; do
    cpus=()
    for stat in /proc/"$pid"/task/*/stat; do
        line=
        # A thread that exited since the glob has no stat any more.
        { read -r line < "$stat"; } 2> /dev/null || true
        [ -n "$line" ] || continue
        # Fields after the parenthesised command name start at field 3.
        read -ra fields <<< "${line##*) }"
        cpus+=("${fields[36]}")
    done
    if [ ${#cpus[@]} -eq 1 ]; then
        one=$((one + 1))
    elif [ ${#cpus[@]} -gt 1 ]; then
        first=${cpus[0]} together=1
        for cpu in "${cpus[@]}"; do
            [ "$cpu" = "$first" ] || together=0
        done
        if [ $together -eq 1 ]; then same=$((same + 1)); else apart=$((apart + 1)); fi
    fi
    read -rt 0.02 -u "$never" || true
done
wait "$pid" || true
rate=$(sed -n 's/.*"sim_s_per_wall_s": {"value": \([-0-9.eE+]*\).*/\1/p' "$out" | tail -n 1)
echo "$workload, $seconds s: same CPU $same, different CPUs $apart, one thread $one samples"
echo "sim_s_per_wall_s ${rate:-?}"
grep -m 1 'reference kernel median' "$err" || true
