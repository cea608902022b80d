#!/usr/bin/env bash
# Two sets of N timed invocations per workload (default N = 10) on seeds
# 101 … 100+N, the sets interleaved A B A B and the workloads taken in
# turn, so a slow spell of the host lands on both sets alike. Then
# compare.py holds the two sets against each other and against the bounds
# of ../BENCHMARK.json; its exit code is this script's.
#
#   repeat.sh [N]
set -euo pipefail

n="${1:-10}"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
dir="$here/out/repeat-$(date +%Y%m%dT%H%M%S)"
mkdir -p "$dir/A" "$dir/B"

workloads="$("$here/run.sh" --list)"
for i in $(seq 1 "$n"); do
    seed=$((100 + i))
    for set in A B; do
        for workload in $workloads; do
            log="$dir/$set/$workload.$seed"
            if ! "$here/run.sh" --workload "$workload" --seed "$seed" --trace 0 \
                >"$log.out" 2>"$log.err"; then
                echo "repeat.sh: $workload seed $seed (set $set) failed, see $log.err" >&2
            fi
        done
    done
    echo "repeat.sh: seed $seed done ($i of $n)" >&2
done

python3 "$here/compare.py" "$dir" "$here/../BENCHMARK.json"
