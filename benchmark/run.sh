#!/usr/bin/env bash
# Build the benchmark (offline, into $CARGO_TARGET_DIR or benchmark/target)
# and run it. One workload per process, so the peak resident set is the
# workload's own.
#
#   run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#                      one run; the last stdout line is the result object
#   run.sh [--seed <n>] [--seconds <s>] [--trace <0|1>]
#                      all five workloads, timed then traced
#   run.sh --smoke     every workload at 2 reps per series and every probe
#                      once, same validation (for CI; well under 30 s)
#   run.sh --list      the workload names
#   run.sh --spec      the text of ../BENCHMARK.json
#
# Everything it writes goes under benchmark/out/ and the target directory.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac

cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
bin="$target/release/ftsg-benchmark"

one=0
traces="0 1"
prev=""
for arg in "$@"; do
    case "$arg" in
        --workload | --list | --spec) one=1 ;;
    esac
    if [ "$prev" = "--trace" ]; then
        traces="$arg"
    fi
    prev="$arg"
done

if [ "$one" = 1 ]; then
    exec "$bin" --out "$here/out" "$@"
fi

status=0
for trace in $traces; do
    for workload in $("$bin" --list); do
        "$bin" --out "$here/out" "$@" --workload "$workload" --trace "$trace" || status=1
    done
done
exit "$status"
