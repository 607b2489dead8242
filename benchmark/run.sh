#!/usr/bin/env bash
# Build the benchmark (release, offline) and run it: one process per
# workload, each on one pinned thread.
#
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace 0|1]
#                    [--traced] [--verify] [--smoke]
#
# Without --workload, all four run in turn. --traced is --trace 1;
# --verify is too, because the traced run is the one that carries the
# verify pass (exact-DP re-plans, invariant monitor, traced-vs-untraced
# digest). Every metric prints by name with its unit; the last line of
# each workload's output is the result as one JSON object. Exits non-zero
# if the build or any check fails.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"

workloads=(station-paper station-inflight engine-massive cluster-roaming)
pass=()
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workloads=("$2"); shift 2 ;;
        --traced | --verify) pass+=(--trace 1); shift ;;
        --smoke) pass+=("$1"); shift ;;
        --seed | --seconds | --trace) pass+=("$1" "$2"); shift 2 ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
# A relative CARGO_TARGET_DIR is relative to the caller's directory,
# which is where cargo just resolved it too.
bin="${CARGO_TARGET_DIR:-$here/target}/release/basecache-benchmark"

for workload in "${workloads[@]}"; do
    "$bin" --workload "$workload" --out "$here/out" ${pass[@]+"${pass[@]}"}
done
