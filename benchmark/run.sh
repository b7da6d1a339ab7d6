#!/usr/bin/env bash
# Build the benchmark from source (offline, release) and run it.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload (--trace needs --workload); the last line of
#       standard output is the result object BENCHMARK.json describes (this is
#       what its `command` is)
#   benchmark/run.sh [--seed N] [--seconds S] [--runs R] [--workload W]
#       every workload, untraced then traced, each run in a fresh process;
#       prints every metric and writes benchmark/out/result-seed<N>.json
#   benchmark/run.sh compare <a.json> <b.json>
#       apply BENCHMARK.json's bounds to two result files
#
# File arguments and a relative CARGO_TARGET_DIR are relative to where the
# caller stands.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# The workloads drive the library in crates/; without it there is nothing to
# measure, and the run fails here before printing any result.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="${CARGO_TARGET_DIR:-$here/target}/release/stat-benchmark"

case "${1:-}" in
    run | all | compare) exec "$bin" "$@" ;;
esac
for arg in "$@"; do
    if [ "$arg" = "--trace" ]; then
        exec "$bin" run "$@"
    fi
done
exec "$bin" all "$@"
