#!/usr/bin/env bash
# Builds the benchmark (offline, against the committed lock file) and runs it.
#
#   benchmark/run.sh [--seed S] [--repeat N] [--check]           the suite
#   benchmark/run.sh --workload W --seed S --seconds N --trace 0|1   one run
#
# See benchmark/README.md.
set -euo pipefail
cd "$(dirname "$0")/.."

target="${CARGO_TARGET_DIR:-benchmark/target}"
build_start=$(date +%s.%N)
cargo build --release --offline --locked --quiet --manifest-path benchmark/Cargo.toml
build_end=$(date +%s.%N)
# The suite reports how long the build took (0.0x s when it was cached).
HT_BENCHMARK_BUILD_S=$(awk "BEGIN { print $build_end - $build_start }")
export HT_BENCHMARK_BUILD_S
exec "$target/release/ht-benchmark" "$@"
