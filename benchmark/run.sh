#!/usr/bin/env bash
# Build the benchmark from source and run it from the repository root.
#
#   bash benchmark/run.sh --workload smp_create --seed 42 --seconds 20 --trace 0
#   bash benchmark/run.sh compare benchmark/results/ref-a benchmark/results/ref-b
#
# Build output goes to stderr, so the last line of stdout is the result JSON.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/dmetabench-perf" "$@"
