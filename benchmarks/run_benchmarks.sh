#!/usr/bin/env bash
# Run the kernel microbenchmarks and save a machine-readable baseline.
#
# Usage:
#   benchmarks/run_benchmarks.sh [output.json]
#
# The JSON written by pytest-benchmark is the artifact the hot-path
# acceptance bars are read from:
#   - test_bench_bucketing[source_block-scatter] must be >= 2x faster than
#     test_bench_bucketing[source_block-argsort] on the 1M-edge block;
#   - test_bench_routed_expansion[routed] must beat [legacy], the naive
#     expand + argsort baseline;
#   - test_bench_hop_matrix[batched] must beat [loop].
# Compare against the committed baseline in benchmarks/baselines/.

set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
OUT="${1:-${REPO_ROOT}/benchmarks/baselines/bench_kernels.json}"

mkdir -p "$(dirname "${OUT}")"

cd "${REPO_ROOT}"
PYTHONPATH=src python -m pytest benchmarks/bench_kernels.py \
    --benchmark-only \
    --benchmark-sort=name \
    --benchmark-json="${OUT}" \
    "${@:2}"

echo "benchmark baseline written to ${OUT}"

# End-to-end generation trajectory (edges/sec, bytes shuffled, per-stage
# wall time, batch vs async pipeline) via the telemetry layer; the committed
# BENCH_generation.json at the repo root is the seed baseline to diff
# against.
PYTHONPATH=src python benchmarks/trajectory.py \
    --out "${REPO_ROOT}/BENCH_generation.json"
