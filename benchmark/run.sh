#!/usr/bin/env bash
# Builds the benchmark and runs it from the repository root, leaving the
# result JSON (and, with --trace, one Chrome trace per workload) under
# benchmark/out/. Arguments are passed through to `benchmark run`, e.g.
#
#   benchmark/run.sh                      # full protocol, all four workloads
#   benchmark/run.sh --trace              # traced run: per-layer ledger
#   benchmark/run.sh --quick              # smoke run (2 rounds x 1 s)
#   benchmark/run.sh --workload sim_scale --seed 7
set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- run "$@"
