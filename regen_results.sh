#!/usr/bin/env bash
# Regenerates every experiment artifact in results/ (text + CSV + JSON).
#
# `paper --out results` writes every deterministic artifact: the
# `bench::paper` registry's analytic tables and figures, the
# Cannon-vs-SUMMA ablation (ablation_2d_algo.txt) and the executed
# (virtual-time) Fig. 3 sweeps, fig3_sim*.{txt,csv} and
# REPORT_fig3_sim*.json. Those are exact functions of the algorithm, the
# machine model, and the placement — no host timing enters them — so
# tests/committed_artifacts.rs recomputes every one and fails if a
# committed copy differs from what HEAD produces. `--sim-only` runs that
# one call and nothing else; the steps below write the host-timed
# artifacts.
set -e
cd "$(dirname "$0")"

echo "== paper (analytic tables, executed Fig. 3 sweeps, CSVs and reports)"
cargo run --release -q -p bench --bin paper -- --out results
if [ "${1:-}" = "--sim-only" ]; then
  echo "done; artifacts in results/"
  exit 0
fi

# Local GEMM thread-tier sweep -> results/BENCH_gemm.json. The absolute
# gflops are host-specific; what the committed artifact pins is the tier
# contract (t1/t2/t4/tauto + scaling_efficiency for every shape/type),
# which tests/committed_artifacts.rs checks with the rules of
# `validate_bench_json --gemm-tiers`.
echo "== local_gemm (BENCH_gemm.json)"
# Absolute path: `cargo bench` runs the binary from crates/bench, not here.
# A failed JSON write panics the bench (nonzero exit), so stderr can stay
# on the terminal and the committed txt stays free of compiler warnings.
BENCH_JSON_DIR="$PWD/results" BENCH_SAMPLES="${BENCH_SAMPLES:-5}" \
  cargo bench -q -p bench --bench local_gemm > results/local_gemm.txt

# Grid-search + serving-plan construction cost -> BENCH_grid_search.json.
# The plan_build/ entries record what one ca3dmm-serve cache miss costs
# (and therefore what every subsequent hit on that shape saves).
echo "== grid_search (BENCH_grid_search.json)"
BENCH_JSON_DIR="$PWD/results" BENCH_SAMPLES="${BENCH_SAMPLES:-5}" \
  cargo bench -q -p bench --bench grid_search > results/grid_search.txt

# The small traced-run RunReport that tests/committed_artifacts.rs gates
# exactly.
# Traffic is deterministic; only the (ungated) wall times vary run to run.
echo "== REPORT_fig5_small"
cargo run --release -q -p bench --bin fig5_breakdown -- \
  --report-out results/REPORT_fig5_small.json --trace-ranks 4 --trace-size 96 \
  > /dev/null

# The profiled counterpart: the same 4-rank run with the dense::prof
# kernel profiler capturing, so the committed artifact carries a
# compute block (per-rank pack/compute/idle attribution and
# roofline numbers). tests/committed_artifacts.rs reruns it and gates
# the *traffic* exactly against the committed copy —
# compute timings are host-specific and are only checked for presence
# and internal reconciliation (which RunReportDoc::parse enforces).
echo "== REPORT_fig5_prof"
cargo run --release -q -p bench --bin fig5_breakdown -- --prof \
  --report-out results/REPORT_fig5_prof.json --trace-ranks 4 --trace-size 96 \
  > /dev/null
echo "done; artifacts in results/"
