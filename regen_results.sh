#!/usr/bin/env bash
# Regenerates every experiment artifact in results/ (text + CSV).
#
# `--sim-only` regenerates only the deterministic virtual-time artifacts
# (REPORT_fig3_sim*.json and fig3_sim*.csv). Those are exact functions of
# the algorithm, the machine model, and the placement — no host timing
# enters them — so tests/committed_artifacts.rs reruns each sweep and
# fails if a committed copy differs from what HEAD produces. The
# fig3_sim*.txt tables carry a host wall-clock column and are left
# untouched in this mode. The analytic tables and figures are the
# `bench::paper` registry, written by `paper --out results`; the same test
# file compares every one of their files with results/ byte for byte.
# Of the other binaries below only ablation_2d_algo embeds wall time (its
# message columns are pinned in tests/e2e_all_algorithms.rs).
set -e
cd "$(dirname "$0")"

SIM_ONLY=0
if [ "${1:-}" = "--sim-only" ]; then
  SIM_ONLY=1
fi

# In --sim-only mode, stdout tables (which embed wall times) go to /dev/null.
sim_txt() {
  if [ "$SIM_ONLY" = 1 ]; then echo /dev/null; else echo "results/$1"; fi
}

if [ "$SIM_ONLY" = 0 ]; then
  echo "== paper (analytic tables and CSVs)"
  cargo run --release -q -p bench --bin paper -- --out results
  echo "== ablation_2d_algo"
  cargo run --release -q -p bench --bin ablation_2d_algo > results/ablation_2d_algo.txt

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
fi

# Executed (virtual-time) strong scaling: `--out results` refreshes the
# CSV and the RunReport that tests/committed_artifacts.rs gates exactly.
# Deterministic: the regenerated artifacts only change when the
# algorithm's traffic or the machine model does.
echo "== fig3_sim"
cargo run --release -q -p bench --bin fig3_sim -- \
  --out results > "$(sim_txt fig3_sim.txt)"

# Collectives ablation on fat nodes (384 ranks/node = 8 nodes at p = 3072):
# flat vs two-level node-aware collectives, same problem and sweep. The
# paper's 24/node placement puts every reduce-group member on a distinct
# node, so the hierarchical variants only engage — and their inter-node
# win only shows — when several members share a node. The tests rerun
# both sweeps and gate that hier moves strictly fewer inter-node bytes
# (and at most half the inter-node messages) than flat.
echo "== fig3_sim collectives ablation (flat vs hier, 384 ranks/node)"
cargo run --release -q -p bench --bin fig3_sim -- \
  --ranks-per-node 384 --collectives flat --out results \
  > "$(sim_txt fig3_sim_flat_r384.txt)"
cargo run --release -q -p bench --bin fig3_sim -- \
  --ranks-per-node 384 --collectives hier --out results \
  > "$(sim_txt fig3_sim_hier_r384.txt)"

if [ "$SIM_ONLY" = 0 ]; then
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
fi
echo "done; artifacts in results/"
