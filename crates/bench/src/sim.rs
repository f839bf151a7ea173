//! Figure 3 by *execution*: the sweep behind the three `fig3_sim*`
//! entries of [`crate::paper`], for any [`SimConfig`]. Algorithm 1 runs on
//! the `msgpass` virtual-time backend at paper-scale process counts
//! (p = 192…3072). Every send, receive, collective and local GEMM of the
//! real executor is charged virtual seconds against the paper's machine
//! ([`Machine::phoenix_cpu`], 24 ranks/node by default); the local GEMMs
//! themselves are skipped (`execute_compute = false`) — at these sizes the
//! arithmetic would dwarf the simulation, and the flop *charge* is what the
//! figure needs. Skipping them also makes the run shape-only: the blocks
//! are zero-sized (`dense::Shape64`), so no matrix data is stored or moved.
//!
//! Beside each simulated point the analytic model's prediction for the
//! same problem, grid and machine is printed, with the model's overlap
//! branch and collective mode matching the executed configuration. The
//! table therefore doubles as a sim-vs-model cross-check, which
//! `ca3dmm-report netdiff` repeats offline from the artifact.
//!
//! The problem is fixed at m = n = 3072, k = 6144: big enough that every
//! phase moves real traffic, and chosen so the grid the step-1 search
//! picks at p = 3072 (8×16×24) divides all three dimensions exactly and
//! `mb·nb` divides by `pk` — block shapes are uniform, reduce-scatter
//! chunks are even, and the measured per-phase byte counts match the
//! model's closed forms to the byte, which is what lets the root test
//! `tests/committed_artifacts.rs` gate them exactly.

use crate::{percent_of_peak, CPU_SWEEP};
use ca3dmm::{ca3dmm_schedule, Ca3dmm, Ca3dmmOptions, Collectives, ModelConfig};
use gridopt::Problem;
use msgpass::SimOptions;
use netmodel::eval::evaluate;
use netmodel::Machine;
use std::fmt::Write;

/// The fixed problem of the simulated sweep (see module docs).
const M: usize = 3072;
const N: usize = 3072;
const K: usize = 6144;

/// One configuration of the sweep.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Cannon's §III-F dual-buffered pipeline (the default) or the
    /// blocking ablation.
    pub overlap: bool,
    /// Flat or two-level node-aware allgather / reduce-scatter.
    pub collectives: Collectives,
    /// Overrides the placement's 24 ranks/node.
    pub ranks_per_node: Option<usize>,
    /// Simulates one point instead of the sweep.
    pub ranks: Option<usize>,
}

impl Default for SimConfig {
    fn default() -> SimConfig {
        SimConfig {
            overlap: true,
            collectives: Collectives::Flat,
            ranks_per_node: None,
            ranks: None,
        }
    }
}

/// Runs the sweep and returns its files as `(file name, contents)`: the
/// table `{stem}.txt` (virtual seconds, % of peak and the model's seconds
/// per point), the CSV `{stem}.csv` (`cores,grid,sim_secs,pct_peak,
/// model_secs`) and the last point's virtual-time `RunReport`
/// `REPORT_{stem}.json`. Every non-default setting adds to the stem
/// `fig3_sim`, so its files sit next to the default ones instead of
/// clobbering them: `_{flat|hier}_r{N}` when the collective mode or the
/// node size is set, `_blocking` without overlap, and `_p{P}` for a single
/// point. The report is named after the stem without that `_p{P}`, plus
/// the last point's `_p{P}`.
pub fn fig3_sim(cfg: &SimConfig) -> Vec<(String, String)> {
    let machine = Machine::phoenix_cpu();
    let mut placement = machine.pure_mpi();
    if let Some(rpn) = cfg.ranks_per_node {
        assert!(rpn >= 1, "ranks per node must be at least 1");
        placement.ranks_per_node = rpn;
    }
    let mut suffix = String::new();
    if cfg.collectives != Collectives::Flat || cfg.ranks_per_node.is_some() {
        suffix = format!(
            "_{}_r{}",
            cfg.collectives.as_str(),
            placement.ranks_per_node
        );
    }
    if !cfg.overlap {
        suffix += "_blocking";
    }
    let (sweep, stem) = match cfg.ranks {
        Some(p) => (vec![p], format!("fig3_sim{suffix}_p{p}")),
        None => (CPU_SWEEP.to_vec(), format!("fig3_sim{suffix}")),
    };

    let mut table = format!(
        "Figure 3 (executed): CA3DMM {M}x{N}x{K} on {} — virtual time, overlap {}, {} collectives\n\
         Pure MPI placement: {} ranks/node.\n\n\
         {:>6} {:>10} | {:>12} {:>8} | {:>12}\n",
        machine.name,
        if cfg.overlap { "on" } else { "off" },
        cfg.collectives.as_str(),
        placement.ranks_per_node,
        "ranks",
        "grid",
        "sim (s)",
        "% peak",
        "model (s)"
    );
    let mut csv = String::from("cores,grid,sim_secs,pct_peak,model_secs\n");
    let (mut report, last) = (String::new(), *sweep.last().expect("non-empty sweep"));
    for p in sweep {
        let prob = Problem::new(M, N, K, p);
        let alg = Ca3dmm::new(
            prob,
            &Ca3dmmOptions {
                overlap: cfg.overlap,
                collectives: cfg.collectives,
                ..Default::default()
            },
        );
        let grid = *alg.grid_context().grid();

        let run = alg.simulate_native(
            &machine,
            SimOptions {
                placement: Some(placement),
                execute_compute: false,
            },
        );
        let makespan = run.sim.as_ref().expect("virtual-time run").makespan_secs;

        let model_cfg = ModelConfig {
            overlap: cfg.overlap,
            collectives: cfg.collectives,
            ..crate::native_model(placement)
        };
        let model = evaluate(
            &machine,
            placement.flops_per_rank,
            &ca3dmm_schedule(&prob, &grid, &model_cfg),
        )
        .total_s;
        let grid = format!("{}x{}x{}", grid.pm, grid.pn, grid.pk);
        let pct = percent_of_peak(&machine, &prob, &placement, makespan);
        let _ = writeln!(
            table,
            "{p:>6} {grid:>10} | {makespan:>12.6} {pct:>7.1}% | {model:>12.6}"
        );
        let _ = writeln!(csv, "{p},{grid},{makespan:.9},{pct:.2},{model:.9}");
        if p == last {
            let meta = alg.report_meta(&format!("fig3_sim{suffix}_p{p}"), &run);
            report = run.to_json(meta).to_string_pretty();
        }
    }
    table += "\nSeconds are virtual (machine-model) time. The executed sim and the\n\
              closed-form model agree on traffic exactly; times differ only\n\
              because the sim prices every hop individually while the model\n\
              prices each phase's critical link.\n";
    vec![
        (format!("{stem}.txt"), table),
        (format!("{stem}.csv"), csv),
        (format!("REPORT_{stem}.json"), report),
    ]
}
