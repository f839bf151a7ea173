//! The `grid_explorer` example's table as a function: how CA3DMM and COSMA
//! choose 3D process grids across the paper's four problem classes and
//! process counts — a console companion to Table II and the reasoning of
//! §III-A/§IV-B. The root test `tests/committed_artifacts.rs` compares it
//! byte for byte with `results/grid_explorer.txt`.

use ca3dmm::{ca3dmm_schedule, ModelConfig};
use gridopt::{ca3dmm_grid, cosma_grid, GridChoice, Problem, DEFAULT_UTILIZATION_FLOOR};
use netmodel::eval::evaluate;
use netmodel::Machine;
use std::fmt::Write;

/// For each shape and P: both searches' grids, the process utilization,
/// the communication-volume-to-lower-bound ratio, and the modeled runtime
/// on the paper's cluster (pure MPI placement).
pub fn table() -> String {
    let machine = Machine::phoenix_cpu();
    let placement = machine.pure_mpi();
    let shapes: [(&str, usize, usize, usize); 4] = [
        ("square  (50k^3)", 50_000, 50_000, 50_000),
        ("large-K (6k,6k,1.2M)", 6_000, 6_000, 1_200_000),
        ("large-M (1.2M,6k,6k)", 1_200_000, 6_000, 6_000),
        ("flat    (100k,100k,5k)", 100_000, 100_000, 5_000),
    ];
    let procs = [192usize, 384, 768, 1536, 2048, 3072];
    let mut out = String::new();
    for (name, m, n, k) in shapes {
        writeln!(out, "== {name}: m={m} n={n} k={k} ==").unwrap();
        writeln!(
            out,
            "{:>6} | {:>14} {:>5} {:>6} {:>9} | {:>14} {:>6}",
            "P", "CA3DMM grid", "util", "Q/LB", "t_model", "COSMA grid", "util"
        )
        .unwrap();
        for p in procs {
            let prob = Problem::new(m, n, k, p);
            let ca: GridChoice = ca3dmm_grid(&prob, DEFAULT_UTILIZATION_FLOOR);
            let co: GridChoice = cosma_grid(&prob, DEFAULT_UTILIZATION_FLOOR);
            let cfg = ModelConfig {
                placement,
                elem_bytes: 8.0,
                overlap: true,
                include_redist: false,
                collectives: ca3dmm::Collectives::Flat,
            };
            let sched = ca3dmm_schedule(&prob, &ca.grid, &cfg);
            let cost = evaluate(&machine, placement.flops_per_rank, &sched);
            writeln!(
                out,
                "{:>6} | {:>4}x{:<4}x{:<4} {:>4.0}% {:>6.2} {:>8.2}s | {:>4}x{:<4}x{:<4} {:>5.0}%",
                p,
                ca.grid.pm,
                ca.grid.pn,
                ca.grid.pk,
                ca.utilization(p) * 100.0,
                ca.volume_ratio(&prob),
                cost.total_s,
                co.grid.pm,
                co.grid.pn,
                co.grid.pk,
                co.utilization(p) * 100.0,
            )
            .unwrap();
        }
        out.push('\n');
    }
    out += "Q/LB: per-process communication volume over the eq. 9 lower bound.\n";
    out += "t_model: CA3DMM runtime under the alpha-beta-gamma machine model\n";
    out + &format!("         ({}; pure MPI, 1 rank per core).\n", machine.name)
}
