//! Ablation: Cannon vs SUMMA inside the k-task groups (§III-E, and the
//! first future-work direction of §V).
//!
//! Two comparisons:
//! 1. **Latency analysis** — the paper's closed forms:
//!    `L = log₂(c) + p_s + (p_k − 1)` for CA3DMM-C (eq. 10) versus
//!    `L_SUMMA = p_m(log₂ p_m + p_m − 1) + (p_k − 1)`; the paper proves
//!    `L_SUMMA ≥ L` whenever `p_m ≥ 2`.
//! 2. **Real execution** — both variants run on the threaded runtime at
//!    small scale and their measured wall times and message counts are
//!    compared.
//!
//! ```text
//! cargo run --release -p bench --bin ablation_2d_algo
//! ```

use baselines::Ca3dmmSumma;
use bench::run_seeded;
use ca3dmm::{Ca3dmm, Ca3dmmOptions};
use gridopt::{ca3dmm_grid, Grid, Problem};
use msgpass::RunOptions;
use std::time::Instant;

fn eq10_latency(g: &Grid) -> f64 {
    let c = g.cannon_c() as f64;
    let ps = g.cannon_s() as f64;
    c.log2() + ps + (g.pk as f64 - 1.0)
}

fn summa_latency(g: &Grid) -> f64 {
    let pm = g.pm.max(g.pn) as f64;
    if pm < 2.0 {
        return g.pk as f64 - 1.0;
    }
    pm * (pm.log2() + pm - 1.0) + (g.pk as f64 - 1.0)
}

fn main() {
    println!("Ablation: CA3DMM-C (Cannon) vs CA3DMM-S (SUMMA), §III-E\n");
    println!("Theoretical latencies (paper eq. 10 vs L_SUMMA):");
    println!(
        "{:>14} | {:>10} {:>10} {:>8}",
        "grid", "L (Cannon)", "L_SUMMA", "ratio"
    );
    for (m, n, k, p) in [
        (50_000, 50_000, 50_000, 2048),
        (6_000, 6_000, 1_200_000, 2048),
        (100_000, 100_000, 5_000, 2048),
        (50_000, 50_000, 50_000, 3072),
    ] {
        let g = ca3dmm_grid(&Problem::new(m, n, k, p), 0.95).grid;
        let lc = eq10_latency(&g);
        let ls = summa_latency(&g);
        println!(
            "{:>4},{:>4},{:>4} | {:>10.0} {:>10.0} {:>8.1}",
            g.pm,
            g.pn,
            g.pk,
            lc,
            ls,
            ls / lc
        );
        assert!(ls >= lc, "paper's §III-E inequality violated");
    }

    println!("\nReal execution (threaded runtime, wall time and messages):");
    println!(
        "{:>16} {:>5} | {:>12} {:>12} | {:>10} {:>10}",
        "problem", "P", "Cannon (ms)", "SUMMA (ms)", "msgs C", "msgs S"
    );
    for (m, n, k, p) in [
        (240usize, 240, 240, 16),
        (120, 120, 960, 16),
        (480, 480, 60, 16),
    ] {
        let prob = Problem::new(m, n, k, p);
        let grid = ca3dmm_grid(&prob, 0.95).grid;
        let options = Ca3dmmOptions {
            grid_override: Some(grid),
            ..Default::default()
        };
        // Both timings include building the algorithm on the same forced
        // grid and generating the operands.
        let t = Instant::now();
        let (_, rep_c) = run_seeded(&Ca3dmm::new(prob, &options), RunOptions::traced());
        let t_c = t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        let (_, rep_s) = run_seeded(&Ca3dmmSumma::new(prob, Some(grid)), RunOptions::traced());
        let t_s = t.elapsed().as_secs_f64() * 1e3;

        println!(
            "{:>5}x{:<4}x{:<4} {:>5} | {:>12.1} {:>12.1} | {:>10} {:>10}",
            m,
            n,
            k,
            p,
            t_c,
            t_s,
            rep_c.max_rank_msgs(),
            rep_s.max_rank_msgs()
        );
    }
    println!("\nPaper conclusion (§III-E): Cannon's latency is never worse; the");
    println!("shift pattern also pipelines with compute, so CA3DMM uses Cannon.");
}
