//! The experiment harness: shared machinery for regenerating every table
//! and figure of the paper's evaluation (§IV).
//!
//! Each binary in `src/bin/` regenerates one table or figure; this library
//! holds what they share — the calibrated machine description, the paper's
//! problem classes, and the per-algorithm runtime predictors built on the
//! `netmodel` schedule evaluator. The model is validated against the real
//! threaded runtime by the `model_vs_measured` integration test; see
//! DESIGN.md §1 for the substitution argument and EXPERIMENTS.md for the
//! paper-vs-measured record.

use baselines::{C25d, CosmaLike};
use ca3dmm::{ca3dmm_schedule, ModelConfig};
use gridopt::{ca3dmm_grid, cosma_grid, Grid, Problem, DEFAULT_UTILIZATION_FLOOR};
use netmodel::eval::{evaluate, CostReport};
use netmodel::machine::Placement;
use netmodel::Machine;

/// The four problem classes of §IV-A (Fig. 3/4, Table I sizes).
pub const CPU_CLASSES: [(&str, usize, usize, usize); 4] = [
    ("square  50k,50k,50k", 50_000, 50_000, 50_000),
    ("large-K 6k,6k,1200k", 6_000, 6_000, 1_200_000),
    ("large-M 1200k,6k,6k", 1_200_000, 6_000, 6_000),
    ("flat    100k,100k,5k", 100_000, 100_000, 5_000),
];

/// The GPU problem sizes of Table III.
pub const GPU_CLASSES: [(&str, usize, usize, usize); 4] = [
    ("square  50k,50k,50k", 50_000, 50_000, 50_000),
    ("large-K 10k,10k,300k", 10_000, 10_000, 300_000),
    ("large-M 300k,10k,10k", 300_000, 10_000, 10_000),
    ("flat    50k,50k,10k", 50_000, 50_000, 10_000),
];

/// The strong-scaling core counts of Fig. 3/4 and Table I.
pub const CPU_SWEEP: [usize; 5] = [192, 384, 768, 1536, 3072];

/// Which library a prediction is for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algo {
    /// CA3DMM (this paper).
    Ca3dmm,
    /// COSMA as described in §III-C.
    Cosma,
    /// CTF's 2.5D implementation (with its layout-conversion overhead).
    Ctf,
}

impl Algo {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Algo::Ca3dmm => "CA3DMM",
            Algo::Cosma => "COSMA",
            Algo::Ctf => "CTF",
        }
    }
}

/// One modeled run configuration.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// Rank↦node/compute mapping.
    pub placement: Placement,
    /// Model the user-layout (1D column) conversion phases.
    pub custom_layout: bool,
}

/// Predicted cost of `algo` on `prob` (where `prob.p` counts *ranks*).
pub fn predict(machine: &Machine, algo: Algo, prob: &Problem, cfg: &RunConfig) -> CostReport {
    predict_with_grid(machine, algo, prob, cfg, None)
}

/// Like [`predict`] but with an explicit grid (Table II's forced grids).
pub fn predict_with_grid(
    machine: &Machine,
    algo: Algo,
    prob: &Problem,
    cfg: &RunConfig,
    grid: Option<Grid>,
) -> CostReport {
    let sched = match algo {
        Algo::Ca3dmm => {
            let grid = grid.unwrap_or_else(|| ca3dmm_grid(prob, DEFAULT_UTILIZATION_FLOOR).grid);
            let mc = ModelConfig {
                placement: cfg.placement,
                elem_bytes: 8.0,
                overlap: true,
                include_redist: cfg.custom_layout,
                collectives: ca3dmm::Collectives::Flat,
            };
            ca3dmm_schedule(prob, &grid, &mc)
        }
        Algo::Cosma => {
            let alg = CosmaLike::new(*prob, grid);
            alg.schedule(&cfg.placement, cfg.custom_layout)
        }
        Algo::Ctf => {
            // CTF always converts into its internal cyclic layout, so the
            // layout overhead applies even in the "native" series.
            C25d::new(*prob, None).schedule(&cfg.placement)
        }
    };
    evaluate(machine, cfg.placement.flops_per_rank, &sched)
}

/// The default CA3DMM/COSMA grid for a problem (for reporting).
pub fn default_grid(algo: Algo, prob: &Problem) -> Grid {
    match algo {
        Algo::Ca3dmm => ca3dmm_grid(prob, DEFAULT_UTILIZATION_FLOOR).grid,
        Algo::Cosma => cosma_grid(prob, DEFAULT_UTILIZATION_FLOOR).grid,
        Algo::Ctf => {
            let alg = C25d::new(*prob, None);
            Grid::new(alg.s, alg.s, alg.c)
        }
    }
}

/// Percentage of machine peak achieved by a predicted runtime:
/// `2·m·n·k / t` over the aggregate raw peak of the ranks.
pub fn percent_of_peak(
    machine: &Machine,
    prob: &Problem,
    placement: &Placement,
    total_s: f64,
) -> f64 {
    let flops = 2.0 * prob.m as f64 * prob.n as f64 * prob.k as f64;
    let peak = machine.peak_flops(prob.p, placement);
    100.0 * (flops / total_s) / peak
}

/// Opens a CSV writer for an experiment when `BENCH_CSV_DIR` is set;
/// figure binaries call this to dump their series as machine-readable
/// artifacts next to the human-readable stdout tables.
pub fn csv_writer(name: &str) -> Option<std::io::BufWriter<std::fs::File>> {
    let dir = std::env::var("BENCH_CSV_DIR").ok()?;
    std::fs::create_dir_all(&dir).ok()?;
    let f = std::fs::File::create(std::path::Path::new(&dir).join(format!("{name}.csv"))).ok()?;
    Some(std::io::BufWriter::new(f))
}

pub mod timing;

/// Pretty-prints one row of dotted columns.
pub fn row(cols: &[String]) -> String {
    cols.iter()
        .map(|c| format!("{c:>12}"))
        .collect::<Vec<_>>()
        .join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predictions_are_positive_and_ordered() {
        let machine = Machine::phoenix_cpu();
        let cfg = RunConfig {
            placement: machine.pure_mpi(),
            custom_layout: false,
        };
        for (_, m, n, k) in CPU_CLASSES {
            let small = predict(&machine, Algo::Ca3dmm, &Problem::new(m, n, k, 192), &cfg);
            let large = predict(&machine, Algo::Ca3dmm, &Problem::new(m, n, k, 3072), &cfg);
            assert!(small.total_s > 0.0 && large.total_s > 0.0);
            assert!(
                large.total_s < small.total_s,
                "no strong scaling for {m}x{n}x{k}"
            );
        }
    }

    #[test]
    fn custom_layout_is_slower() {
        let machine = Machine::phoenix_cpu();
        let p = machine.pure_mpi();
        let prob = Problem::new(6_000, 6_000, 1_200_000, 768);
        let native = predict(
            &machine,
            Algo::Ca3dmm,
            &prob,
            &RunConfig {
                placement: p,
                custom_layout: false,
            },
        );
        let custom = predict(
            &machine,
            Algo::Ca3dmm,
            &prob,
            &RunConfig {
                placement: p,
                custom_layout: true,
            },
        );
        assert!(
            custom.total_s > native.total_s * 1.2,
            "layout conversion should hurt tall-skinny"
        );
    }

    #[test]
    fn ctf_lags_on_tall_skinny() {
        // The paper's Fig. 3: CTF clearly behind on large-M.
        let machine = Machine::phoenix_cpu();
        let p = machine.pure_mpi();
        let cfg = RunConfig {
            placement: p,
            custom_layout: false,
        };
        let prob = Problem::new(1_200_000, 6_000, 6_000, 1536);
        let ca = predict(&machine, Algo::Ca3dmm, &prob, &cfg);
        let ctf = predict(&machine, Algo::Ctf, &prob, &cfg);
        assert!(
            ctf.total_s > 1.5 * ca.total_s,
            "CTF {:.2}s vs CA3DMM {:.2}s",
            ctf.total_s,
            ca.total_s
        );
    }

    #[test]
    fn percent_of_peak_sane() {
        let machine = Machine::phoenix_cpu();
        let placement = machine.pure_mpi();
        let prob = Problem::new(50_000, 50_000, 50_000, 1536);
        let cfg = RunConfig {
            placement,
            custom_layout: false,
        };
        let r = predict(&machine, Algo::Ca3dmm, &prob, &cfg);
        let pct = percent_of_peak(&machine, &prob, &placement, r.total_s);
        assert!(pct > 10.0 && pct <= 100.0, "square class peak {pct:.1}%");
    }
}
