//! The experiment harness: shared machinery for regenerating every table
//! and figure of the paper's evaluation (§IV).
//!
//! This library holds the calibrated machine description, the paper's
//! problem classes, and the per-algorithm runtime predictors built on the
//! `netmodel` schedule evaluator. The model is validated against the real
//! threaded runtime by the `model_vs_measured` integration test; see
//! DESIGN.md §1 for the substitution argument and EXPERIMENTS.md for the
//! paper-vs-measured record. The paper's deterministic tables ([`paper`]),
//! the executed Fig. 3 sweep behind three of them ([`sim`]) and the
//! `ca3dmm-report` subcommands ([`report`]) are functions here, so the
//! root tests run them against the committed artifacts in `results/`; the
//! binaries in `src/bin/` parse flags and write files.

use baselines::{C25d, CosmaLike};
use ca3dmm::{ca3dmm_schedule, Ca3dmm, ModelConfig, Pgemm};
use dense::part::Rect;
use dense::random::global_block;
use dense::Mat;
use gridopt::{ca3dmm_grid, Grid, Problem, DEFAULT_UTILIZATION_FLOOR};
use msgpass::{Comm, RunOptions, RunReport, RunReportDoc, World};
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
                include_redist: cfg.custom_layout,
                ..native_model(cfg.placement)
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

/// The model of CA3DMM's default run on `placement`: f64 elements on the
/// library-native layouts, overlapped Cannon, flat collectives.
pub fn native_model(placement: Placement) -> ModelConfig {
    ModelConfig {
        placement,
        elem_bytes: 8.0,
        overlap: true,
        include_redist: false,
        collectives: ca3dmm::Collectives::Flat,
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

/// Writes each `(file name, contents)` pair into `dir`, creating it first,
/// and names each path on stderr, so stdout stays the table. Panics,
/// naming the path, on any I/O error, so a run that cannot refresh an
/// artifact does not exit 0.
pub fn write_files(dir: &std::path::Path, files: &[(String, String)]) {
    for (name, text) in files {
        let path = dir.join(name);
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, text))
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        eprintln!("wrote {}", path.display());
    }
}

/// Runs `alg` on its native layouts on `P` threaded ranks under `opts`,
/// with A and B the seeded blocks `global_block(1, ·)` and
/// `global_block(2, ·)`. Returns every rank's native `C` strip (`None` on
/// idle ranks) and the run's report.
pub fn run_seeded(
    alg: &(impl Pgemm + Sync),
    opts: RunOptions,
) -> (Vec<Option<Mat<f64>>>, RunReport) {
    let Problem { m, n, k, p } = *alg.geo().prob();
    let (la, lb) = (alg.layout_a(), alg.layout_b());
    let a_full = global_block::<f64>(1, Rect::new(0, 0, m, k));
    let b_full = global_block::<f64>(2, Rect::new(0, 0, k, n));
    World::run_opts(p, opts, async |ctx| {
        let world = Comm::world(ctx);
        let me = world.rank();
        let a = la.extract(&a_full, me).into_iter().next();
        let b = lb.extract(&b_full, me).into_iter().next();
        alg.multiply_native_async(ctx, &world, a, b).await
    })
}

/// `fig5_breakdown`'s traced run: CA3DMM at `size`³ on `ranks` threaded
/// ranks with default options ([`run_seeded`]), and the run's summary under
/// the meta name `fig5_breakdown_s{size}_p{ranks}` — the document its
/// `--report-out` writes and `results/REPORT_fig5_*.json` hold.
pub fn fig5_traced_run(
    size: usize,
    ranks: usize,
    opts: RunOptions,
) -> (Ca3dmm, RunReport, RunReportDoc) {
    let alg = Ca3dmm::new(Problem::new(size, size, size, ranks), &Default::default());
    let (_, report) = run_seeded(&alg, opts);
    let meta = alg.report_meta(&format!("fig5_breakdown_s{size}_p{ranks}"), &report);
    let summary = report.summary(meta);
    (alg, report, summary)
}

pub mod paper;
pub mod report;
pub mod sim;
pub mod timing;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "Cargo.toml/csv/fig.csv: ")]
    fn a_failed_write_panics_naming_the_path() {
        // A directory below a regular file can never be created.
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml/csv");
        write_files(
            std::path::Path::new(dir),
            &[("fig.csv".into(), "a,b\n".into())],
        );
    }

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
