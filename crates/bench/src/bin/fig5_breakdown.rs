//! Figure 5: relative runtime breakdowns of COSMA and CA3DMM for the
//! 2048-core tests of Table II. For each problem class, timings are
//! normalized so COSMA's total is 1 (as in the paper). CA3DMM's
//! "replicate A,B" includes Algorithm 1 step 5 *and* the cost of shifting
//! A and B blocks in Cannon's algorithm, exactly as the paper's caption
//! states.
//!
//! ```text
//! cargo run --release -p bench --bin fig5_breakdown
//! ```
//!
//! With `--trace-out PATH` the binary additionally *runs* a small CA3DMM
//! problem for real on the threaded `msgpass` runtime with event tracing
//! enabled, writes the per-rank timeline as a Chrome/Perfetto trace JSON to
//! PATH, and prints the run summary's dashboard (phase table, critical
//! path, communication matrix, size histograms) plus the model-vs-measured
//! phase diff. `--trace-ranks N` (default 16) and `--trace-size S`
//! (default 256, meaning an S×S×S problem) size the traced run.
//! `--report-out PATH` writes the run's versioned `RunReport` JSON artifact
//! (communication matrix, size histograms, wait attribution) to PATH —
//! the input format of the `ca3dmm-report` dashboard and CI gate; it
//! implies a traced run even without `--trace-out`.
//!
//! `--prof` enables the `dense::prof` kernel profiler for the traced run
//! (the one switch; runs are unprofiled otherwise): the artifact gains the
//! schema-v3 `compute` block (per-rank GEMM phase split, roofline, pool
//! telemetry), the Chrome trace gains per-rank kernel-thread tracks, and the
//! dashboard gains its per-rank compute-attribution table.

use bench::{predict_with_grid, Algo, RunConfig};
use ca3dmm::{ca3dmm_schedule, diff_phase_rows, Ca3dmm, Ca3dmmOptions, ModelConfig};
use dense::part::Rect;
use dense::random::global_block;
use dense::Mat;
use gridopt::{Grid, Problem};
use msgpass::{Comm, RunOptions, World};
use netmodel::eval::evaluate;
use netmodel::Machine;

/// Runs a real traced CA3DMM multiply under `opts`; writes the Chrome trace
/// and/or the RunReport artifact.
fn traced_run(
    path: Option<&str>,
    report_out: Option<&str>,
    ranks: usize,
    size: usize,
    opts: RunOptions,
) {
    let prob = Problem::new(size, size, size, ranks);
    let alg = Ca3dmm::new(prob, &Ca3dmmOptions::default());
    let gc = alg.grid_context();
    let grid = *gc.grid();
    let (la, lb) = (gc.layout_a(), gc.layout_b());
    let a_full = global_block::<f64>(1, Rect::new(0, 0, size, size));
    let b_full = global_block::<f64>(2, Rect::new(0, 0, size, size));
    // World::run sets this same cap on every rank thread, so the traced
    // comm/compute split reflects non-oversubscribed compute: ranks *
    // threads-per-rank never exceeds the host's kernel-thread budget.
    println!(
        "kernel threads: {} per rank x {} ranks (budget {})",
        dense::pool::rank_threads_for(ranks),
        ranks,
        dense::pool::base_gemm_threads()
    );
    let (_, report) = World::run_opts(ranks, opts, async |ctx| {
        let world = Comm::world(ctx);
        let me = world.rank();
        let a = la.extract(&a_full, me).into_iter().next();
        let b = lb.extract(&b_full, me).into_iter().next();
        let _: Option<Mat<f64>> = alg.multiply_native_async(ctx, &world, a, b).await;
    });

    println!(
        "traced {}x{}x{} on {} ranks (grid {}x{}x{}): {} spans",
        size,
        size,
        size,
        ranks,
        grid.pm,
        grid.pn,
        grid.pk,
        report.timeline.span_count(),
    );
    if let Some(path) = path {
        // RunReport-level export: merges kernel-thread tracks (profiled
        // runs) under each rank; identical to the plain timeline export
        // when profiling is off.
        let json = report.to_chrome_json();
        std::fs::write(path, &json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("chrome trace -> {path}");
    }
    let meta = alg.report_meta(&format!("fig5_breakdown_s{size}_p{ranks}"), &report);
    let summary = report.summary(meta);
    if let Some(path) = report_out {
        let json = summary.to_json().to_string_pretty();
        std::fs::write(path, &json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("run report -> {path}");
    }
    println!("\n{}", summary.render_dashboard());

    let machine = Machine::uniform();
    let placement = machine.pure_mpi();
    let cfg = ModelConfig {
        placement,
        elem_bytes: 8.0,
        overlap: true,
        include_redist: false,
        collectives: ca3dmm::Collectives::Flat,
    };
    let cost = evaluate(
        &machine,
        placement.flops_per_rank,
        &ca3dmm_schedule(&prob, &grid, &cfg),
    );
    println!(
        "model vs measured (structural; absolute scales differ):\n{}",
        diff_phase_rows(&summary.phases, &cost).render()
    );
}

fn main() {
    let mut args = std::env::args().skip(1);
    let (mut trace_out, mut report_out, mut trace_ranks, mut trace_size) =
        (None::<String>, None::<String>, 16usize, 256usize);
    let mut run_opts = RunOptions::traced();
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match arg.as_str() {
            "--trace-out" => trace_out = Some(value("--trace-out")),
            "--report-out" => report_out = Some(value("--report-out")),
            "--trace-ranks" => trace_ranks = value("--trace-ranks").parse().expect("rank count"),
            "--trace-size" => trace_size = value("--trace-size").parse().expect("problem size"),
            "--prof" => run_opts.gemm_prof = true,
            other => panic!("unknown argument: {other}"),
        }
    }
    if trace_out.is_some() || report_out.is_some() {
        traced_run(
            trace_out.as_deref(),
            report_out.as_deref(),
            trace_ranks,
            trace_size,
            run_opts,
        );
        return;
    }

    let machine = Machine::phoenix_cpu();
    let placement = machine.pure_mpi();
    let cfg = RunConfig {
        placement,
        custom_layout: false,
    };
    // Table II, 2048-core rows: both libraries use the same optimal grid.
    let cases: [(&str, usize, usize, usize, Grid); 4] = [
        ("square", 50_000, 50_000, 50_000, Grid::new(8, 16, 16)),
        ("large-K", 6_000, 6_000, 1_200_000, Grid::new(2, 2, 512)),
        ("large-M", 1_200_000, 6_000, 6_000, Grid::new(512, 2, 2)),
        ("flat", 100_000, 100_000, 5_000, Grid::new(32, 32, 2)),
    ];
    println!("Figure 5: relative runtime breakdown at 2048 cores (COSMA total = 1)\n");
    println!(
        "{:<9} {:<8} | {:>10} {:>14} {:>10} {:>8}",
        "class", "library", "local comp", "replicate A,B", "reduce C", "total"
    );
    for (name, m, n, k, grid) in cases {
        let prob = Problem::new(m, n, k, 2048);
        let cosma = predict_with_grid(&machine, Algo::Cosma, &prob, &cfg, Some(grid));
        let ca = predict_with_grid(&machine, Algo::Ca3dmm, &prob, &cfg, Some(grid));
        let norm = cosma.total_s;
        // CA3DMM: "replicate A,B" = step-5 allgather + Cannon shift comm;
        // local compute = the GEMM part of the cannon phase.
        let ca_repl =
            ca.label_s("replicate_ab") + ca.by_label.get("cannon").map(|c| c.comm_s).unwrap_or(0.0);
        let ca_comp = ca.by_label.get("cannon").map(|c| c.comp_s).unwrap_or(0.0);
        let co_repl = cosma.label_s("replicate_ab");
        let co_comp = cosma.label_s("local_gemm");
        for (lib, comp, repl, red, total) in [
            (
                "COSMA",
                co_comp,
                co_repl,
                cosma.label_s("reduce_c"),
                cosma.total_s,
            ),
            (
                "CA3DMM",
                ca_comp,
                ca_repl,
                ca.label_s("reduce_c"),
                ca.total_s,
            ),
        ] {
            println!(
                "{:<9} {:<8} | {:>10.3} {:>14.3} {:>10.3} {:>8.3}",
                name,
                lib,
                comp / norm,
                repl / norm,
                red / norm,
                total / norm
            );
        }
        println!();
    }
    println!("Paper shape: similar local computation; similar total");
    println!("communication (replicate + reduce); CA3DMM total <= COSMA,");
    println!("because the Cannon shifts pipeline under the local GEMM.");
}
