//! Figure 5 by execution: runs a small CA3DMM problem for real on the
//! threaded `msgpass` runtime with event tracing enabled and prints the run
//! summary's dashboard (phase table, critical path, communication matrix,
//! size histograms) plus the model-vs-measured phase diff. The figure's
//! analytic breakdown is the `fig5_breakdown` entry of [`bench::paper`].
//!
//! ```text
//! cargo run --release -p bench --bin fig5_breakdown -- [--trace-out PATH]
//!     [--report-out PATH] [--trace-ranks N] [--trace-size S] [--prof]
//! ```
//!
//! `--trace-out PATH` writes the per-rank timeline as a Chrome/Perfetto
//! trace JSON to PATH. `--trace-ranks N` (default 16) and `--trace-size S`
//! (default 256, meaning an S×S×S problem) size the traced run.
//! `--report-out PATH` writes the run's versioned `RunReport` JSON artifact
//! (communication matrix, size histograms, wait attribution) to PATH —
//! the input format of the `ca3dmm-report` dashboard and exact gate.
//!
//! `--prof` enables the `dense::prof` kernel profiler for the traced run
//! (the one switch; runs are unprofiled otherwise): the artifact gains the
//! `compute` block (per-rank GEMM phase split, roofline, submit→wake
//! latency), the Chrome trace gains per-rank kernel-thread tracks, and the
//! dashboard gains its per-rank compute-attribution table.

use ca3dmm::{ca3dmm_schedule, diff_phase_rows};
use gridopt::Problem;
use msgpass::RunOptions;
use netmodel::eval::evaluate;
use netmodel::Machine;

fn main() {
    let mut args = std::env::args().skip(1);
    let (mut trace_out, mut report_out, mut ranks, mut size) =
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
            "--trace-ranks" => ranks = value("--trace-ranks").parse().expect("rank count"),
            "--trace-size" => size = value("--trace-size").parse().expect("problem size"),
            "--prof" => run_opts.gemm_prof = true,
            other => panic!("unknown argument: {other}"),
        }
    }
    let prob = Problem::new(size, size, size, ranks);
    // World::run sets this same cap on every rank thread, so the traced
    // comm/compute split reflects non-oversubscribed compute: ranks *
    // threads-per-rank never exceeds the host's kernel-thread budget.
    println!(
        "kernel threads: {} per rank x {} ranks (budget {})",
        dense::pool::rank_threads_for(ranks),
        ranks,
        dense::pool::base_gemm_threads()
    );
    let (alg, report, summary) = bench::fig5_traced_run(size, ranks, run_opts);
    let grid = *alg.grid_context().grid();

    let spans = report.timeline.span_count();
    let (pm, pn, pk) = (grid.pm, grid.pn, grid.pk);
    println!("traced {size}x{size}x{size} on {ranks} ranks (grid {pm}x{pn}x{pk}): {spans} spans");
    if let Some(path) = &trace_out {
        // The one Chrome exporter: rank tracks, plus each profiled rank's
        // kernel-thread tracks on the same clock.
        let json = report.to_chrome_json();
        std::fs::write(path, &json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("chrome trace -> {path}");
    }
    if let Some(path) = &report_out {
        let json = summary.to_json().to_string_pretty();
        std::fs::write(path, &json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("run report -> {path}");
    }
    println!("\n{}", summary.render_dashboard());

    let machine = Machine::uniform();
    let placement = machine.pure_mpi();
    let cost = evaluate(
        &machine,
        placement.flops_per_rank,
        &ca3dmm_schedule(&prob, &grid, &bench::native_model(placement)),
    );
    println!(
        "model vs measured (structural; absolute scales differ):\n{}",
        diff_phase_rows(&summary.phases, &cost).render()
    );
}
