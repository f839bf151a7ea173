//! Figure 3 by *execution*: strong scaling of CA3DMM at paper-scale process
//! counts (p = 192…3072), produced by actually running Algorithm 1 on the
//! `msgpass` virtual-time backend rather than by pricing the analytic
//! model. Every send, receive, collective, and local GEMM of the real
//! executor is charged virtual seconds against the paper's machine
//! ([`Machine::phoenix_cpu`], 24 ranks/node); the local GEMMs themselves
//! are skipped (`execute_compute = false`) — at these sizes the arithmetic
//! would dwarf the simulation, and the flop *charge* is what the figure
//! needs. Skipping them also makes the run shape-only: the blocks are
//! zero-sized (`dense::Shape64`), so no matrix data is stored or moved.
//!
//! ```text
//! cargo run --release -p bench --bin fig3_sim [--report-out PATH] [--overlap on|off]
//! ```
//!
//! Alongside each simulated point the analytic model's prediction for the
//! same problem/grid/machine is printed, with the model's overlap branch
//! matching the executed configuration — by default the §III-F
//! dual-buffered pipeline runs, whose posted receives the simulator
//! completes at `max(clock, arrival)`, i.e. `max(comm, compute)` per shift
//! round, exactly what the `overlap: true` model prices. The table
//! therefore doubles as a sim-vs-model cross-check; `ca3dmm-report
//! netdiff` performs the same comparison offline from the artifact.
//! `--overlap off` runs and prices the blocking ablation instead.
//! `--report-out PATH` writes the largest point's (p = 3072) schema-v2
//! `RunReport`, the reference CI's `sim-smoke` job gates against.
//! `--ranks P` simulates a single point instead of the sweep. The last
//! stdout line is the process's peak resident set (`peak RSS: N MiB`),
//! which the same CI job holds to a budget.
//!
//! `--collectives flat|hier` selects the collective algorithms the executor
//! (and the model) use: `hier` routes allgather/reduce-scatter through
//! two-level node-aware variants wherever a communicator spans several
//! nodes with co-located members, and falls back to flat elsewhere.
//! `--ranks-per-node N` overrides the placement's node size (default: the
//! machine's pure-MPI 24/node) — at the paper's 24/node the replicate and
//! reduce groups place every member on a distinct node, so fat nodes
//! (e.g. `--ranks-per-node 384`) are where the hierarchical variants
//! engage. When either flag is non-default, the CSV series and the
//! report's `name` gain a `_{flat|hier}_r{N}` suffix so the ablation's
//! artifacts sit next to the default ones instead of clobbering them.
//!
//! The problem is fixed at m = n = 3072, k = 6144: big enough that every
//! phase moves real traffic, and chosen so the grid the step-1 search
//! picks at p = 3072 (8×16×24) divides all three dimensions exactly and
//! `mb·nb` divides by `pk` — block shapes are uniform, reduce-scatter
//! chunks are even, and the measured per-phase byte counts match the
//! model's closed forms to the byte, which is what lets CI gate them
//! exactly.

use bench::{percent_of_peak, CPU_SWEEP};
use ca3dmm::{ca3dmm_schedule, Ca3dmm, Ca3dmmOptions, Collectives, ModelConfig};
use gridopt::Problem;
use msgpass::SimOptions;
use netmodel::eval::evaluate;
use netmodel::Machine;

/// The fixed problem of the simulated sweep (see module docs).
const M: usize = 3072;
const N: usize = 3072;
const K: usize = 6144;

fn main() {
    let mut args = std::env::args().skip(1);
    let (mut report_out, mut only_ranks, mut overlap) = (None::<String>, None::<usize>, true);
    let (mut collectives, mut rpn_override) = (Collectives::Flat, None::<usize>);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match arg.as_str() {
            "--report-out" => report_out = Some(value("--report-out")),
            "--ranks" => only_ranks = Some(value("--ranks").parse().expect("rank count")),
            "--overlap" => {
                overlap = match value("--overlap").as_str() {
                    "on" => true,
                    "off" => false,
                    other => panic!("--overlap takes on|off, got {other}"),
                }
            }
            "--collectives" => {
                let v = value("--collectives");
                collectives = Collectives::parse(&v)
                    .unwrap_or_else(|| panic!("--collectives takes flat|hier, got {v}"));
            }
            "--ranks-per-node" => {
                rpn_override = Some(value("--ranks-per-node").parse().expect("ranks per node"))
            }
            other => panic!("unknown argument: {other}"),
        }
    }

    let machine = Machine::phoenix_cpu();
    let mut placement = machine.pure_mpi();
    if let Some(rpn) = rpn_override {
        assert!(rpn >= 1, "--ranks-per-node must be at least 1");
        placement.ranks_per_node = rpn;
    }
    // Non-default configurations write to suffixed names so the committed
    // default artifacts stay byte-identical.
    let variant = if collectives != Collectives::Flat || rpn_override.is_some() {
        format!("_{}_r{}", collectives.as_str(), placement.ranks_per_node)
    } else {
        String::new()
    };
    let sweep: Vec<usize> = match only_ranks {
        Some(p) => vec![p],
        None => CPU_SWEEP.to_vec(),
    };
    println!(
        "Figure 3 (executed): CA3DMM {M}x{N}x{K} on {} — virtual time, overlap {}, {} collectives",
        machine.name,
        if overlap { "on" } else { "off" },
        collectives.as_str()
    );
    println!(
        "Pure MPI placement: {} ranks/node.\n",
        placement.ranks_per_node
    );
    println!(
        "{:>6} {:>10} | {:>12} {:>8} | {:>12} | {:>9}",
        "ranks", "grid", "sim (s)", "% peak", "model (s)", "wall (s)"
    );

    let mut csv = bench::csv_writer(&format!("fig3_sim{variant}"));
    if let Some(w) = csv.as_mut() {
        use std::io::Write;
        writeln!(w, "cores,grid,sim_secs,pct_peak,model_secs").ok();
    }

    for p in sweep {
        let prob = Problem::new(M, N, K, p);
        let alg = Ca3dmm::new(
            prob,
            &Ca3dmmOptions {
                overlap,
                collectives,
                ..Default::default()
            },
        );
        let grid = *alg.grid_context().grid();

        let started = std::time::Instant::now();
        let report = alg.simulate_native(
            &machine,
            SimOptions {
                placement: Some(placement),
                execute_compute: false,
            },
        );
        let wall = started.elapsed().as_secs_f64();
        let sim = report.sim.as_ref().expect("virtual-time run has sim info");

        let cfg = ModelConfig {
            placement,
            elem_bytes: 8.0,
            // the model's overlap branch must match the executed pipeline
            overlap,
            include_redist: false,
            // and its collective selection must match the executed mode
            collectives,
        };
        let model = evaluate(
            &machine,
            placement.flops_per_rank,
            &ca3dmm_schedule(&prob, &grid, &cfg),
        );
        let grid_str = format!("{}x{}x{}", grid.pm, grid.pn, grid.pk);
        let pct = percent_of_peak(&machine, &prob, &placement, sim.makespan_secs);
        println!(
            "{:>6} {:>10} | {:>12.6} {:>7.1}% | {:>12.6} | {:>9.2}",
            p, grid_str, sim.makespan_secs, pct, model.total_s, wall
        );
        if let Some(w) = csv.as_mut() {
            use std::io::Write;
            writeln!(
                w,
                "{p},{grid_str},{:.9},{pct:.2},{:.9}",
                sim.makespan_secs, model.total_s
            )
            .ok();
        }

        if let (Some(path), true) = (report_out.as_deref(), Some(p) == sweep_max(only_ranks)) {
            let meta = alg.report_meta(&format!("fig3_sim{variant}_p{p}"), &report);
            let json = report.to_json(meta).to_string_pretty();
            std::fs::write(path, &json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
            println!("run report -> {path}");
        }
    }
    println!("\nSeconds are virtual (machine-model) time; 'wall' is what the");
    println!("simulation itself cost on this host. The executed sim and the");
    println!("closed-form model agree on traffic exactly; times differ only");
    println!("because the sim prices every hop individually while the model");
    println!("prices each phase's critical link.");
    // Last line, machine-readable: CI's sim-smoke job holds it to a budget.
    match peak_rss_mib() {
        Some(mib) => println!("peak RSS: {mib:.1} MiB (VmHWM)"),
        None => println!("peak RSS: unavailable (no VmHWM in /proc/self/status)"),
    }
}

/// This process's peak resident set in MiB — `VmHWM` from
/// `/proc/self/status`, the figure the repo benchmark reports as
/// `peak_rss_mb`. `None` where procfs is missing.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// The sweep point whose artifact `--report-out` writes: the explicit
/// `--ranks` value, or the largest point of the default sweep.
fn sweep_max(only_ranks: Option<usize>) -> Option<usize> {
    Some(only_ranks.unwrap_or(*CPU_SWEEP.iter().max().expect("sweep is non-empty")))
}
