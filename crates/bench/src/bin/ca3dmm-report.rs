//! `ca3dmm-report`: reads the versioned `RunReport` JSON artifacts that the
//! fig/bench binaries write (`--report-out`) and turns them into something a
//! human — or CI — can act on.
//!
//! ```text
//! ca3dmm-report show    <report.json>
//! ca3dmm-report netdiff <report.json>
//! ca3dmm-report gate    <reference.json> <subject.json> [--time-ratio R]
//! ```
//!
//! * `show` validates the artifact (schema + internal consistency: matrix
//!   row/column sums and histogram totals must reconcile with the per-phase
//!   table) and renders the text dashboard. For a schema-v3 artifact from a
//!   profiled run (`DENSE_GEMM_PROF=1` / `--prof`), the dashboard appends
//!   the per-rank compute-attribution table: Gflop/s vs probed peak,
//!   pack/compute/idle split, imbalance, and pool wake latency.
//! * `netdiff` compares a measured run against the §III-D analytic model:
//!   the problem and grid are reconstructed from the report's own `meta`
//!   block and joined per phase. For a wall-clock report the model is
//!   priced on [`Machine::uniform`] and times are structural only (thread
//!   simulation vs cluster model). For a **virtual-time** report the model
//!   is priced on the *same machine and placement the simulation charged*
//!   (read back from the report's `sim` block) with the model's overlap
//!   branch matching the run's `meta.overlap` flag — the simulator
//!   completes posted receives at `max(clock, arrival)`, exactly the
//!   `max(comm, compute)` per round the `overlap: true` model prices — so
//!   both bytes *and* seconds are comparable; `--max-bytes-err PCT` /
//!   `--max-secs-err PCT` / `--max-msgs-err PCT` turn the worst per-phase
//!   relative error into a nonzero exit, which is how CI cross-checks the
//!   executed simulation against the closed-form model. (The model counts
//!   two messages per Cannon shift round, matching the runtime's separate
//!   A and B sends; ring collectives measure `g−1` messages against the
//!   model's butterfly `log₂ g`, which is what the msgs tolerance absorbs.)
//! * `gate` is the one comparison of two reports, and CI's regression
//!   gate: deterministic traffic (bytes, msgs, matrix cells, histogram
//!   buckets) must match the reference **exactly**; times are checked only
//!   as a ratio when `--time-ratio` is given.
//!   Compute (profiler) blocks are never compared numerically — they are
//!   host timing — but the gate refuses outright to compare a profiled
//!   report against an unprofiled one.
//!
//! Every subcommand reads its artifacts with `RunReportDoc::parse`, the one
//! reader, so `show` doubles as the shape validator in CI.

use ca3dmm::{ca3dmm_schedule, diff_phase_rows, Collectives, ModelConfig};
use gridopt::{Grid, Problem};
use jsonlite::Json;
use msgpass::report::{gate, render_gate_failures};
use msgpass::RunReportDoc;
use netmodel::eval::evaluate;
use netmodel::Machine;
use std::process::ExitCode;

fn fail(msg: &str) -> ExitCode {
    eprintln!("ca3dmm-report: {msg}");
    ExitCode::FAILURE
}

fn load(path: &str) -> Result<RunReportDoc, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    // `parse` re-checks every structural invariant, including the
    // matrix-vs-phase-table and histogram-vs-phase-table reconciliations.
    RunReportDoc::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Rebuilds the modeled schedule from a report's `meta` block
/// (`Ca3dmm::report_meta` wrote m/n/k/p and the executed grid).
fn meta_problem(doc: &RunReportDoc) -> Result<(Problem, Grid), String> {
    let dim = |f: &str| -> Result<usize, String> {
        doc.meta
            .get(f)
            .and_then(Json::as_f64)
            .filter(|v| *v >= 1.0 && v.fract() == 0.0)
            .map(|v| v as usize)
            .ok_or_else(|| format!("meta.{f} missing or not a positive integer"))
    };
    let (m, n, k, p) = (dim("m")?, dim("n")?, dim("k")?, dim("p")?);
    let grid = doc
        .meta
        .get("grid")
        .ok_or_else(|| "meta.grid missing".to_owned())?;
    let gdim = |f: &str| -> Result<usize, String> {
        grid.get(f)
            .and_then(Json::as_f64)
            .filter(|v| *v >= 1.0 && v.fract() == 0.0)
            .map(|v| v as usize)
            .ok_or_else(|| format!("meta.grid.{f} missing or not a positive integer"))
    };
    Ok((
        Problem::new(m, n, k, p),
        Grid::new(gdim("pm")?, gdim("pn")?, gdim("pk")?),
    ))
}

fn cmd_show(path: &str) -> ExitCode {
    match load(path) {
        Ok(doc) => {
            print!("{}", doc.render_dashboard());
            ExitCode::SUCCESS
        }
        Err(e) => fail(&e),
    }
}

fn cmd_netdiff(
    path: &str,
    max_bytes_err: Option<f64>,
    max_secs_err: Option<f64>,
    max_msgs_err: Option<f64>,
) -> ExitCode {
    let doc = match load(path) {
        Ok(d) => d,
        Err(e) => return fail(&e),
    };
    let (prob, grid) = match meta_problem(&doc) {
        Ok(v) => v,
        Err(e) => {
            return fail(&format!(
                "{path}: cannot reconstruct the run from meta ({e}); \
                 netdiff needs a report written with Ca3dmm::report_meta"
            ))
        }
    };
    if doc.ranks != prob.p {
        return fail(&format!(
            "{path}: report has {} ranks but meta says p = {}",
            doc.ranks, prob.p
        ));
    }
    // The run records whether Cannon ran its dual-buffered pipeline in
    // `meta.overlap` (written by `Ca3dmm::report_meta`); the model's branch
    // must match or the seconds tiers compare different algorithms.
    // Artifacts written before the flag existed ran the blocking path.
    let overlap = doc
        .meta
        .get("overlap")
        .and_then(Json::as_bool)
        .unwrap_or(false);
    // Likewise the collective mode the run executed (`meta.collectives`):
    // the model applies the same structural node-aware selection the
    // runtime used, so hierarchical artifacts stay byte-exact against the
    // hierarchical closed forms. Artifacts from before the flag ran flat.
    let collectives = doc
        .meta
        .get("collectives")
        .and_then(Json::as_str)
        .and_then(Collectives::parse)
        .unwrap_or(Collectives::Flat);
    // Wall-clock artifacts: same model configuration as the traced fig5 run
    // that wrote them — a uniform machine, pure-MPI placement, f64 payloads,
    // no redistribution (the run feeds the native layouts directly).
    // Virtual-time artifacts: the machine and placement the simulation
    // itself charged.
    let (machine, placement) = match &doc.sim {
        Some(sim) => (sim.machine.clone(), sim.placement),
        None => {
            let m = Machine::uniform();
            let placement = m.pure_mpi();
            (m, placement)
        }
    };
    let cfg = ModelConfig {
        placement,
        elem_bytes: 8.0,
        overlap,
        include_redist: false,
        collectives,
    };
    let cost = evaluate(
        &machine,
        placement.flops_per_rank,
        &ca3dmm_schedule(&prob, &grid, &cfg),
    );
    println!(
        "{} — {}×{}×{} on {} ranks (grid {}×{}×{}) vs analytic model on {}",
        doc.name().unwrap_or(path),
        prob.m,
        prob.n,
        prob.k,
        prob.p,
        grid.pm,
        grid.pn,
        grid.pk,
        machine.name
    );
    if doc.sim.is_some() {
        println!("(virtual-time run: bytes and seconds both comparable to the model)\n");
    } else {
        println!("(wall-clock run: times are structural only; byte volumes should agree)\n");
    }
    let diff = diff_phase_rows(&doc.phases, &cost);
    print!("{}", diff.render());

    // Worst per-phase relative error, over phases the model prices.
    let (mut worst_bytes, mut worst_secs, mut worst_msgs) = (0.0f64, 0.0f64, 0.0f64);
    for ph in &diff.phases {
        if ph.modeled_bytes > 0.0 {
            let err = (ph.measured_bytes as f64 - ph.modeled_bytes).abs() / ph.modeled_bytes;
            worst_bytes = worst_bytes.max(err);
        }
        if ph.modeled_s > 0.0 && ph.measured_s > 0.0 {
            let err = (ph.measured_s - ph.modeled_s).abs() / ph.modeled_s;
            worst_secs = worst_secs.max(err);
        }
        if ph.modeled_msgs > 0.0 && ph.measured_msgs > 0 {
            let err = (ph.measured_msgs as f64 - ph.modeled_msgs).abs() / ph.modeled_msgs;
            worst_msgs = worst_msgs.max(err);
        }
    }
    println!(
        "\nworst per-phase error: bytes {:.3}%, secs {:.1}%, msgs {:.1}%",
        worst_bytes * 100.0,
        worst_secs * 100.0,
        worst_msgs * 100.0
    );
    let mut over = Vec::new();
    if let Some(limit) = max_bytes_err {
        if worst_bytes * 100.0 > limit {
            over.push(format!(
                "bytes error {:.3}% exceeds --max-bytes-err {limit}%",
                worst_bytes * 100.0
            ));
        }
    }
    if let Some(limit) = max_secs_err {
        if worst_secs * 100.0 > limit {
            over.push(format!(
                "secs error {:.1}% exceeds --max-secs-err {limit}%",
                worst_secs * 100.0
            ));
        }
    }
    if let Some(limit) = max_msgs_err {
        if worst_msgs * 100.0 > limit {
            over.push(format!(
                "msgs error {:.1}% exceeds --max-msgs-err {limit}%",
                worst_msgs * 100.0
            ));
        }
    }
    if !over.is_empty() {
        return fail(&over.join("; "));
    }
    ExitCode::SUCCESS
}

fn cmd_gate(ref_path: &str, subj_path: &str, time_ratio: Option<f64>) -> ExitCode {
    let (reference, subject) = match (load(ref_path), load(subj_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => return fail(&e),
    };
    match gate(&reference, &subject, time_ratio) {
        Ok(()) => {
            println!(
                "gate OK: {subj_path} matches {ref_path} (traffic exact{})",
                match time_ratio {
                    Some(r) => format!(", times within {r}x"),
                    None => ", times ignored".to_owned(),
                }
            );
            ExitCode::SUCCESS
        }
        Err(errs) => {
            eprint!("{}", render_gate_failures(&errs));
            fail(&format!("{} violation(s)", errs.len()))
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = "usage: ca3dmm-report show <report.json>\n\
                 \x20      ca3dmm-report netdiff <report.json> [--max-bytes-err PCT] [--max-secs-err PCT] [--max-msgs-err PCT]\n\
                 \x20      ca3dmm-report gate <reference.json> <subject.json> [--time-ratio R]";
    match args.split_first() {
        Some((cmd, rest)) => match (cmd.as_str(), rest) {
            ("show", [path]) => cmd_show(path),
            ("netdiff", [path, opts @ ..]) => {
                let (mut max_bytes_err, mut max_secs_err, mut max_msgs_err) = (None, None, None);
                let mut it = opts.iter();
                while let Some(opt) = it.next() {
                    let value = |v: Option<&String>, name: &str| {
                        v.and_then(|v| v.parse::<f64>().ok())
                            .ok_or_else(|| format!("{name} requires a numeric value"))
                    };
                    match opt.as_str() {
                        "--max-bytes-err" => match value(it.next(), "--max-bytes-err") {
                            Ok(v) => max_bytes_err = Some(v),
                            Err(e) => return fail(&e),
                        },
                        "--max-secs-err" => match value(it.next(), "--max-secs-err") {
                            Ok(v) => max_secs_err = Some(v),
                            Err(e) => return fail(&e),
                        },
                        "--max-msgs-err" => match value(it.next(), "--max-msgs-err") {
                            Ok(v) => max_msgs_err = Some(v),
                            Err(e) => return fail(&e),
                        },
                        other => return fail(&format!("unknown netdiff option {other}")),
                    }
                }
                cmd_netdiff(path, max_bytes_err, max_secs_err, max_msgs_err)
            }
            ("gate", [a, b]) => cmd_gate(a, b, None),
            ("gate", [a, b, flag, r]) if flag == "--time-ratio" => match r.parse::<f64>() {
                Ok(r) => cmd_gate(a, b, Some(r)),
                Err(_) => fail("--time-ratio requires a numeric value"),
            },
            _ => fail(usage),
        },
        None => fail(usage),
    }
}
