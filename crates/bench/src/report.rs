//! The `ca3dmm-report` subcommands as functions over `RunReport` JSON text.
//! Each returns what the binary prints, or why the artifact fails; the
//! binary adds only argument parsing and the exit code, and the root
//! integration tests call the same functions on the committed artifacts.
//! Every function reads with `RunReportDoc::parse`, the one reader, which
//! re-checks every structural invariant (the matrix cells and the
//! algorithm histograms must sum to the per-phase table's sent traffic).

use ca3dmm::{ca3dmm_schedule, diff_phase_rows, ModelConfig, RunMeta};
use jsonlite::Value;
use msgpass::report::render_gate_failures;
use msgpass::RunReportDoc;
use netmodel::eval::evaluate;
use netmodel::Machine;
use std::fmt::Write;

/// `show`: validates the artifact and renders the text dashboard, whose
/// heatmap bins contiguous ranks above 64. A profiled artifact
/// (`fig5_breakdown --prof`) adds the per-rank compute-attribution table.
pub fn show(text: &str) -> Result<String, String> {
    Ok(RunReportDoc::parse(text)?.render_dashboard())
}

/// `netdiff`'s bounds on the worst per-phase relative error, in percent;
/// `None` reports the error without gating it.
#[derive(Clone, Copy, Debug, Default)]
pub struct NetdiffLimits {
    pub bytes_pct: Option<f64>,
    pub secs_pct: Option<f64>,
    pub msgs_pct: Option<f64>,
}

/// `netdiff`: compares a measured run against the §III-D analytic model.
/// The problem, grid, overlap flag and collective mode are reconstructed
/// from the report's own `meta` block (a missing key is an error, not a
/// default) and joined per phase. A wall-clock report is priced on
/// [`Machine::uniform`], and its times are structural only. A virtual-time
/// report is priced on the machine and placement the simulation charged
/// (its `sim` block), with the model's overlap branch matching
/// `meta.overlap` — the simulator completes posted receives at
/// `max(clock, arrival)`, exactly the `max(comm, compute)` per round the
/// `overlap: true` model prices — so bytes *and* seconds are comparable.
/// A worst per-phase error above a bound in `limits` is an `Err` carrying
/// the table. (The model counts two messages per Cannon shift round,
/// matching the runtime's separate A and B sends; ring collectives measure
/// `g−1` messages against the model's butterfly `log₂ g`, which is what
/// the msgs bound absorbs.)
pub fn netdiff(text: &str, limits: NetdiffLimits) -> Result<String, String> {
    let doc = RunReportDoc::parse(text)?;
    // The model must price the configuration that ran, or the seconds
    // tiers compare different algorithms and hierarchical artifacts lose
    // their byte-exact closed forms.
    let meta = RunMeta::read(&doc.meta, "report.meta").map_err(|e| {
        format!(
            "cannot reconstruct the run from meta ({e}); \
             netdiff needs a report written with Ca3dmm::report_meta"
        )
    })?;
    let (prob, grid) = (meta.problem(), meta.grid);
    if doc.ranks != prob.p {
        return Err(format!(
            "report has {} ranks but meta says p = {}",
            doc.ranks, prob.p
        ));
    }
    // Wall-clock artifacts: same model configuration as the traced fig5 run
    // that wrote them — a uniform machine, pure-MPI placement, f64 payloads,
    // no redistribution (the run feeds the native layouts directly).
    let (machine, placement) = match &doc.sim {
        Some(sim) => (sim.machine.clone(), sim.placement),
        None => {
            let m = Machine::uniform();
            let placement = m.pure_mpi();
            (m, placement)
        }
    };
    let cfg = ModelConfig {
        overlap: meta.overlap,
        collectives: meta.collectives,
        ..crate::native_model(placement)
    };
    let cost = evaluate(
        &machine,
        placement.flops_per_rank,
        &ca3dmm_schedule(&prob, &grid, &cfg),
    );
    let mut out = format!(
        "{} — {}×{}×{} on {} ranks (grid {}×{}×{}) vs analytic model on {}\n",
        meta.name, prob.m, prob.n, prob.k, prob.p, grid.pm, grid.pn, grid.pk, machine.name
    );
    out += if doc.sim.is_some() {
        "(virtual-time run: bytes and seconds both comparable to the model)\n\n"
    } else {
        "(wall-clock run: times are structural only; byte volumes should agree)\n\n"
    };
    let diff = diff_phase_rows(&doc.phases, &cost);
    out += &diff.render();

    // Worst per-phase relative error, over phases the model prices.
    let rel = |measured: f64, modeled: f64| (measured - modeled).abs() / modeled;
    let (mut bytes, mut secs, mut msgs) = (0.0f64, 0.0f64, 0.0f64);
    for ph in &diff.phases {
        if ph.modeled_bytes > 0.0 {
            bytes = bytes.max(rel(ph.measured_bytes as f64, ph.modeled_bytes));
        }
        if ph.modeled_s > 0.0 && ph.measured_s > 0.0 {
            secs = secs.max(rel(ph.measured_s, ph.modeled_s));
        }
        if ph.modeled_msgs > 0.0 && ph.measured_msgs > 0 {
            msgs = msgs.max(rel(ph.measured_msgs as f64, ph.modeled_msgs));
        }
    }
    let (bytes, secs, msgs) = (bytes * 100.0, secs * 100.0, msgs * 100.0);
    let _ = writeln!(
        out,
        "\nworst per-phase error: bytes {bytes:.3}%, secs {secs:.1}%, msgs {msgs:.1}%"
    );
    let over: Vec<String> = [
        ("bytes", bytes, limits.bytes_pct, "--max-bytes-err"),
        ("secs", secs, limits.secs_pct, "--max-secs-err"),
        ("msgs", msgs, limits.msgs_pct, "--max-msgs-err"),
    ]
    .into_iter()
    .filter_map(|(what, err, limit, flag)| {
        let limit = limit.filter(|&l| err > l)?;
        Some(format!("{what} error {err:.3}% exceeds {flag} {limit}%"))
    })
    .collect();
    if over.is_empty() {
        Ok(out)
    } else {
        Err(out + &over.join("; "))
    }
}

/// `gate`: the one comparison of two reports. Deterministic traffic
/// (bytes, msgs, matrix cells, histogram buckets) must match the reference
/// **exactly**; times are checked only as a ratio when `time_ratio` is
/// given. Compute (profiler) blocks are host timing and never compared
/// numerically, but a profiled report is never gated against an
/// unprofiled one.
pub fn gate(reference: &str, subject: &str, time_ratio: Option<f64>) -> Result<String, String> {
    let reference = RunReportDoc::parse(reference).map_err(|e| format!("reference: {e}"))?;
    let subject = RunReportDoc::parse(subject).map_err(|e| format!("subject: {e}"))?;
    match msgpass::report::gate(&reference, &subject, time_ratio) {
        Ok(()) => Ok(match time_ratio {
            Some(r) => format!("gate OK: traffic exact, times within {r}x"),
            None => "gate OK: traffic exact, times ignored".to_owned(),
        }),
        Err(errs) => Err(format!(
            "{}{} violation(s)",
            render_gate_failures(&errs),
            errs.len()
        )),
    }
}
