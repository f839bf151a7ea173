//! Model-vs-measured comparison: lines a run's per-phase summary rows up
//! against the analytic cost model's prediction for the same problem.
//!
//! The `netmodel` evaluator predicts per-label seconds for the maximally
//! loaded rank; a `msgpass` run measures per-phase seconds on every rank.
//! [`diff_phase_rows`] — the one joiner — matches the two on phase labels
//! (the runtime's `"cannon_shift"` maps to the model's `"cannon"`), taking
//! the measured critical rank (max over ranks) per phase — the quantity the
//! model predicts. The absolute times will not match between a
//! thread-simulated run and a cluster model; the value of the diff is
//! *structural*: the same phases present, the same phase dominating, byte
//! volumes identical.

use msgpass::report::PhaseRow;
use msgpass::RunReport;
use netmodel::CostReport;
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Maps a runtime phase label (`RankCtx::set_phase` names) to the model's
/// schedule label.
pub fn model_phase_label(runtime_label: &str) -> &str {
    match runtime_label {
        // The runtime labels Cannon's skew and shifts "cannon_shift"; the
        // schedule IR files the whole Cannon stage under "cannon".
        "cannon_shift" => "cannon",
        // SUMMA's broadcast stage is the model's cannon-equivalent inner
        // stage for the 2D variant.
        "summa_bcast" => "cannon",
        other => other,
    }
}

/// One phase's measured-vs-modeled entry.
#[derive(Clone, Debug)]
pub struct PhaseDiff {
    /// Model-side phase label ("redist", "replicate_ab", "cannon",
    /// "reduce_c", …).
    pub phase: String,
    /// Measured wall seconds on the slowest rank (runtime labels mapped
    /// onto this model label are summed).
    pub measured_s: f64,
    /// The model's predicted seconds for this label.
    pub modeled_s: f64,
    /// Measured bytes sent by the maximally loaded rank in this phase.
    pub measured_bytes: u64,
    /// The model's predicted sent bytes for the maximally loaded rank.
    pub modeled_bytes: f64,
    /// Measured messages sent by the maximally loaded rank in this phase.
    pub measured_msgs: u64,
    /// The model's predicted message count (the paper's per-phase `L`).
    pub modeled_msgs: f64,
}

impl PhaseDiff {
    /// `measured / modeled` seconds; `NAN` when the model predicts zero.
    pub fn ratio(&self) -> f64 {
        self.measured_s / self.modeled_s
    }

    /// `measured / modeled` bytes; `NAN` when the model predicts zero.
    /// Unlike times (thread simulation vs cluster model), byte volumes are
    /// the quantity the model should get *exactly* right — the validation
    /// tests pin this ratio near 1.
    pub fn bytes_ratio(&self) -> f64 {
        self.measured_bytes as f64 / self.modeled_bytes
    }

    /// `measured / modeled` messages; `NAN` when the model predicts zero.
    /// Like bytes, message counts are deterministic — the tolerance only
    /// absorbs collectives whose implementation (ring) differs from the
    /// model's butterfly count.
    pub fn msgs_ratio(&self) -> f64 {
        self.measured_msgs as f64 / self.modeled_msgs
    }
}

/// The joined comparison for one run.
#[derive(Clone, Debug, Default)]
pub struct ModelDiffReport {
    /// Per-phase entries, sorted by label.
    pub phases: Vec<PhaseDiff>,
    /// Sum of measured critical-rank seconds over phases.
    pub measured_total_s: f64,
    /// The model's total predicted seconds.
    pub modeled_total_s: f64,
}

impl ModelDiffReport {
    /// The phase with the largest measured time.
    pub fn measured_bottleneck(&self) -> Option<&PhaseDiff> {
        self.phases
            .iter()
            .max_by(|a, b| a.measured_s.total_cmp(&b.measured_s))
    }

    /// The phase with the largest modeled time.
    pub fn modeled_bottleneck(&self) -> Option<&PhaseDiff> {
        self.phases
            .iter()
            .max_by(|a, b| a.modeled_s.total_cmp(&b.modeled_s))
    }

    /// True when measurement and model name the same dominant phase — the
    /// structural agreement the validation tests assert.
    pub fn bottlenecks_agree(&self) -> bool {
        match (self.measured_bottleneck(), self.modeled_bottleneck()) {
            (Some(a), Some(b)) => a.phase == b.phase,
            _ => false,
        }
    }

    /// Human-readable table: seconds (structural comparison only) next to
    /// byte volumes (expected to match exactly).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<16} {:>14} {:>14} {:>8} {:>14} {:>14} {:>8} {:>9} {:>9} {:>8}",
            "phase",
            "measured (s)",
            "modeled (s)",
            "ratio",
            "meas (B)",
            "model (B)",
            "B ratio",
            "meas (L)",
            "model (L)",
            "L ratio"
        );
        for p in &self.phases {
            let _ = writeln!(
                out,
                "{:<16} {:>14.6} {:>14.6} {:>8.2} {:>14} {:>14.0} {:>8.2} {:>9} {:>9.0} {:>8.2}",
                p.phase,
                p.measured_s,
                p.modeled_s,
                p.ratio(),
                p.measured_bytes,
                p.modeled_bytes,
                p.bytes_ratio(),
                p.measured_msgs,
                p.modeled_msgs,
                p.msgs_ratio()
            );
        }
        let meas_bytes: u64 = self.phases.iter().map(|p| p.measured_bytes).sum();
        let model_bytes: f64 = self.phases.iter().map(|p| p.modeled_bytes).sum();
        let meas_msgs: u64 = self.phases.iter().map(|p| p.measured_msgs).sum();
        let model_msgs: f64 = self.phases.iter().map(|p| p.modeled_msgs).sum();
        let _ = writeln!(
            out,
            "{:<16} {:>14.6} {:>14.6} {:>8} {:>14} {:>14.0} {:>8} {:>9} {:>9.0}",
            "total",
            self.measured_total_s,
            self.modeled_total_s,
            "",
            meas_bytes,
            model_bytes,
            "",
            meas_msgs,
            model_msgs
        );
        if let (Some(m), Some(p)) = (self.measured_bottleneck(), self.modeled_bottleneck()) {
            let _ = writeln!(
                out,
                "bottleneck: measured={} modeled={} ({})",
                m.phase,
                p.phase,
                if self.bottlenecks_agree() {
                    "agree"
                } else {
                    "DISAGREE"
                }
            );
        }
        out
    }
}

/// Joins a run against a model prediction: [`diff_phase_rows`] over the
/// run's [`RunReport::phase_rows`] (no matrix or histogram is copied).
pub fn diff_model_vs_measured(report: &RunReport, cost: &CostReport) -> ModelDiffReport {
    diff_phase_rows(&report.phase_rows(), cost)
}

/// The one model-vs-measured joiner, over a run summary's phase rows — a
/// live run's ([`diff_model_vs_measured`]) or a parsed artifact's
/// (`ca3dmm-report netdiff`, where the run is long gone and only its JSON
/// survives). Runtime phases that map onto one model label are summed:
/// measured seconds are the rows' `secs_max` (critical rank), bytes their
/// `max_rank_sent_bytes` and messages their `max_rank_sent_msgs`.
pub fn diff_phase_rows(rows: &[PhaseRow], cost: &CostReport) -> ModelDiffReport {
    let mut labels: BTreeSet<String> = cost.by_label.keys().cloned().collect();
    labels.extend(rows.iter().map(|r| model_phase_label(&r.phase).to_owned()));

    let phases: Vec<PhaseDiff> = labels
        .into_iter()
        .map(|label| {
            let (mut measured_s, mut measured_bytes, mut measured_msgs) = (0.0, 0u64, 0u64);
            for r in rows.iter().filter(|r| model_phase_label(&r.phase) == label) {
                measured_s += r.secs_max;
                measured_bytes += r.max_rank_sent_bytes;
                measured_msgs += r.max_rank_sent_msgs;
            }
            PhaseDiff {
                modeled_s: cost.label_s(&label),
                modeled_bytes: cost.label_bytes(&label),
                modeled_msgs: cost.label_msgs(&label),
                phase: label,
                measured_s,
                measured_bytes,
                measured_msgs,
            }
        })
        .collect();

    let measured_total_s = phases.iter().map(|p| p.measured_s).sum();
    ModelDiffReport {
        phases,
        measured_total_s,
        modeled_total_s: cost.total_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{Ca3dmm, Ca3dmmOptions};
    use crate::grid3d::Pgemm;
    use crate::model::{ca3dmm_schedule, ModelConfig};
    use dense::part::Rect;
    use dense::random::global_block;
    use dense::Mat;
    use gridopt::{Grid, Problem};
    use msgpass::{Comm, World};
    use netmodel::eval::evaluate;
    use netmodel::Machine;

    #[test]
    fn label_mapping() {
        assert_eq!(model_phase_label("cannon_shift"), "cannon");
        assert_eq!(model_phase_label("redist"), "redist");
        assert_eq!(model_phase_label("replicate_ab"), "replicate_ab");
        assert_eq!(model_phase_label("reduce_c"), "reduce_c");
    }

    /// A traced CA3DMM run of 32×32×64 on a forced 2×2×2 grid, and the
    /// model's cost of the same problem and grid.
    fn traced_run_and_model() -> (Ca3dmm, RunReport, CostReport) {
        let (m, n, k, p) = (32, 32, 64, 8);
        let grid = Grid::new(2, 2, 2);
        let prob = Problem::new(m, n, k, p);
        let alg = Ca3dmm::new(
            prob,
            &Ca3dmmOptions {
                grid_override: Some(grid),
                ..Default::default()
            },
        );
        let gc = alg.grid_context();
        let (la, lb) = (gc.layout_a(), gc.layout_b());
        let a_full = global_block::<f64>(1, Rect::new(0, 0, m, k));
        let b_full = global_block::<f64>(2, Rect::new(0, 0, k, n));
        let (_, report) = World::run_traced(p, async |ctx| {
            let world = Comm::world(ctx);
            let me = world.rank();
            let a = la.extract(&a_full, me).into_iter().next();
            let b = lb.extract(&b_full, me).into_iter().next();
            let _: Option<Mat<f64>> = alg.multiply_native_async(ctx, &world, a, b).await;
        });
        let machine = Machine::uniform();
        let placement = machine.pure_mpi();
        let flops_per_rank = placement.flops_per_rank;
        let cfg = ModelConfig {
            placement,
            elem_bytes: 8.0,
            overlap: true,
            include_redist: false,
            collectives: msgpass::collectives::Collectives::Flat,
        };
        let cost = evaluate(
            &machine,
            flops_per_rank,
            &ca3dmm_schedule(&prob, &grid, &cfg),
        );
        (alg, report, cost)
    }

    #[test]
    fn diff_joins_timeline_and_model() {
        let (_, report, cost) = traced_run_and_model();
        let diff = diff_model_vs_measured(&report, &cost);
        assert!(!diff.phases.is_empty());
        // every runtime phase landed under a model label with nonzero time
        for phase in report.timeline.phases() {
            let label = model_phase_label(&phase).to_owned();
            let entry = diff.phases.iter().find(|d| d.phase == label);
            assert!(entry.is_some(), "runtime phase {phase} missing from diff");
            assert!(entry.unwrap().measured_s > 0.0);
        }
        assert!(diff.measured_total_s > 0.0);
        assert!(diff.modeled_total_s > 0.0);
        assert!(diff.render().contains("bottleneck"));
    }

    #[test]
    fn doc_diff_matches_live_diff_on_bytes() {
        let (alg, report, cost) = traced_run_and_model();

        // Round-trip the run through its JSON artifact…
        let text = report
            .to_json(alg.report_meta("doc_diff_test", &report))
            .to_string();
        let doc = msgpass::RunReportDoc::parse(&text).expect("artifact parses");
        assert_eq!(doc.name(), Some("doc_diff_test"));

        // …and the offline diff must agree with the live diff byte-for-byte.
        let live = diff_model_vs_measured(&report, &cost);
        let offline = diff_phase_rows(&doc.phases, &cost);
        assert_eq!(live.phases.len(), offline.phases.len());
        for (a, b) in live.phases.iter().zip(offline.phases.iter()) {
            assert_eq!(a.phase, b.phase);
            assert_eq!(a.measured_bytes, b.measured_bytes, "phase {}", a.phase);
            assert_eq!(a.modeled_bytes, b.modeled_bytes);
            assert_eq!(a.measured_msgs, b.measured_msgs, "phase {}", a.phase);
            assert_eq!(a.modeled_msgs, b.modeled_msgs);
        }
        // The model's per-phase byte volumes should track the measured
        // maximally-loaded rank for the traffic-bearing stages.
        for ph in &live.phases {
            if ph.modeled_bytes > 0.0 && ph.measured_bytes > 0 {
                let r = ph.bytes_ratio();
                assert!(
                    r > 0.4 && r < 2.5,
                    "phase {} bytes diverge: measured {} modeled {}",
                    ph.phase,
                    ph.measured_bytes,
                    ph.modeled_bytes
                );
            }
        }
        assert!(offline.render().contains("B ratio"));
        assert!(offline.render().contains("L ratio"));
        // The cannon message tier is exact: 2 messages per skew/shift round.
        let cannon = live
            .phases
            .iter()
            .find(|p| p.phase == "cannon")
            .expect("cannon phase");
        assert_eq!(
            cannon.measured_msgs as f64, cannon.modeled_msgs,
            "cannon L: measured {} modeled {}",
            cannon.measured_msgs, cannon.modeled_msgs
        );
    }
}
