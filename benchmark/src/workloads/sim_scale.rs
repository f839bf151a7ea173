//! `sim_scale`: the Fig. 3 problem executed under virtual time on 384
//! simulated ranks, arithmetic skipped. All the wall time goes into the
//! `msgpass` sim engine — 384 rank threads spawned per op, mailbox
//! matching, virtual clocks, payload moves — the same `msgpass` layer the
//! wall-clock workloads use, exercised the opposite way: thousands of
//! messages and a thread spawn per op instead of a few MB-sized messages
//! on a persistent world. `dense` executes nothing.
//!
//! The simulation has no random input: its output (traffic, virtual
//! makespan) is a pure function of the problem, so `--seed` changes
//! nothing here and every op must reproduce the first bit for bit.

use super::Workload;
use crate::span::Tracer;
use crate::verify::Verdict;
use ca3dmm::{
    ca3dmm_schedule, diff_model_vs_measured, Ca3dmm, Ca3dmmOptions, Collectives, ModelConfig,
};
use gridopt::Problem;
use msgpass::{RunReport, SimOptions};
use netmodel::eval::evaluate;
use netmodel::{CostReport, Machine, Placement};
use std::collections::BTreeMap;

pub const M: usize = 3072;
pub const N: usize = 3072;
pub const K: usize = 6144;
pub const P: usize = 384;

pub fn problem() -> Problem {
    Problem::new(M, N, K, P)
}

/// The analytic model's cost of the same run (same grid, placement,
/// overlap and collectives as the executed configuration).
pub fn model_cost(mm: &Ca3dmm, machine: &Machine, placement: Placement) -> CostReport {
    let cfg = ModelConfig {
        placement,
        elem_bytes: 8.0,
        overlap: true,
        include_redist: false,
        collectives: Collectives::Flat,
    };
    let schedule = ca3dmm_schedule(&problem(), mm.grid_context().grid(), &cfg);
    evaluate(machine, placement.flops_per_rank, &schedule)
}

pub struct SimScale {
    mm: Ca3dmm,
    machine: Machine,
    placement: Placement,
    last: Option<RunReport>,
    first_makespan: Option<f64>,
    op_secs: Vec<f64>,
}

impl SimScale {
    pub fn setup(_seed: u64, tr: &Tracer, parent: u64) -> SimScale {
        let mm = tr.in_span("ca3dmm.plan_build", parent, 0, || {
            Ca3dmm::new(problem(), &Ca3dmmOptions::default())
        });
        let machine = Machine::phoenix_cpu();
        let placement = machine.pure_mpi();
        SimScale {
            mm,
            machine,
            placement,
            last: None,
            first_makespan: None,
            op_secs: Vec::new(),
        }
    }

    fn makespan(report: &RunReport) -> Option<f64> {
        report.sim.as_ref().map(|s| s.makespan_secs)
    }
}

impl Workload for SimScale {
    fn op(&mut self, tr: &Tracer, parent: u64, op_id: u64) {
        let report = tr.in_span("ca3dmm.simulate_native", parent, op_id, || {
            self.mm.simulate_native(
                &self.machine,
                SimOptions {
                    placement: Some(self.placement),
                    execute_compute: false,
                    ..SimOptions::default()
                },
            )
        });
        self.last = Some(report);
    }

    fn account(&mut self, op_secs: f64) -> bool {
        let Some(makespan) = self.last.as_ref().and_then(Self::makespan) else {
            return false;
        };
        self.op_secs.push(op_secs);
        // Virtual time is bit-reproducible: compare the bit patterns.
        let first = *self.first_makespan.get_or_insert(makespan);
        first.to_bits() == makespan.to_bits()
    }

    fn verify(&mut self, inject_fault: bool) -> Verdict {
        let Some(report) = &self.last else {
            return Verdict::FAIL;
        };
        let mut ok = report.check_consistency().is_ok();
        ok &= report.sim.as_ref().is_some_and(|s| !s.execute_compute);
        let cost = model_cost(&self.mm, &self.machine, self.placement);
        let diff = diff_model_vs_measured(report, &cost);
        // The model must predict the critical rank's bytes exactly, phase
        // by phase. The fault hook pretends one byte went missing.
        let slack = u64::from(inject_fault);
        let mut worst = 0.0f64;
        for phase in &diff.phases {
            let measured = (phase.measured_bytes - slack.min(phase.measured_bytes)) as f64;
            ok &= measured == phase.modeled_bytes;
            if phase.modeled_bytes > 0.0 {
                worst = worst.max((measured - phase.modeled_bytes).abs() / phase.modeled_bytes);
            }
        }
        Verdict {
            ok,
            residual_ratio: worst,
        }
    }

    fn ledger(&mut self, out: &mut BTreeMap<String, f64>) {
        let Some(report) = &self.last else { return };
        let mut put = |k: &str, v: f64| {
            out.insert(k.to_owned(), v);
        };
        let ranks = report.traffic.per_rank.len();
        let msgs: u64 = (0..ranks).map(|r| report.rank_total(r).msgs).sum();
        put("msgpass.bytes_per_op", report.total_bytes() as f64);
        put("msgpass.msgs_per_op", msgs as f64);
        put(
            "msgpass.max_rank_bytes_per_op",
            report.max_rank_bytes() as f64,
        );
        let makespan = Self::makespan(report).unwrap_or(f64::NAN);
        put("msgpass.sim_makespan_ms", makespan * 1e3);
        put(
            "msgpass.sim_wall_us_per_msg",
            self.op_secs.iter().copied().fold(f64::NAN, f64::min) * 1e6 / msgs.max(1) as f64,
        );
        let cost = model_cost(&self.mm, &self.machine, self.placement);
        put(
            "netmodel.model_vs_sim_pct",
            100.0 * (cost.total_s - makespan) / makespan,
        );
        let diff = diff_model_vs_measured(report, &cost);
        let measured: f64 = diff.phases.iter().map(|p| p.measured_bytes as f64).sum();
        let modeled: f64 = diff.phases.iter().map(|p| p.modeled_bytes).sum();
        put(
            "netmodel.model_bytes_err_pct",
            100.0 * (measured - modeled).abs() / modeled,
        );
        put("gridopt.volume_ratio", self.mm.stats().volume_ratio);
        // Nothing is multiplied: flops are charged to the virtual clock,
        // not executed.
        put("dense.flops_per_op", 0.0);
    }
}
