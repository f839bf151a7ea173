//! The four workloads and the child-process block runner.
//!
//! A *block* is what one child process does: set up (timed), run ops
//! back-to-back for `--block-secs` (each op timed), verify, and print one
//! JSON line with its samples, peak RSS and per-layer counters. The parent
//! ([`crate::driver`]) interleaves blocks of different workloads and pools
//! their samples.

pub mod flat_userlayout;
pub mod serve_mix;
pub mod sim_scale;
pub mod square_native;

use crate::host;
use crate::span::{self, Tracer};
use crate::stats;
use crate::verify::Verdict;
use jsonlite::Json;
use msgpass::{RunOptions, RunReport};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Workload names, in the round-robin order the driver visits them.
pub const NAMES: [&str; 4] = ["square_native", "flat_userlayout", "serve_mix", "sim_scale"];

/// Why each workload exists (also the `why` of `BENCHMARK.json`).
pub fn why(name: &str) -> &'static str {
    match name {
        "square_native" => {
            "1536^3 f64 on 8 ranks, native layouts: dense GEMM does >=60% of the op, msgpass moves MB-sized Cannon/reduce messages, layout and serve are bypassed"
        }
        "flat_userlayout" => {
            "2048x2048x48 with transposed/block-cyclic user layouts on grid 2x4x1: redistribution and replication dominate, dense runs skinny-k and pack-bound"
        }
        "serve_mix" => {
            "closed-loop NDJSON client on an in-process server, 128-request Zipf cycle over 48 small shapes: plan cache, engine overhead and small-message latency dominate, dense does little"
        }
        "sim_scale" => {
            "virtual-time CA3DMM of 3072x3072x6144 on 384 simulated ranks, no arithmetic: the msgpass sim engine (threads, mailboxes, clocks) does all the work, dense none"
        }
        _ => "",
    }
}

/// Ranks each workload runs on.
pub fn ranks(name: &str) -> usize {
    match name {
        "square_native" => square_native::P,
        "flat_userlayout" => flat_userlayout::P,
        "serve_mix" => serve_mix::P,
        _ => sim_scale::P,
    }
}

/// The `--inject-fault` hook of the two multiply workloads: adds 1 to one
/// element of the first non-empty block of `C`.
pub fn corrupt_one_element<'a>(blocks: impl Iterator<Item = &'a mut dense::Mat<f64>>) {
    if let Some(block) = blocks.into_iter().find(|m| !m.is_empty()) {
        block.set(0, 0, block.get(0, 0) + 1.0);
    }
}

/// Rank threads run their local GEMMs single-threaded; the two real cores
/// are shared by `p ≥ 4` rank threads in every wall-clock workload.
pub fn job_options() -> RunOptions {
    RunOptions {
        kernel_threads_per_rank: Some(1),
        ..RunOptions::default()
    }
}

/// Binds every rank thread of `world` to one CPU, round-robin over the CPUs
/// the process may use — what `mpirun --bind-to core` does for an MPI job.
/// Without it the kernel's placement of `p` busy threads on fewer cores
/// (4 + 4, or 5 + 3 for many seconds) decides the op time, not the code
/// under test.
pub fn bind_ranks(world: &msgpass::PersistentWorld) {
    let cpus = host::allowed_cpus();
    if cpus.is_empty() {
        return;
    }
    world
        .run_job(job_options(), move |ctx| {
            host::pin_current_thread(cpus[ctx.world_rank() % cpus.len()]);
        })
        .expect("binding a rank thread cannot panic");
}

/// One workload instance inside a child process.
pub trait Workload {
    /// One op: only the calls into the system under test. Timed by the
    /// caller. Spans hang under `parent`.
    fn op(&mut self, tr: &Tracer, parent: u64, op_id: u64);
    /// Untimed bookkeeping for the op that just ran (`op_secs` long):
    /// extracts counters and checks what can be checked on every op.
    /// Returns whether the op succeeded.
    fn account(&mut self, op_secs: f64) -> bool;
    /// Untimed check of the most recent op's output. With `inject_fault`
    /// the output is corrupted first, so the check must fail.
    fn verify(&mut self, inject_fault: bool) -> Verdict;
    /// Per-layer values gathered over the ops so far.
    fn ledger(&mut self, out: &mut BTreeMap<String, f64>);
    /// Stops whatever the workload started.
    fn shutdown(self: Box<Self>) {}
}

fn build(name: &str, seed: u64, tr: &Tracer, parent: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "square_native" => Box::new(square_native::SquareNative::setup(seed, tr, parent)),
        "flat_userlayout" => Box::new(flat_userlayout::FlatUserLayout::setup(seed, tr, parent)),
        "serve_mix" => Box::new(serve_mix::ServeMix::setup(seed, tr, parent)),
        "sim_scale" => Box::new(sim_scale::SimScale::setup(seed, tr, parent)),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

/// Arguments of one block.
pub struct BlockArgs {
    pub workload: String,
    pub seed: u64,
    pub block_secs: f64,
    pub trace: bool,
    /// Where to write this block's Chrome trace (traced blocks only).
    pub trace_out: Option<PathBuf>,
    pub inject_fault: bool,
}

/// Runs one block; `entry` is the instant the process entered `main`.
pub fn run_block(args: &BlockArgs, entry: Instant) -> Result<Json, String> {
    dense::pool::set_gemm_threads(host::nproc());
    let tr = if args.trace {
        Tracer::on()
    } else {
        Tracer::off()
    };

    // Set-up: everything up to and including the first verified op.
    let mut failed = 0u64;
    let mut w = {
        let setup = tr.span("setup", 0, 0);
        let mut w = build(&args.workload, args.seed, &tr, setup.id())?;
        let t0 = Instant::now();
        {
            let first = tr.span("op", setup.id(), 1);
            w.op(&tr, first.id(), 1);
        }
        let secs = t0.elapsed().as_secs_f64();
        let ok = w.account(secs);
        let verdict = tr.in_span("verify", setup.id(), 1, || w.verify(false));
        if !(ok && verdict.ok) {
            failed += 1;
        }
        w
    };
    let setup_s = entry.elapsed().as_secs_f64();
    let mut attempted = 1u64;

    // The timed block.
    let mut op_ms: Vec<f64> = Vec::new();
    let cpu0 = host::process_cpu_secs();
    let block = Instant::now();
    while block.elapsed().as_secs_f64() < args.block_secs {
        let op_id = attempted + 1;
        let t0 = Instant::now();
        {
            let op = tr.span("op", 0, op_id);
            w.op(&tr, op.id(), op_id);
        }
        let secs = t0.elapsed().as_secs_f64();
        attempted += 1;
        if !w.account(secs) {
            failed += 1;
        }
        op_ms.push(secs * 1e3);
    }
    let block_wall = block.elapsed().as_secs_f64();
    let cpu = host::process_cpu_secs() - cpu0;
    let vm_hwm_kib = host::vm_hwm_kib()?;

    let verdict = w.verify(args.inject_fault);
    if !verdict.ok {
        failed += 1;
    }
    let mut ledger = BTreeMap::new();
    w.ledger(&mut ledger);
    w.shutdown();

    let spans = tr.take();
    let self_us: Vec<(String, Json)> = span::self_times(&spans)
        .into_iter()
        .map(|(name, st)| {
            (
                name,
                Json::obj([
                    ("count", Json::Num(st.count as f64)),
                    ("total_us", Json::Num(st.total_us)),
                    ("self_us", Json::Num(st.self_us)),
                ]),
            )
        })
        .collect();
    if let Some(path) = &args.trace_out {
        let mut text = span::chrome_json(&spans, &args.workload).to_string();
        text.push('\n');
        std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))?;
    }

    Ok(Json::obj([
        ("workload", Json::Str(args.workload.clone())),
        ("traced", Json::Bool(args.trace)),
        ("setup_s", Json::Num(setup_s)),
        (
            "op_ms",
            Json::Arr(op_ms.iter().map(|v| Json::Num(*v)).collect()),
        ),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("vm_hwm_kib", Json::Num(vm_hwm_kib as f64)),
        ("block_wall_s", Json::Num(block_wall)),
        ("cpu_s", Json::Num(cpu)),
        ("residual_ratio", Json::Num(verdict.residual_ratio)),
        (
            "ledger",
            Json::obj(ledger.into_iter().map(|(k, v)| (k, Json::Num(v)))),
        ),
        ("self_us", Json::obj(self_us)),
    ]))
}

/// The paper's phases, as `msgpass` labels them, with the per-layer metric
/// each one feeds.
const PHASES: [(&str, &str); 4] = [
    ("redist", "ca3dmm.phase_redist_ms"),
    ("replicate_ab", "ca3dmm.phase_replicate_ms"),
    ("cannon_shift", "ca3dmm.phase_cannon_ms"),
    ("reduce_c", "ca3dmm.phase_reduce_ms"),
];

/// Per-op counters read from the [`RunReport`] every `run_job` already
/// returns (bytes, messages, wait and phase seconds): the ledger of the two
/// wall-clock multiply workloads.
#[derive(Default)]
pub struct JobLedger {
    phase_ms: [Vec<f64>; 4],
    reconcile_pct: Vec<f64>,
    bytes: u64,
    msgs: u64,
    max_rank_bytes: u64,
    redist_bytes: u64,
    wait_secs: f64,
    phase_secs_all_ranks: f64,
}

impl JobLedger {
    /// Records one op's report. Phase times are the mean over ranks of each
    /// rank's own phase clock, so the four of them add up to (almost) the
    /// op; the per-phase maximum would add up to more, because ranks
    /// overlap.
    pub fn record(&mut self, report: &RunReport, op_secs: f64) {
        let ranks = report.traffic.per_rank.len().max(1);
        let mut sum_ms = 0.0;
        for (slot, (phase, _)) in self.phase_ms.iter_mut().zip(PHASES) {
            let total: f64 = (0..ranks).map(|r| report.phase_secs(r, phase)).sum();
            let mean_ms = total / ranks as f64 * 1e3;
            slot.push(mean_ms);
            sum_ms += mean_ms;
            self.phase_secs_all_ranks += total;
            self.wait_secs += (0..ranks).map(|r| report.wait_secs(r, phase)).sum::<f64>();
        }
        self.reconcile_pct.push(100.0 * sum_ms / (op_secs * 1e3));
        // Traffic is deterministic: every op of a workload moves the same
        // bytes, so the last op's counts are the per-op counts.
        self.bytes = report.total_bytes();
        self.msgs = (0..ranks).map(|r| report.rank_total(r).msgs).sum();
        self.max_rank_bytes = report.max_rank_bytes();
        self.redist_bytes = report.phase_total("redist").bytes;
    }

    pub fn emit(&self, out: &mut BTreeMap<String, f64>) {
        for (samples, (_, metric)) in self.phase_ms.iter().zip(PHASES) {
            out.insert(metric.to_owned(), stats::median(samples));
        }
        out.insert(
            "ca3dmm.phase_reconcile_pct".to_owned(),
            stats::median(&self.reconcile_pct),
        );
        out.insert("msgpass.bytes_per_op".to_owned(), self.bytes as f64);
        out.insert("msgpass.msgs_per_op".to_owned(), self.msgs as f64);
        out.insert(
            "msgpass.max_rank_bytes_per_op".to_owned(),
            self.max_rank_bytes as f64,
        );
        out.insert(
            "layout.redist_bytes_per_op".to_owned(),
            self.redist_bytes as f64,
        );
        let share = if self.phase_secs_all_ranks > 0.0 {
            self.wait_secs / self.phase_secs_all_ranks
        } else {
            0.0
        };
        out.insert("msgpass.wait_share".to_owned(), share);
    }
}

#[cfg(test)]
mod tests {
    use super::flat_userlayout::{layout_a, layout_b, user_blocks};
    use crate::rng::derive_seed;

    /// FNV-1a over the bit patterns of every block of every rank.
    fn digest(seed: u64) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for layout in [layout_a(), layout_b()] {
            for blocks in user_blocks(&layout, derive_seed(seed, 1)).iter() {
                for v in blocks.iter().flat_map(|m| m.as_slice()) {
                    h = (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01B3);
                }
            }
        }
        h
    }

    #[test]
    fn operand_digests_follow_the_seed() {
        assert_eq!(digest(42), digest(42), "same seed, same operands");
        assert_ne!(digest(42), digest(43), "different seed, different operands");
    }
}
