//! Virtual-time execution: the same rank closures [`crate::World::run`]
//! executes on OS threads, re-timed under a [`netmodel::Machine`] instead of
//! the wall clock.
//!
//! # How it works
//!
//! [`crate::World::run_sim`] spawns the `p` rank threads exactly as a wall
//! run does — the program under test is *executed*, not interpreted — but
//! every rank carries a **virtual clock** (seconds since run start) that
//! advances only when the machine model says time passes:
//!
//! * every **send** is priced by the sender's **NIC pipe**: the transfer
//!   starts at `max(compute clock, NIC clock)`, takes `α + β·bytes` (intra-
//!   or inter-node α/β picked by the placement's node structure), and the
//!   message is stamped with its virtual **arrival time** (the pipe's clock
//!   after the charge). Back-to-back nonblocking sends therefore serialize
//!   on the pipe — overlap cannot fabricate bandwidth. A blocking
//!   [`crate::Comm::send`] additionally advances the compute clock to the
//!   arrival (so for blocking-only programs NIC clock ≡ compute clock and
//!   the charging rule is exactly the historical `α + β·bytes` per send);
//!   a nonblocking [`crate::Comm::isend`] leaves the compute clock alone;
//! * **recv** completes at `max(receiver clock, arrival)`; the excess over
//!   the receiver's clock is recorded as that rank's *virtual* blocked time
//!   (the wall seconds the thread spends parked on its mailbox are
//!   meaningless — the OS interleaves thousands of rank threads);
//! * a **posted receive** ([`crate::Comm::irecv`]) charges nothing at post
//!   time; its `wait` applies the same `max(clock, arrival)` rule *then*
//!   (a blocking recv is a post with an immediate wait). Compute charged between post and wait therefore hides the transfer:
//!   an overlapped round costs `max(compute, communication)`, not the sum —
//!   the §III-F pipelining rule, and exactly what the cost model's
//!   `overlap: true` branch prices;
//! * **compute** is charged explicitly: the dense-GEMM call sites invoke
//!   [`crate::RankCtx::charge_flops`], which advances the clock by
//!   `flops / flops_per_rank` (γ). When [`SimOptions::execute_compute`] is
//!   false the arithmetic itself is skipped entirely, so paper-scale runs
//!   cost seconds instead of hours;
//! * everything else (local bookkeeping, buffer packing, rank arithmetic)
//!   is **free** — virtual time models the network and the GEMM rate only.
//!
//! Collectives need no special handling: every collective in this runtime is
//! built algorithmically on the same send/recv primitives, so their virtual
//! cost emerges from the messages they actually exchange.
//!
//! # What is charged vs what is stored
//!
//! Every charge above is a function of a message's *size* — its
//! [`crate::Payload::nbytes`] — never of its contents, and a `Vec<T>`
//! payload's size is `len · T::WIRE_BYTES` ([`crate::WireElem`]), a
//! compile-time property of the element type. A program that does not need
//! its values (a compute-free run, `execute_compute = false`) can therefore
//! run over the zero-sized [`dense::Shape64`] element — 0 bytes in memory,
//! the 8 bytes of an `f64` on the wire: every buffer, copy, ring sum and
//! message body compiles to nothing, and what remains of a simulated rank
//! is its thread, its mailbox and its counters. Sizes, message counts,
//! clocks and the report are identical to the `f64` run.
//! `Ca3dmm::simulate_native` makes exactly that choice from the flag.
//!
//! # Determinism
//!
//! Virtual timestamps are bit-reproducible regardless of how the OS
//! schedules the threads: each rank's clocks (compute and NIC) are touched
//! only by its own thread in program order; arrival stamps are computed by
//! the sender before the message enters the fabric; message matching is
//! keyed by exact `(source, communicator, tag)` with same-key messages
//! consumed in per-sender program order (`Envelope::seq`), and posted
//! receives match in posting order. No operation polls: a receive only
//! ever blocks until its match arrives, so the OS schedule never reaches
//! virtual time. Two runs with the same program, machine, and placement
//! therefore produce byte-identical `RunReport` artifacts.
//!
//! For the same reason, virtual-time runs never capture `dense::prof`
//! kernel profiles: [`World::run_sim`] runs with the default, unprofiled
//! [`RunOptions`], because the profiler timestamps the wall clock, which
//! simulation makes meaningless (and it would break the
//! byte-identical-artifact guarantee). The `compute` block of a sim report
//! is always absent.

use crate::world::{RunOptions, RunReport, World};
use crate::RankCtx;
use netmodel::{Machine, Placement};
use std::sync::Arc;

/// Options for [`World::run_sim`].
#[derive(Clone, Debug)]
pub struct SimOptions {
    /// How virtual ranks map onto nodes (and the per-rank GEMM rate). When
    /// `None`, the machine's pure-MPI placement (one rank per core) is used.
    pub placement: Option<Placement>,
    /// Actually perform local GEMMs (so results are numerically checkable).
    /// Set to `false` for paper-scale runs where only the timing and
    /// traffic matter: the virtual γ·flops charge is identical either way,
    /// but the real arithmetic is skipped. Nothing then reads a matrix
    /// value, so a generic program should also *store* none: instantiate
    /// it over [`dense::Shape64`] instead of `f64` (as
    /// `Ca3dmm::simulate_native` does) and the run carries shapes, not
    /// data, with an identical report.
    pub execute_compute: bool,
}

impl Default for SimOptions {
    fn default() -> SimOptions {
        SimOptions {
            placement: None,
            execute_compute: true,
        }
    }
}

/// What a virtual-time run ran on — embedded in the [`RunReport`] (and its
/// summary's JSON `sim` block) so downstream tooling can re-price the
/// analytic model on the same machine.
#[derive(Clone, Debug, PartialEq)]
pub struct SimInfo {
    /// The machine model the run was charged against.
    pub machine: Machine,
    /// The rank→node placement used.
    pub placement: Placement,
    /// Whether local GEMMs were actually executed.
    pub execute_compute: bool,
    /// Virtual makespan: the largest rank clock at rank exit, seconds.
    pub makespan_secs: f64,
}

/// Resolved per-run charging parameters, shared by every rank. Scalars only:
/// α/β are pre-resolved to one intra-node and one inter-node pair so the
/// per-message charge is a branch and a multiply-add, even at p = 3072.
pub(crate) struct SimParams {
    pub(crate) machine: Machine,
    pub(crate) placement: Placement,
    pub(crate) execute_compute: bool,
    alpha_intra: f64,
    alpha_inter: f64,
    beta_intra: f64,
    /// Inverse inter-node bandwidth at the placement's full link share
    /// (`ranks_per_node` concurrent senders — the steady state of the bulk
    /// phases this backend exists to time).
    beta_inter: f64,
    ranks_per_node: usize,
}

impl SimParams {
    pub(crate) fn new(machine: &Machine, placement: Placement, execute_compute: bool) -> SimParams {
        let rpn = placement.ranks_per_node.max(1);
        SimParams {
            alpha_intra: machine.alpha_intra,
            alpha_inter: machine.alpha_inter,
            beta_intra: machine.beta_intra,
            beta_inter: machine.beta_inter(rpn as f64),
            ranks_per_node: rpn,
            machine: machine.clone(),
            placement,
            execute_compute,
        }
    }

    /// Ranks per node of the sim placement (≥ 1) — the node layout exposed
    /// to the topology-aware collectives via [`crate::RankCtx`].
    pub(crate) fn ranks_per_node(&self) -> usize {
        self.ranks_per_node
    }

    /// α + β·bytes for one message between two world ranks, α/β picked by
    /// whether the placement puts them on the same node.
    pub(crate) fn transfer_secs(&self, src_world: usize, dst_world: usize, bytes: u64) -> f64 {
        if src_world / self.ranks_per_node == dst_world / self.ranks_per_node {
            self.alpha_intra + self.beta_intra * bytes as f64
        } else {
            self.alpha_inter + self.beta_inter * bytes as f64
        }
    }

    /// γ: seconds of local compute for `flops` floating-point operations.
    pub(crate) fn compute_secs(&self, flops: f64) -> f64 {
        flops / self.placement.flops_per_rank
    }
}

impl World {
    /// Runs `f` on `p` *virtual* ranks under `machine`, charging virtual
    /// time for every message and every [`RankCtx::charge_flops`] call; the
    /// returned [`RunReport`] carries phase times, wait attribution, and
    /// critical path in **virtual seconds** (`RunReport::sim` is set, and
    /// the JSON artifact says `"time_domain": "virtual"`).
    ///
    /// The closure is the *same* closure a wall-clock [`World::run`] takes;
    /// programs need no changes beyond routing their GEMM calls through
    /// [`RankCtx::charge_flops`] / [`RankCtx::executes_compute`] if they
    /// want compute charged (communication-only programs need nothing).
    pub fn run_sim<R, F>(p: usize, machine: &Machine, opts: SimOptions, f: F) -> (Vec<R>, RunReport)
    where
        R: Send,
        F: Fn(&RankCtx) -> R + Sync,
    {
        let placement = opts.placement.unwrap_or_else(|| machine.pure_mpi());
        let params = Arc::new(SimParams::new(machine, placement, opts.execute_compute));
        // Tracing and kernel profiling stay off (both would measure the
        // meaningless wall clock); executed GEMMs get the default per-rank
        // width.
        World::run_inner(p, RunOptions::default(), Some(params), f)
    }
}
