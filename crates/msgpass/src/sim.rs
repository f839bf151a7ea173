//! Virtual-time execution: the same rank programs [`crate::World::run`]
//! executes on OS threads, re-timed under a [`netmodel::Machine`] instead of
//! the wall clock.
//!
//! # How it works
//!
//! [`World::simulate`] runs each of the `p` ranks as a future and polls
//! them from a FIFO run queue on the calling thread: it spawns no thread.
//! A rank yields only where it waits for a message (the private `pull` in
//! `comm`); the send that fills its mailbox puts it back on the queue. The
//! program under test is *executed*, not interpreted, but every rank
//! carries a **virtual clock** (seconds since run start) that advances only
//! when the machine model says time passes:
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
//!   (how long a rank sat in the run queue's wait is meaningless — the
//!   executor interleaves thousands of ranks);
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
//! the 8 bytes of an `f64` on the wire. A `Vec` of it owns no allocation,
//! and every element-wise step of a shape-only data path costs only its
//! length, in every build, because `dense` branches on the element size
//! where it would otherwise loop: [`dense::Mat::zeros`], [`dense::Mat::block`]
//! and [`dense::Mat::set_block`] (SUMMA's panels), [`dense::Mat::join_cols`]
//! (the column join after an allgather of column slices) and
//! [`dense::add_slice`] (the ring sum of the reduce-scatter). What remains
//! of a simulated rank is its future, its mailbox and its counters, so a
//! simulated op costs its messages, not its elements. Sizes, message
//! counts, clocks and the report are identical to the `f64` run.
//! `ca3dmm::Pgemm::simulate_native` makes exactly that choice from the flag.
//!
//! # Determinism
//!
//! One thread and a FIFO queue make the schedule itself deterministic, but
//! virtual time does not rely on it: each rank's clocks (compute and NIC)
//! are touched only by that rank in program order; arrival stamps are
//! computed by the sender before the message enters the fabric; message
//! matching is keyed by exact `(source, communicator, tag)` with same-key
//! messages consumed in per-sender program order (`Envelope::seq`), and
//! posted receives match in posting order. A receive only ever waits until
//! its match arrives, so no schedule reaches virtual time — the wall-clock
//! executor runs the same programs to the same clocks. Two runs with the
//! same program, machine, and placement therefore produce byte-identical
//! `RunReport` artifacts.
//!
//! A run that cannot finish says so instead of hanging: the run queue
//! empties with ranks unfinished (`deadlock: …`, naming each blocked rank
//! and what it awaits), a rank panics (`rank r panicked: …`), or a message
//! is never received (`undelivered message: …`) — see [`World::simulate`].
//!
//! Virtual-time runs never capture `dense::prof` kernel profiles: they run
//! with the default, unprofiled [`RunOptions`], because the profiler
//! timestamps the wall clock, which simulation makes meaningless (and it
//! would break the byte-identical-artifact guarantee). The `compute` block
//! of a sim report is always absent.

use crate::world::{panic_message, RankOutput, RunOptions, RunReport, RunSetup, World};
use crate::RankCtx;
use netmodel::{Machine, Placement};
use std::collections::VecDeque;
use std::future::Future;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Wake, Waker};

/// Options for [`World::simulate`].
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
    /// `ca3dmm::Pgemm::simulate_native` does) and the run carries shapes,
    /// not data, with an identical report. Its copies, joins and sums then
    /// cost nothing per element as long as they go through the `dense`
    /// helpers the module docs name; an element loop written elsewhere
    /// still runs in full in an unoptimised build.
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

jsonlite::record! {
    /// What a virtual-time run ran on — embedded in the [`RunReport`] (and
    /// its summary's JSON `sim` block) so downstream tooling can re-price the
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

/// The simulator's run queue: ids of ranks ready to be polled, FIFO.
type RunQueue = Arc<Mutex<VecDeque<usize>>>;

/// Puts a virtual rank back on the run queue. Only the rank's mailbox
/// stores its waker, and a send takes the waker to wake it, so a waiting
/// rank is queued once.
struct RankWaker {
    rank: usize,
    queue: RunQueue,
}

impl Wake for RankWaker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        let mut queue = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        queue.push_back(self.rank);
    }
}

/// Restores the caller's local-GEMM width when a simulation ends, however
/// it ends: the ranks' cap is set on the caller's thread for the run.
struct RestoreGemmThreads(Option<usize>);

impl Drop for RestoreGemmThreads {
    fn drop(&mut self) {
        dense::pool::set_rank_gemm_threads(self.0);
    }
}

impl World {
    /// Runs `f` on `p` *virtual* ranks under `machine`, charging virtual
    /// time for every message and every [`RankCtx::charge_flops`] call; the
    /// returned [`RunReport`] carries phase times, wait attribution, and
    /// critical path in **virtual seconds** (`RunReport::sim` is set, and
    /// the JSON artifact says `"time_domain": "virtual"`).
    ///
    /// The program is the *same* async closure a wall-clock [`World::run`]
    /// takes; programs need no changes beyond routing their GEMM calls
    /// through [`RankCtx::charge_flops`] / [`RankCtx::executes_compute`] if
    /// they want compute charged (communication-only programs need
    /// nothing). Each rank is one future, and all `p` of them are polled
    /// from a FIFO run queue on the calling thread: no thread is spawned.
    ///
    /// # Panics
    /// `rank r panicked: …` for the lowest rank whose program panicked;
    /// `deadlock: …` naming every blocked rank and the `(source, tag)` it
    /// awaits if the run queue empties before every rank has finished; and
    /// `undelivered message: …` if a message is still unreceived when the
    /// last rank finishes.
    pub fn simulate<R, F>(
        p: usize,
        machine: &Machine,
        opts: SimOptions,
        f: F,
    ) -> (Vec<R>, RunReport)
    where
        F: AsyncFn(&RankCtx) -> R,
    {
        let placement = opts.placement.unwrap_or_else(|| machine.pure_mpi());
        let params = Arc::new(SimParams::new(machine, placement, opts.execute_compute));
        // Tracing and kernel profiling stay off (both would measure the
        // meaningless wall clock); executed GEMMs get the default per-rank
        // width, on this thread for the duration of the run.
        let (setup, receivers) = RunSetup::new(p, &RunOptions::default(), Some(params));
        let _restore = RestoreGemmThreads(dense::pool::rank_gemm_threads());
        dense::pool::set_rank_gemm_threads(Some(setup.kernel_threads));
        let ctxs: Vec<RankCtx> = (receivers.into_iter().enumerate())
            .map(|(rank, rx)| RankCtx::fresh(&setup, rank, rx))
            .collect();
        let outputs = run_tasks(&ctxs, &f);
        check_delivered(&ctxs);
        setup.assemble_report(outputs)
    }

    /// [`World::simulate`] for a synchronous rank program, kept for the
    /// frozen benchmark until item 7 (ROADMAP.md). The program cannot wait
    /// for a message: a blocking call on a virtual rank panics.
    pub fn run_sim<R, F>(p: usize, machine: &Machine, opts: SimOptions, f: F) -> (Vec<R>, RunReport)
    where
        F: Fn(&RankCtx) -> R,
    {
        World::simulate(p, machine, opts, async |ctx: &RankCtx| f(ctx))
    }
}

/// The executor: one boxed future per rank, polled whenever its waker put
/// it on the run queue (every rank starts there, in rank order). Returns
/// every rank's output in rank order, or panics as [`World::simulate`]
/// documents.
fn run_tasks<R, F>(ctxs: &[RankCtx], f: &F) -> Vec<RankOutput<R>>
where
    F: AsyncFn(&RankCtx) -> R,
{
    let p = ctxs.len();
    let queue: RunQueue = Arc::new(Mutex::new((0..p).collect()));
    let wakers: Vec<Waker> = (0..p)
        .map(|rank| {
            let queue = Arc::clone(&queue);
            Waker::from(Arc::new(RankWaker { rank, queue }))
        })
        .collect();
    let mut tasks: Vec<Option<Pin<Box<dyn Future<Output = R> + '_>>>> = ctxs
        .iter()
        .map(|ctx| Some(Box::pin(f(ctx)) as Pin<Box<_>>))
        .collect();
    let mut done: Vec<Option<RankOutput<R>>> = (0..p).map(|_| None).collect();
    let mut panicked: Option<(usize, String)> = None;
    loop {
        let next = queue.lock().unwrap_or_else(|e| e.into_inner()).pop_front();
        let Some(rank) = next else { break };
        let Some(task) = tasks[rank].as_mut() else {
            continue;
        };
        let mut cx = Context::from_waker(&wakers[rank]);
        let ctx = &ctxs[rank];
        let polled = catch_unwind(AssertUnwindSafe(|| {
            task.as_mut().poll(&mut cx).map(|result| ctx.finish(result))
        }));
        match polled {
            Ok(Poll::Pending) => continue,
            Ok(Poll::Ready(out)) => done[rank] = Some(out),
            Err(e) => {
                if panicked.as_ref().is_none_or(|(r, _)| rank < *r) {
                    panicked = Some((rank, panic_message(e)));
                }
            }
        }
        tasks[rank] = None;
    }
    drop(tasks);
    if let Some((rank, msg)) = panicked {
        panic!("rank {rank} panicked: {msg}");
    }
    let blocked: Vec<String> = (done.iter().enumerate())
        .filter(|(_, out)| out.is_none())
        .map(|(rank, _)| {
            let awaits: Vec<String> = (ctxs[rank].awaited().iter())
                .map(|(src, tag)| format!("(src {src}, tag {tag})"))
                .collect();
            format!("rank {rank} awaits {}", awaits.join(" "))
        })
        .collect();
    assert!(
        blocked.is_empty(),
        "deadlock: {} of {p} ranks blocked with nothing left to run: {}",
        blocked.len(),
        blocked.join("; ")
    );
    done.into_iter().flatten().collect()
}

/// Every message sent must have been received: after the last rank
/// finishes, each mailbox and each pending buffer is empty.
fn check_delivered(ctxs: &[RankCtx]) {
    let mut cx = Context::from_waker(Waker::noop());
    for ctx in ctxs {
        let queued = ctx.rx.poll_recv(&mut cx);
        let stray = match queued {
            Poll::Ready(Ok(env)) => Some(env),
            _ => ctx.pending.borrow_mut().pop(),
        };
        if let Some(env) = stray {
            panic!(
                "undelivered message: rank {} never received the message from rank {} (tag {})",
                ctx.world_rank(),
                env.src_world,
                env.tag
            );
        }
    }
}
