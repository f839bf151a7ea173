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
//! mailboxes and the queue belong to that one thread, so no send, receive
//! or wake-up takes a lock. The program under test is *executed*, not
//! interpreted, but every rank carries a **virtual clock** (seconds since
//! run start) that advances only when the machine model says time passes:
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
//!
//! A message costs one payload box and a slot in the fabric's shared
//! envelope slab; counting it is a bump of the sender's phase slot, its
//! matrix cell and one histogram cell, and of the receiver's phase slot. A
//! rank costs O(1) allocations whatever it sends: its future, its phase
//! slots (labels are `&'static str`, never copied), its histogram cells,
//! its matrix row, its receive tables and the report's three maps; each
//! communicator's member list is built once per group, not once per
//! member. `tests/sim_op_work.rs` pins these counts exactly.
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

use crate::comm::Envelope;
use crate::world::{panic_message, Link, RankOutput, RunOptions, RunReport, RunSetup, World};
use crate::RankCtx;
use netmodel::{Machine, Placement};
use std::cell::{Cell, RefCell};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::future::Future;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::rc::Rc;
use std::sync::Arc;
use std::task::{Context, Poll, Waker};

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

/// The fabric of one [`World::simulate`] run: every rank's mailbox and the
/// run queue. All of it lives on the simulator's thread, so none of it
/// takes a lock, and no rank needs a `Waker`: a rank waits only in the
/// private `pull` of `comm`, which parks it on its empty mailbox, and the
/// send that fills a parked mailbox puts the rank back on the queue — once,
/// as a waker taken by the send would.
///
/// The mailboxes share one slab of envelopes, each a FIFO list threaded
/// through it, with freed slots reused first: a message costs a slot, not
/// a per-rank queue's growth.
pub(crate) struct SimNet {
    pub(crate) params: Arc<SimParams>,
    state: RefCell<NetState>,
    /// Member lists of the communicators built so far, by context id: the
    /// members of a group compute the same list, and keep one copy.
    groups: RefCell<HashMap<u64, Arc<[usize]>>>,
}

/// End of a slab list.
const NIL: usize = usize::MAX;

struct NetState {
    /// Every envelope in flight, plus free slots.
    slots: Vec<Slot>,
    /// First free slot, or `NIL`.
    free: usize,
    /// Per rank: its list of undelivered envelopes, oldest first.
    mailboxes: Vec<Mailbox>,
    /// Ranks ready to be polled, FIFO; every rank starts here, in order.
    ready: VecDeque<usize>,
}

struct Slot {
    env: Option<Envelope>,
    /// The next slot of the same mailbox (or of the free list).
    next: usize,
}

#[derive(Clone, Copy)]
struct Mailbox {
    head: usize,
    tail: usize,
    /// Its rank found it empty and waits for the next send.
    parked: bool,
}

impl SimNet {
    pub(crate) fn new(p: usize, params: Arc<SimParams>) -> SimNet {
        let empty = Mailbox {
            head: NIL,
            tail: NIL,
            parked: false,
        };
        SimNet {
            params,
            state: RefCell::new(NetState {
                slots: Vec::new(),
                free: NIL,
                mailboxes: vec![empty; p],
                ready: (0..p).collect(),
            }),
            groups: RefCell::default(),
        }
    }

    /// The shared member list of the group with context `ctx_id`, built
    /// from `world_ranks` by its first member.
    pub(crate) fn group_members(
        &self,
        ctx_id: u64,
        world_ranks: impl Iterator<Item = usize>,
    ) -> Arc<[usize]> {
        match self.groups.borrow_mut().entry(ctx_id) {
            Entry::Occupied(shared) => {
                debug_assert!(
                    shared.get().iter().copied().eq(world_ranks),
                    "two groups share context {ctx_id:#x}"
                );
                Arc::clone(shared.get())
            }
            Entry::Vacant(slot) => Arc::clone(slot.insert(world_ranks.collect())),
        }
    }

    /// Appends `env` to rank `dst`'s mailbox, and queues `dst` if it was
    /// parked on it.
    pub(crate) fn deliver(&self, dst: usize, env: Envelope) {
        let st = &mut *self.state.borrow_mut();
        let slot = Slot {
            env: Some(env),
            next: NIL,
        };
        let i = match st.free {
            NIL => {
                st.slots.push(slot);
                st.slots.len() - 1
            }
            i => {
                st.free = std::mem::replace(&mut st.slots[i], slot).next;
                i
            }
        };
        let mailbox = &mut st.mailboxes[dst];
        match mailbox.tail {
            NIL => mailbox.head = i,
            tail => st.slots[tail].next = i,
        }
        mailbox.tail = i;
        if std::mem::take(&mut mailbox.parked) {
            st.ready.push_back(dst);
        }
    }

    /// The oldest envelope in `rank`'s mailbox; `None` parks the rank until
    /// the next [`SimNet::deliver`] to it.
    pub(crate) fn take(&self, rank: usize) -> Option<Envelope> {
        let st = &mut *self.state.borrow_mut();
        let mailbox = &mut st.mailboxes[rank];
        let i = mailbox.head;
        if i == NIL {
            mailbox.parked = true;
            return None;
        }
        let slot = &mut st.slots[i];
        mailbox.head = std::mem::replace(&mut slot.next, st.free);
        if mailbox.head == NIL {
            mailbox.tail = NIL;
        }
        st.free = i;
        slot.env.take()
    }

    /// The next rank to poll.
    fn next_ready(&self) -> Option<usize> {
        self.state.borrow_mut().ready.pop_front()
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
        let (setup, _) = RunSetup::new(p, &RunOptions::default(), Some(Arc::clone(&params)));
        let _restore = RestoreGemmThreads(dense::pool::rank_gemm_threads());
        dense::pool::set_rank_gemm_threads(Some(setup.kernel_threads));
        let net = Rc::new(SimNet::new(p, params));
        let ctxs: Vec<RankCtx> = (0..p)
            .map(|rank| RankCtx::fresh(&setup, rank, Link::Virtual(Rc::clone(&net))))
            .collect();
        let outputs = run_tasks(&ctxs, &net, &f);
        check_delivered(&ctxs, &net);
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

std::thread_local! {
    /// Rank polls made by simulators on this thread so far.
    static POLLS: Cell<u64> = const { Cell::new(0) };
}

/// How many times simulators on the calling thread have polled a virtual
/// rank, over the thread's lifetime. A rank is polled once at its start
/// and once per send that refills its parked mailbox, so the difference
/// across one [`World::simulate`] is an exact, schedule-level work count
/// of that run.
pub fn polls_on_this_thread() -> u64 {
    POLLS.with(Cell::get)
}

/// The executor: one boxed future per rank, polled whenever the fabric put
/// it on the run queue (every rank starts there, in rank order). Returns
/// every rank's output in rank order, or panics as [`World::simulate`]
/// documents.
fn run_tasks<R, F>(ctxs: &[RankCtx], net: &SimNet, f: &F) -> Vec<RankOutput<R>>
where
    F: AsyncFn(&RankCtx) -> R,
{
    let p = ctxs.len();
    let mut tasks: Vec<Option<Pin<Box<dyn Future<Output = R> + '_>>>> = ctxs
        .iter()
        .map(|ctx| Some(Box::pin(f(ctx)) as Pin<Box<_>>))
        .collect();
    let mut done: Vec<Option<RankOutput<R>>> = (0..p).map(|_| None).collect();
    let mut panicked: Option<(usize, String)> = None;
    let mut cx = Context::from_waker(Waker::noop());
    let mut polls = 0;
    while let Some(rank) = net.next_ready() {
        let Some(task) = tasks[rank].as_mut() else {
            continue;
        };
        polls += 1;
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
    POLLS.with(|n| n.set(n.get() + polls));
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
fn check_delivered(ctxs: &[RankCtx], net: &SimNet) {
    for ctx in ctxs {
        let queued = net.take(ctx.world_rank());
        let stray = queued.or_else(|| ctx.pending.borrow_mut().pop());
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
