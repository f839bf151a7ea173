//! The world: wall-clock rank threads, mailboxes, the shared fabric, and
//! run reports.

use crate::chan::{channel, Receiver, Sender};
use crate::comm::{Envelope, PostedRecv};
use crate::metrics::{CommMatrix, SizeHistogram};
use crate::sim::{SimInfo, SimNet, SimParams};
use crate::trace::{RawEvent, Recorder, SpanKind, Timeline};
use crate::traffic::{merge_hist, RankStats, RankTraffic, TrafficReport};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::future::Future;
use std::ops::Deref;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::time::Instant;

/// Shared, immutable communication fabric: one inbound channel per rank and
/// the world's member list. The counters are not here — each rank owns its
/// own ([`RankCtx`]) and hands them back when it exits.
pub(crate) struct Fabric {
    /// One channel per wall-clock rank; empty under virtual time, whose
    /// mailboxes are the simulator's ([`crate::sim`]).
    pub(crate) senders: Vec<Sender<Envelope>>,
    /// `0..p`: the member list every rank's world communicator shares.
    pub(crate) world_ranks: Arc<[usize]>,
}

impl Fabric {
    /// A fresh `p`-rank fabric plus each rank's receiving end, or, with
    /// `channels` false, a fabric without channels. One fabric serves
    /// exactly one run (messages of one job must never reach the next), so
    /// persistent worlds build a new one per job.
    pub(crate) fn new(p: usize, channels: bool) -> (Arc<Fabric>, Vec<Receiver<Envelope>>) {
        let (senders, receivers) = (0..if channels { p } else { 0 }).map(|_| channel()).unzip();
        let fabric = Arc::new(Fabric {
            senders,
            world_ranks: (0..p).collect(),
        });
        (fabric, receivers)
    }
}

/// Where a rank's messages arrive.
pub(crate) enum Link {
    /// A wall-clock rank: its end of the channel its peers send on through
    /// the shared [`Fabric`].
    Wall(Receiver<Envelope>),
    /// A virtual rank: the simulator's fabric, which holds every rank's
    /// mailbox, the run queue and the charging parameters on one thread.
    Virtual(Rc<SimNet>),
}

/// Stack size of every wall-clock rank thread, bytes — of
/// [`World::run_opts`] runs and of [`crate::PersistentWorld`] workers
/// (virtual ranks are tasks on the caller's thread and have no stack of
/// their own). Rank closures keep bulk data on the heap (`Mat`, `Vec`), so
/// 1 MiB is ample, and a world of many ranks reserves a megabyte of
/// address space per rank rather than the platform default (often 8 MiB).
pub(crate) const RANK_STACK_SIZE: usize = 1 << 20;

/// Options for [`World::run_opts`].
#[derive(Clone, Copy, Debug, Default)]
pub struct RunOptions {
    /// Record a begin/end event for every phase region, point-to-point
    /// send/recv, and collective, and assemble them into
    /// [`RunReport::timeline`]. Off by default: with tracing disabled every
    /// hook is a single branch on a `bool`, so untraced runs pay no
    /// measurable overhead.
    pub trace: bool,
    /// Kernel threads each rank may use for local GEMM calls. Defaults to
    /// `dense::pool::rank_threads_for(p)` — the process-wide budget split
    /// evenly across the `p` ranks (min 1) — so running 16 ranks on a
    /// 16-core host gives every rank one kernel thread instead of 16 ranks
    /// × 16 threads of oversubscription.
    pub kernel_threads_per_rank: Option<usize>,
    /// Capture a `dense::prof` kernel profile on every rank thread for the
    /// duration of the run and return them in [`RunReport::compute`].
    /// Off by default (`fig5_breakdown --prof` turns it on). Virtual-time
    /// runs never capture: wall-clock kernel spans are meaningless there,
    /// and sim artifacts must stay byte-identical.
    pub gemm_prof: bool,
}

impl RunOptions {
    /// Options with event tracing enabled.
    pub fn traced() -> RunOptions {
        RunOptions {
            trace: true,
            ..RunOptions::default()
        }
    }
}

/// Everything a traced run measured: the per-phase traffic counters and
/// (when [`RunOptions::trace`] was set) the assembled event [`Timeline`].
///
/// Dereferences to [`TrafficReport`], so code written against the older
/// `(results, TrafficReport)` return type keeps working unchanged.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// Per-rank, per-phase bytes/messages and seconds — wall seconds for
    /// ordinary runs, **virtual** seconds for [`World::simulate`] runs.
    pub traffic: TrafficReport,
    /// Per-rank span timeline (empty unless tracing was enabled).
    pub timeline: Timeline,
    /// Set when this report came from a virtual-time run: the machine,
    /// placement, and virtual makespan. `None` means wall time.
    pub sim: Option<SimInfo>,
    /// Per-rank kernel profiles, captured when a *wall-clock* run asked for
    /// them ([`RunOptions::gemm_prof`]). Empty for unprofiled and
    /// virtual-time runs. Serialized as the report's `compute` block.
    pub compute: Vec<Option<dense::prof::KernelProfile>>,
}

impl Deref for RunReport {
    type Target = TrafficReport;

    fn deref(&self) -> &TrafficReport {
        &self.traffic
    }
}

/// Everything one rank needs: its identity, its mailbox, its counters, and
/// the fabric. All communication operations take `&RankCtx`; the mutable
/// pieces (pending-message buffer, current phase, counters, trace recorder)
/// live in cells because a rank is single-threaded by construction — a
/// wall-clock rank is one thread, a virtual rank one task on the
/// simulator's thread.
pub struct RankCtx {
    world_rank: usize,
    world_size: usize,
    pub(crate) fabric: Arc<Fabric>,
    /// Where this rank's messages arrive, and whether it runs under
    /// virtual time.
    link: Link,
    /// Messages received but not yet matched by a `recv`.
    pub(crate) pending: RefCell<Vec<Envelope>>,
    /// Receives posted and not yet completed: by `irecv` until `wait`, by a
    /// blocking `recv` until it returns. Invariant: `pending` never holds a
    /// message whose `(src, ctx, tag)` key matches an open (unfilled) entry
    /// here — every arrival is offered to the earliest-posted open entry
    /// first.
    pub(crate) posted: RefCell<Vec<PostedRecv>>,
    /// Monotonic counter stamping posting order onto [`PostedRecv::id`] —
    /// MPI's rule that arrivals match posted receives in posting order.
    post_seq: Cell<u64>,
    /// This rank's traffic counters and per-phase seconds, and the current
    /// phase label they attribute to. Only this rank writes them;
    /// [`RankCtx::finish`] hands them to the report when it exits.
    stats: RefCell<RankStats>,
    /// Wall-clock of the current phase's start (for the per-phase timing
    /// report); `None` on a virtual rank, which times its phases on the
    /// virtual clock and never reads the wall clock.
    phase_started: Cell<Option<Instant>>,
    /// This rank's virtual clock, seconds since run start (sim runs only).
    clock: Cell<f64>,
    /// Virtual time at which this rank's NIC injection pipe frees up (sim
    /// runs only). Sends serialize on the pipe — an `isend` issued while an
    /// earlier transfer is still draining starts when that transfer ends —
    /// but, unlike the compute clock, posting one does not stall the rank.
    nic_clock: Cell<f64>,
    /// Virtual clock at the current phase's start (sim runs only).
    phase_started_v: Cell<f64>,
    /// Monotonic per-rank send counter; stamps [`Envelope::seq`] so
    /// same-key message matching has an explicit program-order tie-break.
    send_seq: Cell<u64>,
    /// Monotonic counter used to derive child communicator contexts.
    pub(crate) ctx_seq: Cell<u64>,
    /// Per-rank trace event recorder (no-op unless the run is traced).
    pub(crate) recorder: Recorder,
    /// The collective algorithm currently executing on this rank (None for
    /// bare point-to-point traffic). Keys the per-algorithm size histograms
    /// to the path the collective actually took.
    coll: Cell<Option<&'static str>>,
}

impl RankCtx {
    /// Builds one rank's context for one run (or one persistent-world job).
    pub(crate) fn fresh(setup: &RunSetup, rank: usize, link: Link) -> RankCtx {
        let wall = matches!(link, Link::Wall(_));
        RankCtx {
            world_rank: rank,
            world_size: setup.fabric.world_ranks.len(),
            fabric: Arc::clone(&setup.fabric),
            link,
            pending: RefCell::new(Vec::new()),
            posted: RefCell::new(Vec::new()),
            post_seq: Cell::new(0),
            stats: RefCell::default(),
            phase_started: Cell::new(wall.then(Instant::now)),
            clock: Cell::new(0.0),
            nic_clock: Cell::new(0.0),
            phase_started_v: Cell::new(0.0),
            send_seq: Cell::new(0),
            ctx_seq: Cell::new(0),
            recorder: Recorder::new(setup.trace),
            coll: Cell::new(None),
        }
    }

    /// This rank's index in the world, `0..world_size`.
    pub fn world_rank(&self) -> usize {
        self.world_rank
    }

    /// Number of ranks in the world (the paper's `P`, i.e. `mpirun -np P`).
    pub fn world_size(&self) -> usize {
        self.world_size
    }

    /// Sets the phase label attributed to subsequent sends (for the traffic
    /// report), to wall time (for the per-phase timing report), and to the
    /// trace timeline. Phases are free-form; algorithms use names like
    /// `"replicate_ab"`, `"cannon_shift"`, `"reduce_c"`, `"redist"`.
    ///
    /// The traffic clock and the trace span share one timestamp, so a
    /// rank's phase spans and [`TrafficReport::phase_secs`] agree exactly
    /// (up to float rounding).
    pub fn set_phase(&self, phase: &'static str) {
        let now = self.flush_phase_time();
        let mut stats = self.stats.borrow_mut();
        if let Some(now) = now.filter(|_| self.recorder.enabled()) {
            if !stats.phase().is_empty() {
                self.recorder.end_at(now, 0);
            }
            if !phase.is_empty() {
                self.recorder
                    .begin_at(now, SpanKind::Phase(phase.to_owned()), 0);
            }
        }
        stats.enter(phase);
    }

    /// Accumulates elapsed time into the current phase and restarts the
    /// phase clock. Called on phase switches and at rank exit. Wall runs
    /// use the monotonic clock and return the instant they read, for the
    /// trace; sim runs use the rank's virtual clock, so the per-phase
    /// seconds report is in the run's own time domain, and read no wall
    /// clock (`None`).
    fn flush_phase_time(&self) -> Option<Instant> {
        let (elapsed, now) = match self.phase_started.get() {
            None => {
                let c = self.clock.get();
                (c - self.phase_started_v.replace(c), None)
            }
            Some(started) => {
                let now = Instant::now();
                self.phase_started.set(Some(now));
                (now.duration_since(started).as_secs_f64(), Some(now))
            }
        };
        self.stats.borrow_mut().add_secs(elapsed);
        now
    }

    /// Final bookkeeping when the rank's closure returns `result`: closes
    /// the open phase (clock and trace span) and hands back the result with
    /// the raw event stream, the counters and the final virtual clock.
    pub(crate) fn finish<R>(&self, result: R) -> RankOutput<R> {
        assert!(
            self.posted.borrow().is_empty(),
            "rank {} exited with {} posted receive(s) never waited on",
            self.world_rank,
            self.posted.borrow().len()
        );
        let now = self.flush_phase_time();
        let mut stats = self.stats.borrow_mut();
        if let Some(now) = now.filter(|_| self.recorder.enabled() && !stats.phase().is_empty()) {
            self.recorder.end_at(now, 0);
        }
        RankOutput {
            result,
            stats: stats.finish(),
            events: self.recorder.take(),
            clock: self.clock.get(),
            profile: None,
        }
    }

    /// The current phase label.
    pub fn phase(&self) -> &'static str {
        self.stats.borrow().phase()
    }

    /// Ranks per node under the block mapping (`node = world_rank /
    /// ranks_per_node`). Nodes exist only in a machine model: a virtual-time
    /// run takes them from its sim placement, and a wall-clock run is one
    /// node holding every rank, so topology-aware collectives take their
    /// flat paths there.
    pub fn ranks_per_node(&self) -> usize {
        self.sim()
            .map_or(self.world_size, SimParams::ranks_per_node)
    }

    /// Virtual-time charging parameters; `None` in wall-clock runs, where
    /// every sim hook reduces to an untaken branch.
    fn sim(&self) -> Option<&SimParams> {
        match &self.link {
            Link::Wall(_) => None,
            Link::Virtual(net) => Some(&net.params),
        }
    }

    /// Hands `env` to world rank `dst`'s mailbox.
    pub(crate) fn deliver(&self, dst: usize, env: Envelope) {
        match &self.link {
            Link::Wall(_) => self.fabric.senders[dst]
                .send(env)
                .expect("receiving rank has exited with messages in flight"),
            Link::Virtual(net) => net.deliver(dst, env),
        }
    }

    /// The world ranks of the group with context `ctx_id`, as this member
    /// computes them. Every member of a group computes the same list, so
    /// virtual ranks, which share one thread, share one copy of it.
    pub(crate) fn group_members(
        &self,
        ctx_id: u64,
        world_ranks: impl Iterator<Item = usize>,
    ) -> Arc<[usize]> {
        match &self.link {
            Link::Wall(_) => world_ranks.collect(),
            Link::Virtual(net) => net.group_members(ctx_id, world_ranks),
        }
    }

    /// The next message in this rank's mailbox, or `Pending` until a send
    /// fills it: a wall-clock rank leaves `cx`'s waker for the sender, a
    /// virtual rank is put back on the run queue by the send itself.
    pub(crate) fn poll_mail(&self, cx: &mut Context<'_>) -> Poll<Envelope> {
        match &self.link {
            Link::Wall(rx) => rx
                .poll_recv(cx)
                .map(|env| env.expect("all senders dropped while waiting for a message")),
            Link::Virtual(net) => net.take(self.world_rank).map_or(Poll::Pending, Poll::Ready),
        }
    }

    /// Charges `flops` floating-point operations of local compute to this
    /// rank's virtual clock (γ·flops). A no-op in wall-clock runs, where
    /// compute costs what it costs. Compute-heavy call sites (the dense
    /// GEMM path) call this *instead of* doing the arithmetic when
    /// [`RankCtx::executes_compute`] is false.
    pub fn charge_flops(&self, flops: f64) {
        if let Some(sim) = self.sim() {
            self.clock.set(self.clock.get() + sim.compute_secs(flops));
        }
    }

    /// Whether this rank runs under virtual time, as a task of
    /// [`World::simulate`].
    pub(crate) fn is_virtual(&self) -> bool {
        matches!(self.link, Link::Virtual(_))
    }

    /// The `(source world rank, tag)` of every receive this rank has posted
    /// and not yet matched — what a rank stuck in a wait is waiting for.
    pub(crate) fn awaited(&self) -> Vec<(usize, u64)> {
        let posted = self.posted.borrow();
        let open = posted.iter().filter(|p| p.slot.is_none());
        open.map(|p| (p.src_world, p.tag)).collect()
    }

    /// Runs `fut` to completion on this wall-clock rank's thread, parking
    /// the thread whenever the future waits for a message: the one-line
    /// body of every blocking façade over an `async` operation.
    ///
    /// # Panics
    /// On a virtual rank. It is a task sharing the simulator's thread with
    /// every other rank, so it must not block: call the `async` form and
    /// `.await` it inside [`World::simulate`].
    pub fn block_on<F: Future>(&self, fut: F) -> F::Output {
        assert!(
            !self.is_virtual(),
            "blocking call on virtual rank {}: a simulated rank cannot block; \
             .await the async form of this operation inside World::simulate",
            self.world_rank
        );
        block_on(fut)
    }

    /// Whether compute kernels should actually run. Always true in
    /// wall-clock runs; in sim runs it follows
    /// [`crate::sim::SimOptions::execute_compute`].
    pub fn executes_compute(&self) -> bool {
        self.sim().is_none_or(|s| s.execute_compute)
    }

    /// Stamps one *blocking* outgoing message: like [`RankCtx::stamp_isend`]
    /// but the sender's compute clock also advances to the arrival time —
    /// the rank stands still for the α + β·bytes transfer. Because the NIC
    /// pipe and the compute clock coincide whenever only blocking sends are
    /// used, this is exactly the pre-nonblocking charging rule for programs
    /// that never call `isend`.
    pub(crate) fn stamp_send(&self, dst_world: usize, bytes: u64) -> (f64, u64) {
        let (arrival, seq) = self.stamp_isend(dst_world, bytes);
        if self.is_virtual() {
            self.clock.set(arrival);
        }
        (arrival, seq)
    }

    /// Stamps one *nonblocking* outgoing message: bumps the per-rank send
    /// sequence and, under virtual time, schedules the transfer on the
    /// rank's NIC injection pipe — it starts at `max(clock, nic_clock)`,
    /// occupies the pipe for α + β·bytes, and the returned arrival is when
    /// it lands at the receiver. The compute clock is *not* advanced: the
    /// rank keeps computing while the transfer drains, which is the whole
    /// point of §III-F overlap. Wall runs return arrival 0.0.
    pub(crate) fn stamp_isend(&self, dst_world: usize, bytes: u64) -> (f64, u64) {
        let seq = self.send_seq.get();
        self.send_seq.set(seq + 1);
        let arrival = match self.sim() {
            Some(sim) => {
                let start = self.clock.get().max(self.nic_clock.get());
                let t = start + sim.transfer_secs(self.world_rank, dst_world, bytes);
                self.nic_clock.set(t);
                t
            }
            None => 0.0,
        };
        (arrival, seq)
    }

    /// Reserves the next posting-order id for an `irecv`.
    pub(crate) fn next_post_id(&self) -> u64 {
        let id = self.post_seq.get();
        self.post_seq.set(id + 1);
        id
    }

    /// Virtual-time rendezvous for a matched message: the recv completes at
    /// `max(own clock, arrival)`; advances the clock there and returns the
    /// virtual seconds this rank was blocked. `None` in wall-clock runs.
    pub(crate) fn virtual_recv_wait(&self, arrival: f64) -> Option<f64> {
        self.sim()?;
        let now = self.clock.get();
        let done = now.max(arrival);
        self.clock.set(done);
        Some(done - now)
    }

    pub(crate) fn record_send(&self, dst_world: usize, bytes: u64) {
        let algo = self.coll.get();
        self.stats.borrow_mut().record_send(algo, dst_world, bytes);
    }

    pub(crate) fn record_recv(&self, bytes: u64, wait_secs: f64) {
        self.stats.borrow_mut().record_recv(bytes, wait_secs);
    }

    /// Marks `algo` as the collective running on this rank until the guard
    /// drops (restoring the previous marker, so a collective built on
    /// another collective attributes traffic to the *innermost* algorithm —
    /// the path actually taken). Also opens a trace span; the payload-size
    /// closure is evaluated only when tracing is on.
    pub(crate) fn collective_scope(
        &self,
        algo: &'static str,
        bytes: impl FnOnce() -> u64,
    ) -> CollectiveScope<'_> {
        if self.recorder.enabled() {
            self.recorder.begin(SpanKind::Collective(algo), bytes());
        }
        CollectiveScope {
            ctx: self,
            prev: self.coll.replace(Some(algo)),
        }
    }

    /// The rank's trace recorder (for internal instrumentation hooks).
    pub(crate) fn tracer(&self) -> &Recorder {
        &self.recorder
    }
}

/// RAII scope for one collective call: restores the previous algorithm
/// marker and closes the trace span on drop.
pub(crate) struct CollectiveScope<'a> {
    ctx: &'a RankCtx,
    prev: Option<&'static str>,
}

impl Drop for CollectiveScope<'_> {
    fn drop(&mut self) {
        self.ctx.coll.set(self.prev);
        self.ctx.recorder.end(0);
    }
}

/// The `mpirun` of this runtime.
pub struct World;

impl World {
    /// Runs `f` on `p` ranks (threads) and returns the per-rank results in
    /// rank order. Each rank thread polls its future, parking whenever it
    /// waits for a message, so the program `f` is the same one
    /// [`World::simulate`] runs as tasks on one thread.
    /// Panics on any rank propagate. Tracing is off: the instrumentation
    /// hooks reduce to an untaken branch each.
    pub fn run<R, F>(p: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: AsyncFn(&RankCtx) -> R + Sync,
    {
        Self::run_opts(p, RunOptions::default(), f).0
    }

    /// Like [`World::run`] but also returns the [`RunReport`] with the
    /// traffic counters *and* the event timeline (tracing enabled).
    pub fn run_traced<R, F>(p: usize, f: F) -> (Vec<R>, RunReport)
    where
        R: Send,
        F: AsyncFn(&RankCtx) -> R + Sync,
    {
        Self::run_opts(p, RunOptions::traced(), f)
    }

    /// The general entry point: runs `f` on `p` rank threads under `opts`.
    pub fn run_opts<R, F>(p: usize, opts: RunOptions, f: F) -> (Vec<R>, RunReport)
    where
        R: Send,
        F: AsyncFn(&RankCtx) -> R + Sync,
    {
        let (setup, receivers) = RunSetup::new(p, &opts, None);
        let outputs = std::thread::scope(|s| {
            let handles: Vec<_> = receivers
                .into_iter()
                .enumerate()
                .map(|(rank, rx)| {
                    let (setup, f) = (&setup, &f);
                    std::thread::Builder::new()
                        .stack_size(RANK_STACK_SIZE)
                        .spawn_scoped(s, move || run_rank(setup, rank, rx, |ctx| block_on(f(ctx))))
                        .expect("failed to spawn rank thread")
                })
                .collect();
            // The lowest panicking rank is reported; the scope joins the rest.
            handles
                .into_iter()
                .enumerate()
                .map(|(rank, h)| {
                    h.join()
                        .expect("run_rank contains its closure's panics")
                        .unwrap_or_else(|msg| panic!("rank {rank} panicked: {msg}"))
                })
                .collect()
        });
        setup.assemble_report(outputs)
    }
}

/// What every rank of one run (or one persistent-world job) shares: the
/// fabric, the time domain, and the per-rank settings resolved from the
/// [`RunOptions`].
pub(crate) struct RunSetup {
    pub(crate) fabric: Arc<Fabric>,
    /// Virtual-time charging parameters; `None` for wall clock.
    sim: Option<Arc<SimParams>>,
    trace: bool,
    pub(crate) kernel_threads: usize,
    gemm_prof: bool,
}

/// What one rank hands back from [`run_rank`]: its closure's result plus
/// the counters, trace stream, final virtual clock, and kernel profile the
/// report assembler needs.
pub(crate) struct RankOutput<R> {
    pub(crate) result: R,
    pub(crate) stats: RankTraffic,
    pub(crate) events: Vec<RawEvent>,
    pub(crate) clock: f64,
    pub(crate) profile: Option<dense::prof::KernelProfile>,
}

impl RunSetup {
    /// A fresh `p`-rank fabric under `opts`, plus each wall-clock rank's
    /// mailbox (none under virtual time: the simulator keeps them).
    pub(crate) fn new(
        p: usize,
        opts: &RunOptions,
        sim: Option<Arc<SimParams>>,
    ) -> (RunSetup, Vec<Receiver<Envelope>>) {
        assert!(p > 0, "world size must be positive");
        let (fabric, receivers) = Fabric::new(p, sim.is_none());
        let setup = RunSetup {
            fabric,
            trace: opts.trace,
            kernel_threads: opts
                .kernel_threads_per_rank
                .map_or_else(|| dense::pool::rank_threads_for(p), |n| n.max(1)),
            gemm_prof: opts.gemm_prof,
            sim,
        };
        (setup, receivers)
    }

    /// Aggregates every rank's output (in rank order) into the per-rank
    /// results and the run's [`RunReport`].
    pub(crate) fn assemble_report<R>(&self, outputs: Vec<RankOutput<R>>) -> (Vec<R>, RunReport) {
        let p = outputs.len();
        let mut results = Vec::with_capacity(p);
        let mut per_rank = Vec::with_capacity(p);
        let mut secs_per_rank = Vec::with_capacity(p);
        let mut wait_per_rank = Vec::with_capacity(p);
        let mut matrix = CommMatrix::new(p);
        let mut hist_by_algo: BTreeMap<String, SizeHistogram> = BTreeMap::new();
        let mut streams = Vec::with_capacity(p);
        let mut makespan_secs = 0.0f64;
        let mut profiles = Vec::with_capacity(p);
        for (rank, out) in outputs.into_iter().enumerate() {
            let st = out.stats;
            per_rank.push(st.by_phase);
            secs_per_rank.push(st.secs_by_phase);
            wait_per_rank.push(st.wait_by_phase);
            matrix.set_row(rank, st.sent_to);
            merge_hist(&mut hist_by_algo, &st.hist);
            results.push(out.result);
            streams.push(out.events);
            makespan_secs = makespan_secs.max(out.clock);
            profiles.push(out.profile);
        }
        let traffic = TrafficReport {
            per_rank,
            secs_per_rank,
            wait_per_rank,
            matrix,
            hist_by_algo,
        };
        let timeline = if self.trace {
            Timeline::from_raw(streams)
        } else {
            Timeline::empty(p)
        };
        let sim = self.sim.as_ref().map(|params| SimInfo {
            machine: params.machine.clone(),
            placement: params.placement,
            execute_compute: params.execute_compute,
            makespan_secs,
        });
        let compute = if profiles.iter().any(Option::is_some) {
            profiles
        } else {
            Vec::new()
        };
        let report = RunReport {
            traffic,
            timeline,
            sim,
            compute,
        };
        (results, report)
    }
}

/// One wall-clock rank's whole life inside one run, on whichever thread
/// hosts it — a scoped thread of [`World::run_opts`] or a
/// [`crate::PersistentWorld`] worker: cap the local-GEMM width, open the
/// kernel-profile capture if the run asked for one, build the [`RankCtx`],
/// run `f`, and close the rank's bookkeeping. A panic in `f` is caught and
/// returned as its stringified payload.
pub(crate) fn run_rank<R>(
    setup: &RunSetup,
    rank: usize,
    rx: Receiver<Envelope>,
    f: impl FnOnce(&RankCtx) -> R,
) -> Result<RankOutput<R>, String> {
    // Cap this rank's local-GEMM parallelism so the world's ranks together
    // stay within the host's kernel-thread budget. The cap is thread-local;
    // persistent workers re-assert it every job because the previous job's
    // (possibly different) width is still in place.
    dense::pool::set_rank_gemm_threads(Some(setup.kernel_threads));
    if setup.gemm_prof {
        dense::prof::begin_capture();
    }
    let ran = catch_unwind(AssertUnwindSafe(|| {
        let ctx = RankCtx::fresh(setup, rank, Link::Wall(rx));
        let result = f(&ctx);
        ctx.finish(result)
    }));
    // Closed even when `f` panicked, so a capture cannot leak into the next
    // job on this thread.
    let profile = setup.gemm_prof.then(dense::prof::end_capture).flatten();
    let out = ran.map_err(panic_message)?;
    Ok(RankOutput { profile, ..out })
}

/// A caught panic's payload, stringified.
pub(crate) fn panic_message(e: Box<dyn std::any::Any + Send>) -> String {
    e.downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| e.downcast_ref::<&str>().copied())
        .unwrap_or("<non-string panic>")
        .to_owned()
}

/// Wakes a wall-clock rank by unparking its thread.
struct ThreadWaker(std::thread::Thread);

impl Wake for ThreadWaker {
    fn wake(self: Arc<Self>) {
        self.0.unpark();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.0.unpark();
    }
}

std::thread_local! {
    /// This thread's waker, built once: a façade call costs one poll, not
    /// an allocation.
    static THREAD_WAKER: Waker = Waker::from(Arc::new(ThreadWaker(std::thread::current())));
}

/// The wall-clock executor: polls `fut` on the calling thread and parks the
/// thread whenever it is pending, until the sender that makes it ready
/// unparks it.
pub(crate) fn block_on<F: Future>(fut: F) -> F::Output {
    let mut fut = std::pin::pin!(fut);
    THREAD_WAKER.with(|waker| {
        let mut cx = Context::from_waker(waker);
        loop {
            if let Poll::Ready(out) = fut.as_mut().poll(&mut cx) {
                return out;
            }
            std::thread::park();
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_see_their_identity() {
        let ids = World::run(4, async |ctx| (ctx.world_rank(), ctx.world_size()));
        assert_eq!(ids, vec![(0, 4), (1, 4), (2, 4), (3, 4)]);
    }

    #[test]
    fn single_rank_world() {
        let out = World::run(1, async |ctx| ctx.world_rank() + 100);
        assert_eq!(out, vec![100]);
    }

    #[test]
    #[should_panic(expected = "rank 2 panicked")]
    fn rank_panic_propagates() {
        World::run(4, async |ctx| {
            if ctx.world_rank() == 2 {
                panic!("boom");
            }
        });
    }

    #[test]
    #[should_panic(expected = "world size must be positive")]
    fn zero_world_rejected() {
        World::run(0, async |_| ());
    }

    #[test]
    fn ranks_get_an_even_kernel_thread_split() {
        // Default: the per-rank GEMM width is base/p (min 1), so p ranks
        // never ask for more kernel threads than the process budget.
        let widths = World::run(4, async |_| dense::pool::gemm_threads());
        let expect = dense::pool::rank_threads_for(4);
        assert!(widths.iter().all(|&w| w == expect), "widths {widths:?}");

        // Explicit override wins.
        let opts = RunOptions {
            kernel_threads_per_rank: Some(2),
            ..RunOptions::default()
        };
        let (widths, _) = World::run_opts(3, opts, async |_| dense::pool::gemm_threads());
        assert_eq!(widths, vec![2, 2, 2]);
    }

    #[test]
    fn phase_label_round_trip() {
        World::run(1, async |ctx| {
            assert_eq!(ctx.phase(), "");
            ctx.set_phase("cannon_shift");
            assert_eq!(ctx.phase(), "cannon_shift");
        });
    }

    #[test]
    fn untraced_runs_have_empty_timelines() {
        let (_, report) = World::run_opts(3, RunOptions::default(), async |ctx| {
            ctx.set_phase("work");
        });
        assert_eq!(report.timeline.ranks(), 3);
        assert!(report.timeline.is_empty());
        // the traffic side still sees the phase
        assert!(report.traffic.phase_secs(0, "work") >= 0.0);
    }

    #[test]
    fn traced_phase_spans_match_traffic_clock() {
        let (_, report) = World::run_traced(2, async |ctx| {
            ctx.set_phase("alpha");
            std::thread::sleep(std::time::Duration::from_millis(5));
            ctx.set_phase("beta");
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        for rank in 0..2 {
            for phase in ["alpha", "beta"] {
                let from_trace: f64 = report
                    .timeline
                    .spans(rank)
                    .iter()
                    .filter(|s| s.kind == SpanKind::Phase(phase.to_owned()))
                    .map(crate::Span::secs)
                    .sum();
                let from_clock = report.traffic.phase_secs(rank, phase);
                assert!(from_trace > 0.0, "rank {rank} {phase} span missing");
                assert!(
                    (from_trace - from_clock).abs() < 1e-6,
                    "rank {rank} {phase}: trace {from_trace} vs clock {from_clock}"
                );
            }
        }
        assert_eq!(
            report.timeline.phases(),
            vec!["alpha".to_owned(), "beta".to_owned()]
        );
    }

    #[test]
    fn run_report_derefs_to_traffic() {
        let (_, report) = World::run_traced(1, async |ctx| {
            ctx.set_phase("only");
        });
        // methods resolved through Deref<Target = TrafficReport>
        assert_eq!(report.rank_total(0).msgs, 0);
        assert_eq!(report.phases(), vec!["only".to_owned()]);
    }
}
