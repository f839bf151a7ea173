//! Communicators and point-to-point messaging.

use crate::trace::SpanKind;
use crate::world::RankCtx;
use dense::WireElem;
use std::any::Any;
use std::borrow::Borrow;
use std::future::poll_fn;
use std::sync::Arc;
use std::time::Instant;

/// Anything that can travel in a message. The only requirement beyond
/// thread-safety is a byte size, which feeds the traffic counters (and,
/// transitively, the model-vs-measured validation tests).
pub trait Payload: Send + 'static {
    /// Wire size of this value in bytes.
    fn nbytes(&self) -> usize;
}

/// Sized by the element type's compile-time wire size, not by the memory
/// the buffer occupies (the two differ only for [`dense::Shape64`]).
impl<T: WireElem> Payload for Vec<T> {
    fn nbytes(&self) -> usize {
        self.len() * T::WIRE_BYTES
    }
}

/// A matrix block: only the element data counts. In MPI the shape would be
/// encoded by the datatype/count arguments, which the paper's volume
/// analysis (and therefore the traffic accounting) does not charge — so
/// blocks of uneven shape carry it with them for free.
impl<T: dense::Scalar> Payload for dense::Mat<T> {
    fn nbytes(&self) -> usize {
        self.len() * T::WIRE_BYTES
    }
}

/// A shared value is charged as the value: sending clones a reference
/// count (an `isend` can ship a block the local GEMM is still reading) and
/// on this in-process runtime the receiver adopts the sender's allocation,
/// while the traffic counters see the full element data.
impl<P: Payload + Sync> Payload for Arc<P> {
    fn nbytes(&self) -> usize {
        (**self).nbytes()
    }
}

macro_rules! scalar_payload {
    ($($t:ty),*) => {$(
        impl Payload for $t {
            fn nbytes(&self) -> usize { std::mem::size_of::<$t>() }
        }
    )*};
}
scalar_payload!(
    u8,
    u16,
    u32,
    u64,
    usize,
    i8,
    i16,
    i32,
    i64,
    isize,
    f32,
    f64,
    bool,
    ()
);

/// Element type collectives can reduce: needs `+=` and a zero. Implemented
/// by `f32`/`f64` (and integers, used in tests).
pub trait ReduceElem: WireElem + Default + std::ops::AddAssign {}
impl<T: WireElem + Default + std::ops::AddAssign> ReduceElem for T {}

/// An in-flight message.
pub(crate) struct Envelope {
    pub(crate) src_world: usize,
    pub(crate) ctx: u64,
    pub(crate) tag: u64,
    /// Payload wire size, carried so the receiver's trace span can report
    /// how much data the matched message delivered.
    pub(crate) bytes: u64,
    /// Virtual arrival time (sender's clock after the α + β·bytes charge).
    /// 0.0 in wall-clock runs.
    pub(crate) arrival: f64,
    /// Sender's per-rank send sequence number: the explicit program-order
    /// tie-break when several same-`(src, ctx, tag)` messages are pending,
    /// which makes virtual-time matching deterministic under any OS
    /// thread interleaving.
    pub(crate) seq: u64,
    pub(crate) payload: Box<dyn Any + Send>,
}

impl Envelope {
    /// The matching key: `(source world rank, communicator context, tag)`.
    fn key(&self) -> (usize, u64, u64) {
        (self.src_world, self.ctx, self.tag)
    }
}

/// One receive posted and not yet completed — by [`Comm::irecv`], or by a
/// blocking [`Comm::recv`] for its duration. Lives in the rank's
/// posted-receive table; an arriving message whose `(src, ctx, tag)` key
/// matches an *open* entry (slot empty) fills the earliest-posted one —
/// MPI's posting-order matching rule.
pub(crate) struct PostedRecv {
    pub(crate) src_world: usize,
    pub(crate) ctx: u64,
    pub(crate) tag: u64,
    /// Posting order (from `RankCtx::next_post_id`).
    pub(crate) id: u64,
    /// The matched message, once it has arrived.
    pub(crate) slot: Option<Envelope>,
}

/// SplitMix64 finalizer — used to derive child communicator contexts
/// deterministically (every member computes the same value with no
/// communication).
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Context id of the group keyed `key` made by the parent's `seq`-th
/// communicator-creating call. `mix` is a bijection, so groups of one call
/// (distinct keys) always get distinct ids; the call number and the key are
/// hashed in turn rather than packed into one word, so no split is large
/// enough to make one call's key alias another call's.
fn child_ctx(parent: u64, seq: u64, key: usize) -> u64 {
    mix(mix(parent ^ mix(seq)) ^ (key as u64 + 1))
}

/// Highest tag value available to user point-to-point messages; larger tags
/// are reserved for collectives.
pub const MAX_USER_TAG: u64 = 1 << 40;

/// A communicator: an ordered group of world ranks with an isolated tag
/// space. Cheap to clone (the group is shared).
///
/// All operations take the rank's [`RankCtx`] explicitly — a rank may hold
/// any number of communicators simultaneously (row, column, k-task group, …)
/// exactly as an MPI process does. Two communicators are equal when they
/// have the same context, members, own rank and collective count.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Comm {
    /// Context id: isolates this communicator's messages from all others.
    ctx_id: u64,
    /// World ranks of the members, in communicator rank order.
    ranks: Arc<[usize]>,
    /// This rank's index within `ranks`.
    my_idx: usize,
    /// Per-communicator collective sequence number (same on all members
    /// because collectives are called in the same order).
    coll_seq: std::cell::Cell<u64>,
}

impl Comm {
    /// The communicator containing every rank of the world, in world order
    /// (`MPI_COMM_WORLD`).
    pub fn world(ctx: &RankCtx) -> Comm {
        Comm {
            ctx_id: mix(0x5EED_0001),
            ranks: Arc::clone(&ctx.fabric.world_ranks),
            my_idx: ctx.world_rank(),
            coll_seq: std::cell::Cell::new(0),
        }
    }

    /// This rank's index within the communicator.
    pub fn rank(&self) -> usize {
        self.my_idx
    }

    /// Number of members.
    pub fn size(&self) -> usize {
        self.ranks.len()
    }

    /// World rank of member `idx`.
    pub fn world_rank_of(&self, idx: usize) -> usize {
        self.ranks[idx]
    }

    /// The members' world ranks in communicator order.
    pub fn world_ranks(&self) -> &[usize] {
        &self.ranks
    }

    /// Internal: reserve a tag for one collective operation.
    pub(crate) fn next_coll_tag(&self) -> u64 {
        let s = self.coll_seq.get();
        self.coll_seq.set(s + 1);
        MAX_USER_TAG + s
    }

    /// Sends `payload` to communicator rank `dst` with `tag`
    /// (eager/non-blocking: never waits for the receiver).
    ///
    /// # Panics
    /// If `dst` is out of range or `tag >= MAX_USER_TAG`.
    pub fn send<P: Payload>(&self, ctx: &RankCtx, dst: usize, tag: u64, payload: P) {
        assert!(tag < MAX_USER_TAG, "tag {tag} reserved for collectives");
        self.send_internal(ctx, dst, tag, payload);
    }

    pub(crate) fn send_internal<P: Payload>(
        &self,
        ctx: &RankCtx,
        dst: usize,
        tag: u64,
        payload: P,
    ) {
        self.post(ctx, dst, tag, payload, RankCtx::stamp_send);
    }

    /// Counts, traces, stamps and enqueues one message for communicator rank
    /// `dst`. `stamp` is the only difference between a blocking send and an
    /// `isend`: under virtual time [`RankCtx::stamp_send`] also advances the
    /// sender's compute clock to the arrival, [`RankCtx::stamp_isend`] only
    /// its NIC pipe; in wall runs both just bump the send sequence.
    fn post<P: Payload>(
        &self,
        ctx: &RankCtx,
        dst: usize,
        tag: u64,
        payload: P,
        stamp: fn(&RankCtx, usize, u64) -> (f64, u64),
    ) {
        let dst_world = self.ranks[dst];
        let bytes = payload.nbytes() as u64;
        ctx.record_send(dst_world, bytes);
        ctx.recorder
            .begin(SpanKind::Send { peer: dst_world }, bytes);
        let (arrival, seq) = stamp(ctx, dst_world, bytes);
        let env = Envelope {
            src_world: ctx.world_rank(),
            ctx: self.ctx_id,
            tag,
            bytes,
            arrival,
            seq,
            payload: Box::new(payload),
        };
        ctx.deliver(dst_world, env);
        ctx.recorder.end(0);
    }

    /// Blocking façade over [`Comm::recv_async`], kept for the frozen benchmark
    /// until item 7 (ROADMAP.md). Panics on a virtual rank.
    pub fn recv<P: Payload>(&self, ctx: &RankCtx, src: usize, tag: u64) -> P {
        ctx.block_on(self.recv_async(ctx, src, tag))
    }

    /// Receives the message sent by communicator rank `src` with `tag`.
    /// Waits until it arrives; out-of-order arrivals are buffered.
    ///
    /// # Panics
    /// If the matched message has a different payload type (a protocol bug).
    pub async fn recv_async<P: Payload>(&self, ctx: &RankCtx, src: usize, tag: u64) -> P {
        assert!(tag < MAX_USER_TAG, "tag {tag} reserved for collectives");
        self.recv_internal(ctx, src, tag).await
    }

    /// A blocking receive is a posted receive completed at once: it matches
    /// exactly as an `irecv` posted at this point would, and only its span
    /// kind (`recv←src`, not `wait←src`) tells the two apart.
    pub(crate) async fn recv_internal<P: Payload>(&self, ctx: &RankCtx, src: usize, tag: u64) -> P {
        let req: RecvReq<P> = self.post_recv(ctx, src, tag);
        let peer = req.src_world;
        req.complete(ctx, SpanKind::Recv { peer }).await
    }

    fn downcast<P: Payload>(env: Envelope) -> P {
        match env.payload.downcast::<P>() {
            Ok(b) => *b,
            Err(_) => panic!(
                "type confusion: message from world rank {} (ctx {:#x}, tag {}) is not a {}",
                env.src_world,
                env.ctx,
                env.tag,
                std::any::type_name::<P>()
            ),
        }
    }

    /// Simultaneous send to `dst` and receive from `src` (both communicator
    /// ranks) — `MPI_Sendrecv`. Safe against deadlock because sends are
    /// eager.
    pub async fn sendrecv<P: Payload>(
        &self,
        ctx: &RankCtx,
        dst: usize,
        src: usize,
        tag: u64,
        payload: P,
    ) -> P {
        self.send(ctx, dst, tag, payload);
        self.recv_async(ctx, src, tag).await
    }

    /// Nonblocking send to communicator rank `dst` — `MPI_Isend`. Sends in
    /// this runtime are eager (buffered by the receiver's mailbox), so the
    /// send is complete the moment this returns and there is nothing to
    /// wait on. Under virtual time the transfer is scheduled on the
    /// sender's NIC injection pipe without advancing the compute clock —
    /// the sim counterpart of the copy proceeding in the background while
    /// the rank computes.
    ///
    /// # Panics
    /// If `dst` is out of range or `tag >= MAX_USER_TAG`.
    pub fn isend<P: Payload>(&self, ctx: &RankCtx, dst: usize, tag: u64, payload: P) {
        assert!(tag < MAX_USER_TAG, "tag {tag} reserved for collectives");
        self.post(ctx, dst, tag, payload, RankCtx::stamp_isend);
    }

    /// Posts a nonblocking receive for the message from communicator rank
    /// `src` with `tag` — `MPI_Irecv`. The receive may be posted before or
    /// after the message arrives; arrivals match open posted receives in
    /// posting order (per-sender program order breaks same-key ties, as for
    /// [`Comm::recv`]). Complete it with [`RecvReq::wait`].
    ///
    /// # Panics
    /// If `src` is out of range or `tag >= MAX_USER_TAG`.
    pub fn irecv<P: Payload>(&self, ctx: &RankCtx, src: usize, tag: u64) -> RecvReq<P> {
        assert!(tag < MAX_USER_TAG, "tag {tag} reserved for collectives");
        self.post_recv(ctx, src, tag)
    }

    /// Adds an entry for `(src, tag)` to the posted-receive table, already
    /// filled if a buffered message matches.
    fn post_recv<P: Payload>(&self, ctx: &RankCtx, src: usize, tag: u64) -> RecvReq<P> {
        let src_world = self.ranks[src];
        let id = ctx.next_post_id();
        // Claim an already-buffered match now, so the pending buffer can
        // never hold a message that an open posted receive is waiting for.
        ctx.posted.borrow_mut().push(PostedRecv {
            src_world,
            ctx: self.ctx_id,
            tag,
            id,
            slot: take_pending(ctx, (src_world, self.ctx_id, tag)),
        });
        RecvReq {
            id,
            src_world,
            _payload: std::marker::PhantomData,
        }
    }

    /// Creates sub-communicators from locally known membership: every member
    /// of `self` must call this with the *same* `groups` (a partition or
    /// partial partition of communicator ranks). Returns this rank's new
    /// communicator, or `None` if it belongs to no group.
    ///
    /// No communication is needed because the membership is already global
    /// knowledge. This validates the whole partition, which costs every
    /// rank O(size); a caller that can name its own group directly should
    /// call [`Comm::group`], which costs O(group size).
    ///
    /// # Panics
    /// If a rank appears twice or is out of range.
    pub fn subgroup(&self, ctx: &RankCtx, groups: &[Vec<usize>]) -> Option<Comm> {
        let mut seen = vec![false; self.size()];
        let mut mine = None;
        for group in groups {
            for &r in group {
                assert!(r < self.size(), "subgroup rank {r} out of range");
                assert!(!seen[r], "subgroup rank {r} appears twice");
                seen[r] = true;
                if r == self.my_idx {
                    mine = Some(group.as_slice());
                }
            }
        }
        self.group(ctx, mine)
    }

    /// Creates this rank's sub-communicator from its own group —
    /// `MPI_Comm_create_group`. Every member of `self` calls it once per
    /// split, in the same order, so all agree on the split's number: a
    /// member passes its group (communicator ranks of `self`, in the new
    /// communicator's order) and gets its communicator back; a rank in no
    /// group passes `None` and gets `None`. The groups of one split must be
    /// disjoint; each is keyed by its lowest rank, which its members agree
    /// on with no communication. The group may be computed as it is read
    /// (`(0..n).map(…)`): no member list is built but the communicator's
    /// own, and under virtual time one list serves every member
    /// ([`RankCtx`] shares it by context id).
    ///
    /// # Panics
    /// If a member is out of range or the calling rank is not in `members`.
    pub fn group<I>(&self, ctx: &RankCtx, members: Option<I>) -> Option<Comm>
    where
        I: IntoIterator<Item: Borrow<usize>, IntoIter: Clone>,
    {
        let seq = ctx.ctx_seq.get();
        ctx.ctx_seq.set(seq + 1);
        let members = members?.into_iter();
        let (mut my_idx, mut key) = (None, usize::MAX);
        for (idx, r) in members.clone().enumerate() {
            let r = *r.borrow();
            assert!(r < self.size(), "group rank {r} out of range");
            key = key.min(r);
            if r == self.my_idx {
                my_idx = Some(idx);
            }
        }
        let my_idx = my_idx.expect("the calling rank is not in its own group");
        let ctx_id = child_ctx(self.ctx_id, seq, key);
        let world_ranks = members.map(|r| self.ranks[*r.borrow()]);
        Some(Comm {
            ctx_id,
            ranks: ctx.group_members(ctx_id, world_ranks),
            my_idx,
            coll_seq: std::cell::Cell::new(0),
        })
    }
}

/// The one place a rank waits: takes the next message from its mailbox —
/// pending, until a send refills it, while it is empty — and files it into the earliest-posted *open* entry of the
/// posted-receive table with a matching key (MPI's posting-order rule),
/// else into the pending buffer. Returns the wall seconds spent waiting:
/// `0.0` when a message was already queued, and always `0.0` on a virtual
/// rank, whose waits are priced in virtual time instead. Only a pull that
/// actually pends reads the clock.
async fn pull(ctx: &RankCtx) -> f64 {
    let mut blocked_from = None;
    let env = poll_fn(|cx| {
        let polled = ctx.poll_mail(cx);
        if polled.is_pending() && blocked_from.is_none() && !ctx.is_virtual() {
            blocked_from = Some(Instant::now());
        }
        polled
    })
    .await;
    let mut posted = ctx.posted.borrow_mut();
    let hit = posted
        .iter_mut()
        .filter(|p| p.slot.is_none() && (p.src_world, p.ctx, p.tag) == env.key())
        .min_by_key(|p| p.id);
    match hit {
        Some(p) => p.slot = Some(env),
        None => ctx.pending.borrow_mut().push(env),
    }
    blocked_from.map_or(0.0, |t| t.elapsed().as_secs_f64())
}

/// Removes and returns the buffered message with matching `key`. Among
/// several (e.g. ring-collective steps racing ahead of a slow rank) the
/// smallest sender sequence number wins — per-sender program order, the
/// tie-break that keeps virtual-time matching deterministic.
fn take_pending(ctx: &RankCtx, key: (usize, u64, u64)) -> Option<Envelope> {
    let mut pending = ctx.pending.borrow_mut();
    let pos = pending
        .iter()
        .enumerate()
        .filter(|(_, e)| e.key() == key)
        .min_by_key(|(_, e)| e.seq)
        .map(|(i, _)| i)?;
    Some(pending.remove(pos))
}

/// Handle for a nonblocking receive ([`Comm::irecv`]): an entry in the
/// rank's posted-receive table. Complete it with [`RecvReq::wait`] (waits
/// for the residual only — time the overlapped compute did not hide).
/// Every posted receive must eventually be completed; a rank exiting with
/// open posted receives panics.
#[must_use = "a posted receive must be completed with wait()"]
pub struct RecvReq<P: Payload> {
    /// Posting-order id keying this request's table entry.
    id: u64,
    src_world: usize,
    _payload: std::marker::PhantomData<fn() -> P>,
}

impl<P: Payload> RecvReq<P> {
    /// Waits until the posted receive completes and returns the payload.
    ///
    /// Wait attribution is the *residual*: only the seconds this call
    /// actually waits count (wall runs: seconds parked; sim runs:
    /// `max(clock, arrival) − clock`, i.e. the transfer time the compute
    /// issued between post and wait failed to hide). The trace records it
    /// as a `wait←src` span, distinct from a blocking `recv←src`.
    ///
    /// # Panics
    /// If the matched message has a different payload type.
    pub async fn wait(self, ctx: &RankCtx) -> P {
        let peer = self.src_world;
        self.complete(ctx, SpanKind::Wait { peer }).await
    }

    /// The one receive loop, behind [`RecvReq::wait`] and [`Comm::recv`]
    /// alike; `kind` is the trace span it records. The span covers the
    /// whole match — including any blocking wait, which is exactly the
    /// time the critical-path analysis needs — and every second spent
    /// waiting on the mailbox, including waits that end in a message filed
    /// for another receive, is this receive's wait: wall time this rank
    /// could not compute.
    async fn complete(self, ctx: &RankCtx, kind: SpanKind) -> P {
        ctx.recorder.begin(kind, 0);
        let mut waited = 0.0;
        let env = loop {
            if let Some(env) = self.take_if_filled(ctx) {
                break env;
            }
            waited += pull(ctx).await;
        };
        // Sim: completion is max(clock, arrival) — compute issued since the
        // post has already advanced the clock, so only the exposed remainder
        // of the transfer is charged (and reported as wait). Wall: the
        // parked seconds accumulated above.
        let wait = ctx.virtual_recv_wait(env.arrival).unwrap_or(waited);
        ctx.record_recv(env.bytes, wait);
        ctx.recorder.end(env.bytes);
        Comm::downcast(env)
    }

    /// Removes this request's table entry and returns the message if the
    /// slot has been filled; leaves the entry in place otherwise.
    fn take_if_filled(&self, ctx: &RankCtx) -> Option<Envelope> {
        let mut posted = ctx.posted.borrow_mut();
        let i = posted
            .iter()
            .position(|p| p.id == self.id)
            .expect("posted receive vanished from the table");
        if posted[i].slot.is_some() {
            posted.remove(i).slot
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::SimOptions;
    use crate::world::World;

    #[test]
    fn ping_pong() {
        World::run(2, async |ctx| {
            let comm = Comm::world(ctx);
            if comm.rank() == 0 {
                comm.send(ctx, 1, 7, vec![1.0f64, 2.0, 3.0]);
                let back: Vec<f64> = comm.recv_async(ctx, 1, 8).await;
                assert_eq!(back, vec![6.0]);
            } else {
                let v: Vec<f64> = comm.recv_async(ctx, 0, 7).await;
                comm.send(ctx, 0, 8, vec![v.iter().sum::<f64>()]);
            }
        });
    }

    #[test]
    fn out_of_order_tags_are_buffered() {
        World::run(2, async |ctx| {
            let comm = Comm::world(ctx);
            if comm.rank() == 0 {
                comm.send(ctx, 1, 1, 10u64);
                comm.send(ctx, 1, 2, 20u64);
                comm.send(ctx, 1, 3, 30u64);
            } else {
                // Receive in reverse order.
                assert_eq!(comm.recv_async::<u64>(ctx, 0, 3).await, 30);
                assert_eq!(comm.recv_async::<u64>(ctx, 0, 2).await, 20);
                assert_eq!(comm.recv_async::<u64>(ctx, 0, 1).await, 10);
            }
        });
    }

    #[test]
    fn sendrecv_ring_shift() {
        let vals = World::run(5, async |ctx| {
            let comm = Comm::world(ctx);
            let p = comm.size();
            let me = comm.rank();
            // shift left: everyone passes its rank to (me-1)
            comm.sendrecv(ctx, (me + p - 1) % p, (me + 1) % p, 0, vec![me as u64])
                .await[0]
        });
        assert_eq!(vals, vec![1, 2, 3, 4, 0]);
    }

    #[test]
    fn traffic_counters_count_payload_bytes() {
        let (_, report) = World::run_traced(2, async |ctx| {
            let comm = Comm::world(ctx);
            ctx.set_phase("stage1");
            if comm.rank() == 0 {
                comm.send(ctx, 1, 0, vec![0.0f64; 100]);
            } else {
                let _: Vec<f64> = comm.recv_async(ctx, 0, 0).await;
            }
        });
        assert_eq!(report.phase(0, "stage1").bytes, 800);
        assert_eq!(report.phase(0, "stage1").msgs, 1);
        assert_eq!(report.rank_total(1).bytes, 0);
    }

    #[test]
    fn subgroup_even_odd() {
        World::run(6, async |ctx| {
            let comm = Comm::world(ctx);
            let groups = vec![vec![0, 2, 4], vec![1, 3, 5]];
            let sub = comm.subgroup(ctx, &groups).unwrap();
            assert_eq!(sub.size(), 3);
            let expected_idx = comm.rank() / 2;
            assert_eq!(sub.rank(), expected_idx);
            // messages in the subgroup do not leak across groups: ring shift
            let me = sub.rank();
            let got = sub
                .sendrecv(ctx, (me + 1) % 3, (me + 2) % 3, 0, comm.rank() as u64)
                .await;
            assert_eq!(got as usize % 2, comm.rank() % 2);
        });
    }

    #[test]
    fn subgroup_none_for_excluded_rank() {
        World::run(3, async |ctx| {
            let comm = Comm::world(ctx);
            let sub = comm.subgroup(ctx, &[vec![0, 1]]);
            if comm.rank() == 2 {
                assert!(sub.is_none());
            } else {
                assert_eq!(sub.unwrap().size(), 2);
            }
        });
    }

    /// The pair the old derivation, `mix(ctx ^ mix((seq << 20) | (gi + 1)))`,
    /// mapped to one id: group 2²⁰ + 4 of split 0 and group 4 of split 1
    /// packed to the same word, so their messages could match each other.
    #[test]
    fn context_ids_of_two_splits_cannot_alias() {
        let packed = |seq: u64, gi: u64| (seq << 20) | (gi + 1);
        assert_eq!(packed(0, (1 << 20) + 4), packed(1, 4));
        let world = mix(0x5EED_0001);
        assert_ne!(child_ctx(world, 0, (1 << 20) + 4), child_ctx(world, 1, 4));
    }

    /// `group` on each rank's own group builds what `subgroup` over the
    /// whole partition builds: same members, rank and context. Groups of
    /// one split get distinct contexts, and a rank in no group gets `None`
    /// yet keeps its split count aligned with everyone else's.
    #[test]
    fn group_equals_subgroup_over_the_partition() {
        // Seven ranks, rank 6 idle; groups listed in a shuffled order.
        let groups = vec![vec![5, 1, 3], vec![4, 0], vec![2]];
        // Virtual time: ranks out of step deadlock with a panic, not a hang.
        let build = |own: bool| {
            let machine = netmodel::Machine::uniform();
            let (comms, _) = World::simulate(7, &machine, SimOptions::default(), async |ctx| {
                let comm = Comm::world(ctx);
                let mine = groups.iter().find(|g| g.contains(&comm.rank()));
                let sub = if own {
                    comm.group(ctx, mine.map(Vec::as_slice))
                } else {
                    comm.subgroup(ctx, &groups)
                };
                // A split made after this one reaches every rank alike.
                let all = comm.group(ctx, Some(&[0, 1, 2, 3, 4, 5, 6])).unwrap();
                crate::collectives::barrier(&all, ctx).await;
                (sub, all.ctx_id)
            });
            comms
        };
        let (own, full) = (build(true), build(false));
        assert_eq!(own, full);
        let ids: Vec<u64> = own
            .iter()
            .filter_map(|(c, _)| Some(c.as_ref()?.ctx_id))
            .collect();
        for (r, (sub, next)) in own.iter().enumerate() {
            assert_eq!(*next, own[0].1, "rank {r} is out of step");
            let Some(sub) = sub else {
                assert_eq!(r, 6, "only rank 6 is idle");
                continue;
            };
            let group = groups.iter().find(|g| g.contains(&r)).unwrap();
            assert_eq!(sub.world_ranks(), group.as_slice());
            assert_eq!(group[sub.rank()], r);
            let shared = ids.iter().filter(|&&id| id == sub.ctx_id).count();
            assert_eq!(
                shared,
                group.len(),
                "rank {r}: context shared outside its group"
            );
        }
    }

    /// An envelope is six words of header and the payload box, and must
    /// not grow: every send moves one into a mailbox. Storing small
    /// payloads inline instead (a 3-word buffer) cut a `sim_scale` op's
    /// allocations 25 217 → 18 305 but made it slower in 5 of 5 runs
    /// (3.01–3.12 → 3.46–3.61 ms).
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn envelope_stays_eight_words() {
        assert!(std::mem::size_of::<Envelope>() <= 64);
    }

    #[test]
    #[should_panic(expected = "type confusion")]
    fn wrong_type_recv_panics() {
        World::run(2, async |ctx| {
            let comm = Comm::world(ctx);
            if comm.rank() == 0 {
                comm.send(ctx, 1, 0, vec![1.0f64]);
            } else {
                let _: Vec<f32> = comm.recv_async(ctx, 0, 0).await;
            }
        });
    }

    #[test]
    fn buffered_same_key_messages_stay_fifo() {
        // Regression test: rank 1 first waits on tag 2 (which arrives
        // last), forcing tags-1 messages into the pending buffer; they must
        // still come out in send order.
        World::run(2, async |ctx| {
            let comm = Comm::world(ctx);
            if comm.rank() == 0 {
                comm.send(ctx, 1, 1, 10u64);
                comm.send(ctx, 1, 1, 20u64);
                comm.send(ctx, 1, 1, 30u64);
                comm.send(ctx, 1, 2, 99u64);
            } else {
                assert_eq!(comm.recv_async::<u64>(ctx, 0, 2).await, 99);
                assert_eq!(comm.recv_async::<u64>(ctx, 0, 1).await, 10);
                assert_eq!(comm.recv_async::<u64>(ctx, 0, 1).await, 20);
                assert_eq!(comm.recv_async::<u64>(ctx, 0, 1).await, 30);
            }
        });
    }

    #[test]
    fn irecv_posted_before_send() {
        World::run(2, async |ctx| {
            let comm = Comm::world(ctx);
            if comm.rank() == 0 {
                let req = comm.irecv::<u64>(ctx, 1, 5);
                comm.send(ctx, 1, 6, 1u64); // tell rank 1 the post happened
                assert_eq!(req.wait(ctx).await, 42);
            } else {
                let _: u64 = comm.recv_async(ctx, 0, 6).await;
                comm.send(ctx, 0, 5, 42u64);
            }
        });
    }

    #[test]
    fn irecv_posted_after_arrival() {
        World::run(2, async |ctx| {
            let comm = Comm::world(ctx);
            if comm.rank() == 0 {
                comm.send(ctx, 1, 5, 7u64);
                comm.send(ctx, 1, 6, 8u64);
                comm.send(ctx, 1, 7, 0u64); // handshake
            } else {
                // Per-sender FIFO: completing the tag-7 recv forces tags 5
                // and 6 into the pending buffer before any post exists.
                let _: u64 = comm.recv_async(ctx, 0, 7).await;
                // Post in reverse tag order: matching is by key, not FIFO.
                let r6 = comm.irecv::<u64>(ctx, 0, 6);
                let r5 = comm.irecv::<u64>(ctx, 0, 5);
                assert_eq!(r6.wait(ctx).await, 8);
                assert_eq!(r5.wait(ctx).await, 7);
            }
        });
    }

    #[test]
    fn same_key_irecvs_match_in_posting_order() {
        World::run(2, async |ctx| {
            let comm = Comm::world(ctx);
            if comm.rank() == 0 {
                for v in [10u64, 20, 30] {
                    comm.send(ctx, 1, 1, v);
                }
            } else {
                let r1 = comm.irecv::<u64>(ctx, 0, 1);
                let r2 = comm.irecv::<u64>(ctx, 0, 1);
                let r3 = comm.irecv::<u64>(ctx, 0, 1);
                // Waited out of posting order, yet each request gets the
                // message its posting position earned (sender order).
                assert_eq!(r3.wait(ctx).await, 30);
                assert_eq!(r1.wait(ctx).await, 10);
                assert_eq!(r2.wait(ctx).await, 20);
            }
        });
    }

    #[test]
    fn isend_then_blocking_recv_interoperate() {
        // A posted irecv must not be starved by interleaved blocking recvs,
        // and a blocking recv must not steal the posted receive's message.
        World::run(2, async |ctx| {
            let comm = Comm::world(ctx);
            if comm.rank() == 0 {
                comm.isend(ctx, 1, 3, 111u64);
                comm.send(ctx, 1, 3, 222u64);
            } else {
                let req = comm.irecv::<u64>(ctx, 0, 3); // posted first
                let later: u64 = comm.recv_async(ctx, 0, 3).await; // same key, posted second
                assert_eq!(req.wait(ctx).await, 111);
                assert_eq!(later, 222);
            }
        });
    }

    #[test]
    fn only_a_receive_that_waits_is_charged_wait() {
        let sent = std::sync::Barrier::new(2);
        let (_, report) = World::run_opts(2, crate::RunOptions::default(), async |ctx| {
            let comm = Comm::world(ctx);
            if comm.rank() == 0 {
                comm.send(ctx, 1, 1, 1u8);
                sent.wait();
                std::thread::sleep(std::time::Duration::from_millis(20));
                comm.send(ctx, 1, 2, 2u8);
            } else {
                sent.wait();
                ctx.set_phase("queued");
                let _: u8 = comm.recv_async(ctx, 0, 1).await;
                ctx.set_phase("late");
                let _: u8 = comm.recv_async(ctx, 0, 2).await;
            }
        });
        assert_eq!(report.wait_secs(1, "queued"), 0.0);
        let late = report.wait_secs(1, "late");
        assert!(late >= 0.010, "expected a measurable wait, got {late}");
    }

    #[test]
    #[should_panic(expected = "rank 0 panicked: blocking call on virtual rank 0")]
    fn blocking_facade_on_a_virtual_rank_panics() {
        let machine = netmodel::Machine::uniform();
        World::run_sim(2, &machine, SimOptions::default(), |ctx| {
            if ctx.world_rank() == 0 {
                let _: u64 = Comm::world(ctx).recv(ctx, 1, 0);
            }
        });
    }

    #[test]
    #[should_panic(expected = "posted receive(s) never waited on")]
    fn leaked_posted_receive_panics_at_exit() {
        World::run(2, async |ctx| {
            let comm = Comm::world(ctx);
            if comm.rank() == 1 {
                let _ = comm.irecv::<u64>(ctx, 0, 0);
            }
        });
    }

    /// Stress test: 16 ranks, randomized post-before-send and
    /// send-before-post interleavings, each completed by `irecv` + `wait`
    /// or by a blocking `recv`, must neither deadlock nor mismatch, in wall
    /// and in virtual time. XOR pairing makes every round a clean pairwise
    /// exchange; each endpoint independently draws its own operation order
    /// from a seeded SplitMix64 stream. Two virtual-time runs of one seed
    /// report the same traffic, virtual seconds and makespan, whatever the
    /// OS schedule.
    #[test]
    fn randomized_isend_irecv_interleavings_16_ranks() {
        const P: usize = 16;
        const ROUNDS: usize = 24;
        for seed in 0..4u64 {
            let program = async |ctx: &RankCtx| {
                let comm = Comm::world(ctx);
                let me = comm.rank();
                let mut state = mix(seed.wrapping_mul(0x9E37).wrapping_add(me as u64 + 1));
                let mut draw = || {
                    state = mix(state.wrapping_add(0x9E37_79B9_7F4A_7C15));
                    state
                };
                for round in 0..ROUNDS {
                    let peer = me ^ (1 + (round % (P - 1)));
                    let tag = round as u64;
                    let val = (me * 1000 + round) as u64;
                    let want = (peer * 1000 + round) as u64;
                    let post_first = draw() & 1 == 0;
                    let blocking = draw() & 1 == 0;
                    let got = if blocking {
                        comm.isend(ctx, peer, tag, val);
                        comm.recv_async(ctx, peer, tag).await
                    } else if post_first {
                        let req = comm.irecv::<u64>(ctx, peer, tag);
                        comm.isend(ctx, peer, tag, val);
                        req.wait(ctx).await
                    } else {
                        comm.isend(ctx, peer, tag, val);
                        comm.irecv::<u64>(ctx, peer, tag).wait(ctx).await
                    };
                    assert_eq!(got, want, "rank {me} round {round} (seed {seed})");
                }
            };
            World::run(P, program);
            let sim = || {
                let (_, report) = World::simulate(
                    P,
                    &netmodel::Machine::uniform(),
                    SimOptions::default(),
                    program,
                );
                (
                    format!("{:?}", report.traffic),
                    report.sim.unwrap().makespan_secs,
                )
            };
            let first = sim();
            assert!(first.1 > 0.0);
            assert_eq!(sim(), first, "seed {seed}");
        }
    }

    #[test]
    fn payload_sizes() {
        assert_eq!(vec![0f64; 3].nbytes(), 24);
        assert_eq!(vec![0f32; 3].nbytes(), 12);
        assert_eq!(7u64.nbytes(), 8);
        // Every primitive vector is sized by `size_of`, as before …
        macro_rules! vec_is_size_of {
            ($($t:ty),*) => {$(
                assert_eq!(
                    vec![<$t>::default(); 7].nbytes(),
                    7 * std::mem::size_of::<$t>(),
                    stringify!($t)
                );
            )*};
        }
        vec_is_size_of!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64, bool, char);
        // … and the shape-only element by the `f64` it stands for, while
        // owning no memory.
        let shapes = dense::Mat::<dense::Shape64>::zeros(1 << 20, 1 << 20).into_vec();
        assert_eq!(shapes.nbytes(), 8 << 40);
        assert_eq!(std::mem::size_of_val(shapes.as_slice()), 0);
        assert_eq!(Vec::<dense::Shape64>::new().nbytes(), 0);
        // A matrix block charges its elements only, shared or not; a
        // shape-only block charges the `f64` block it stands for.
        assert_eq!(dense::Mat::<f64>::zeros(2, 3).nbytes(), 6 * 8);
        assert_eq!(dense::Mat::<f32>::zeros(0, 5).nbytes(), 0);
        assert_eq!(Arc::new(dense::Mat::<f32>::zeros(3, 5)).nbytes(), 60);
        let shape = dense::Mat::<dense::Shape64>::zeros(300, 700);
        assert_eq!(shape.nbytes(), 300 * 700 * 8);
        assert_eq!(Arc::new(shape).nbytes(), 300 * 700 * 8);
    }
}
