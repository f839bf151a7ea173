//! Collective operations, built algorithmically on point-to-point messages.
//!
//! The implementations follow the MPICH designs described by Thakur,
//! Rabenseifner & Gropp (the paper's reference \[27\]): binomial-tree
//! broadcast (and the scatter + allgather large-message broadcast), ring
//! allgatherv, ring reduce-scatter, Rabenseifner allreduce (reduce-scatter +
//! allgather), a post-all-then-receive sparse alltoallv, and a
//! dissemination barrier. Ring variants are used for the bandwidth-bound
//! collectives because their *per-rank byte volume is exactly* the
//! `β·n·(P−1)/P` term of the paper's §III-D cost table for any group size — which is what the model-vs-measured tests assert. (Latency
//! terms in the analytic model use the butterfly formulas regardless.) Each
//! ring is written once, over node blocks; the flat ring is its one-rank-node
//! case (see "The two-level rings" below).
//!
//! Every collective must be called by all members of the communicator in the
//! same order, as in MPI.

use crate::comm::{Comm, Payload, ReduceElem};
use crate::world::RankCtx;
use dense::WireElem;

/// Dissemination barrier: ⌈log₂ P⌉ rounds.
pub async fn barrier(comm: &Comm, ctx: &RankCtx) {
    let _span = ctx.collective_scope("dissemination_barrier", || 0);
    let g = comm.size();
    if g == 1 {
        return;
    }
    let tag = comm.next_coll_tag();
    let me = comm.rank();
    let mut dist = 1;
    while dist < g {
        let dst = (me + dist) % g;
        let src = (me + g - dist) % g;
        comm.send_internal(ctx, dst, tag, ());
        let () = comm.recv_internal(ctx, src, tag).await;
        dist *= 2;
    }
}

/// Binomial-tree broadcast. The root passes `Some(value)`, everyone else
/// `None`; all members return the value.
///
/// # Panics
/// If the root passes `None` or a non-root passes `Some`.
pub async fn bcast<P: Payload + Clone>(
    comm: &Comm,
    ctx: &RankCtx,
    root: usize,
    mine: Option<P>,
) -> P {
    let _span = ctx.collective_scope("binomial_bcast", || {
        mine.as_ref().map_or(0, |v| v.nbytes() as u64)
    });
    let g = comm.size();
    let me = comm.rank();
    assert_eq!(
        me == root,
        mine.is_some(),
        "exactly the root must provide the broadcast value"
    );
    let tag = comm.next_coll_tag();
    if g == 1 {
        return mine.unwrap();
    }
    let vr = (me + g - root) % g;
    let mut mask = 1usize;
    let mut value = mine;
    while mask < g {
        if vr & mask != 0 {
            let src = (vr - mask + root) % g;
            value = Some(comm.recv_internal(ctx, src, tag).await);
            break;
        }
        mask <<= 1;
    }
    let value = value.expect("broadcast value must have arrived");
    mask >>= 1;
    // Child ranks in send order (largest subtree first, as in MPICH).
    let mut children = Vec::new();
    while mask > 0 {
        if vr & mask == 0 && vr + mask < g {
            children.push((vr + mask + root) % g);
        }
        mask >>= 1;
    }
    // The final child send consumes the owned buffer instead of cloning it:
    // a non-leaf rank makes exactly one payload copy per child (counting the
    // copy it keeps to return), which is the minimum possible. Leaves copy
    // nothing.
    let Some((&last, rest)) = children.split_last() else {
        return value;
    };
    let keep = value.clone();
    for &dst in rest {
        comm.send_internal(ctx, dst, tag, value.clone());
    }
    comm.send_internal(ctx, last, tag, value);
    keep
}

/// Large-message broadcast: scatter + ring allgather (the van de Geijn
/// algorithm MPICH uses above its broadcast threshold, and the one whose
/// cost is the paper's `T_broadcast = α(log₂P + P−1) + 2βn(P−1)/P`). The
/// root linearly scatters `P` segments, then a ring allgatherv completes
/// the buffer everywhere; per-rank sent volume is ≤ `2n(P−1)/P` (at the
/// root), matching the formula's β term — unlike a binomial tree, whose
/// root sends `log₂(P)·n`.
///
/// The root passes `Some(data)`; everyone returns the full buffer. All
/// ranks must agree on `len` (the total element count).
pub async fn bcast_large<T: WireElem>(
    comm: &Comm,
    ctx: &RankCtx,
    root: usize,
    mine: Option<Vec<T>>,
    len: usize,
) -> Vec<T> {
    let _span = ctx.collective_scope("vdg_bcast_large", || (len * T::WIRE_BYTES) as u64);
    let g = comm.size();
    let me = comm.rank();
    assert_eq!(
        me == root,
        mine.is_some(),
        "exactly the root must provide the broadcast value"
    );
    if g == 1 {
        let data = mine.unwrap();
        assert_eq!(data.len(), len, "root data length disagrees with len");
        return data;
    }
    let tag = comm.next_coll_tag();
    let counts = dense::split_even(len, g);
    let offsets = offsets_of(&counts);
    // Scatter segments from the root.
    let my_seg: Vec<T> = if me == root {
        let mut data = mine.unwrap();
        assert_eq!(data.len(), len, "root data length disagrees with len");
        for r in 0..g {
            if r != root {
                comm.send_internal(
                    ctx,
                    r,
                    tag,
                    data[offsets[r]..offsets[r] + counts[r]].to_vec(),
                );
            }
        }
        // The root's own segment is carved out of the owned buffer in place
        // (truncate the tail, drain the prefix) instead of copied into a
        // fresh allocation.
        data.truncate(offsets[root] + counts[root]);
        data.drain(..offsets[root]);
        data
    } else {
        comm.recv_internal(ctx, root, tag).await
    };
    // Complete with a ring allgatherv.
    ring_allgatherv(comm, ctx, my_seg, &counts, None).await
}

/// Blocking façade over [`allgatherv_mode`] with [`Collectives::Flat`], kept
/// for the frozen benchmark until item 7 (ROADMAP.md). Panics on a virtual
/// rank.
pub fn allgatherv<T: WireElem>(
    comm: &Comm,
    ctx: &RankCtx,
    mine: Vec<T>,
    counts: &[usize],
) -> Vec<T> {
    ctx.block_on(ring_allgatherv(comm, ctx, mine, counts, None))
}

/// Blocking façade over [`reduce_scatter_mode`] with [`Collectives::Flat`],
/// kept for the frozen benchmark until item 7 (ROADMAP.md). Panics on a virtual
/// rank.
pub fn reduce_scatter<T: ReduceElem>(
    comm: &Comm,
    ctx: &RankCtx,
    data: Vec<T>,
    counts: &[usize],
) -> Vec<T> {
    ctx.block_on(ring_reduce_scatter(comm, ctx, data, counts, None))
}

/// Allreduce (elementwise sum) via Rabenseifner's algorithm: ring
/// reduce-scatter over an even split, then ring allgatherv.
pub async fn allreduce<T: ReduceElem>(comm: &Comm, ctx: &RankCtx, data: Vec<T>) -> Vec<T> {
    let _span = ctx.collective_scope("rabenseifner_allreduce", || data.nbytes() as u64);
    let g = comm.size();
    if g == 1 {
        return data;
    }
    let counts = dense::split_even(data.len(), g);
    let mine = ring_reduce_scatter(comm, ctx, data, &counts, None).await;
    ring_allgatherv(comm, ctx, mine, &counts, None).await
}

/// The send half of a [`neighbor_alltoallv`]: every message is out, nothing
/// has been received. Posting several exchanges before completing the first
/// puts them in one epoch — each has its own collective tag, so their
/// messages cannot be confused, and a rank blocks once for all of them.
#[must_use = "a posted exchange must be completed"]
pub struct PostedExchange<P> {
    tag: u64,
    /// What this rank addressed to itself; it never becomes a message.
    own: Option<P>,
}

/// Posts every send of a sparse exchange: `sends` lists each destination
/// (communicator rank) at most once with its payload. Sends are eager — the
/// receiver's mailbox is unbounded — so posting all of them before any
/// receive cannot deadlock, whatever the pattern. Collective: every member
/// calls it, with an empty list if it sends nothing.
pub fn neighbor_alltoallv_post<P: Payload>(
    comm: &Comm,
    ctx: &RankCtx,
    sends: Vec<(usize, P)>,
) -> PostedExchange<P> {
    let _span = ctx.collective_scope("neighbor_alltoallv", || {
        sends.iter().map(|(_, v)| v.nbytes() as u64).sum()
    });
    let tag = comm.next_coll_tag();
    let me = comm.rank();
    let mut own = None;
    for (dst, payload) in sends {
        if dst != me {
            comm.send_internal(ctx, dst, tag, payload);
        } else if own.replace(payload).is_some() {
            panic!("rank {me} addressed itself twice in one exchange");
        }
    }
    PostedExchange { tag, own }
}

impl<P: Payload> PostedExchange<P> {
    /// Receives from exactly `sources` (each at most once) and returns their
    /// payloads in that order. `q` must be in `r`'s sources iff `r` listed
    /// `q` as a destination: a missing sender blocks forever, an unexpected
    /// message stays in the mailbox.
    ///
    /// # Panics
    /// If this rank addressed itself but is not among its own sources, or
    /// the other way round.
    pub async fn complete(mut self, comm: &Comm, ctx: &RankCtx, sources: &[usize]) -> Vec<P> {
        let _span = ctx.collective_scope("neighbor_alltoallv", || 0);
        let me = comm.rank();
        let mut recvs = Vec::with_capacity(sources.len());
        for &src in sources {
            recvs.push(if src == me {
                self.own.take().expect("own payload was not posted")
            } else {
                comm.recv_internal(ctx, src, self.tag).await
            });
        }
        assert!(self.own.is_none(), "own payload posted but not received");
        recvs
    }
}

/// Sparse all-to-all (`MPI_Neighbor_alltoallv`): sends each `(dst, payload)`
/// of `sends`, then receives from each of `sources`, returning their
/// payloads in the order of `sources`. A peer that is not named gets no
/// message, not an empty one. `P` is any payload — `Vec<T>` buffers, or a
/// shared handle charged as the bytes its receiver reads
/// (`layout::redistribute`).
pub async fn neighbor_alltoallv<P: Payload>(
    comm: &Comm,
    ctx: &RankCtx,
    sends: Vec<(usize, P)>,
    sources: &[usize],
) -> Vec<P> {
    neighbor_alltoallv_post(comm, ctx, sends)
        .complete(comm, ctx, sources)
        .await
}

// ---------------------------------------------------------------------------
// The two-level rings.
//
// Allgatherv and reduce-scatter each have one ring, written over *node
// blocks*: members talk to their node's leader over the (cheap) intra-node
// fabric, the leaders run the ring among themselves, and the leaders hand the
// results back out intra-node. With the sim placement's node layout
// ([`RankCtx::ranks_per_node`]) and `Collectives::Hier`, the grouping is the
// real one and inter-node messages per group drop from Θ(P) to Θ(#nodes) —
// the latency tier the flat rings pay at scale. The flat algorithm is the
// same ring with every rank its own node.
//
// Selection is structural and identical on every member (it is a pure
// function of the communicator's world ranks and the topology), so a
// communicator never splits between the two groupings: hier engages only
// when the group spans ≥ 2 nodes AND at least one node holds ≥ 2 members.
// Otherwise the one-rank-node grouping is the right one already — a
// single-node group never crosses the network, and an all-singleton group
// gains nothing from leaders — and the traffic is attributed to the flat
// algorithm name.

/// Node-grouped view of a communicator: which members share nodes, under the
/// block `node = world_rank / ranks_per_node` mapping.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeMap {
    /// Communicator rank indices grouped by node, nodes in first-appearance
    /// order of the comm rank order, members ascending. `nodes[j][0]` is
    /// node `j`'s leader.
    pub nodes: Vec<Vec<usize>>,
    /// Index into `nodes` of the calling rank's node.
    pub my_node: usize,
    /// The calling rank's position within its node group (0 = leader).
    pub my_slot: usize,
}

impl NodeMap {
    /// Number of nodes the communicator spans.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Largest number of members any node holds.
    pub fn max_members(&self) -> usize {
        self.nodes.iter().map(Vec::len).max().unwrap_or(0)
    }
}

/// The two-level selection rule: `Some(map)` when the hierarchical path
/// engages for this communicator, `None` when the flat algorithms should run
/// (a single-node communicator — every one in a wall-clock run — or all
/// nodes holding a single member). Every member computes the same answer.
pub fn node_map(comm: &Comm, ctx: &RankCtx) -> Option<NodeMap> {
    let rpn = ctx.ranks_per_node();
    let g = comm.size();
    let me = comm.rank();
    let mut node_ids: Vec<usize> = Vec::new();
    let mut nodes: Vec<Vec<usize>> = Vec::new();
    let mut my_node = 0;
    let mut my_slot = 0;
    for idx in 0..g {
        let node = comm.world_rank_of(idx) / rpn;
        let j = match node_ids.iter().position(|&n| n == node) {
            Some(j) => j,
            None => {
                node_ids.push(node);
                nodes.push(Vec::new());
                nodes.len() - 1
            }
        };
        if idx == me {
            my_node = j;
            my_slot = nodes[j].len();
        }
        nodes[j].push(idx);
    }
    if nodes.len() < 2 || nodes.iter().all(|v| v.len() == 1) {
        return None;
    }
    Some(NodeMap {
        nodes,
        my_node,
        my_slot,
    })
}

/// Prefix offsets of `counts`.
fn offsets_of(counts: &[usize]) -> Vec<usize> {
    counts
        .iter()
        .scan(0, |acc, &c| {
            let o = *acc;
            *acc += c;
            Some(o)
        })
        .collect()
}

/// Node `j`'s members, leader first: from the [`node_map`] grouping, or the
/// one-rank node `{j}` of the flat rings, which needs no table.
fn members<'a>(hier: Option<&'a NodeMap>, j: &'a usize) -> &'a [usize] {
    hier.map_or(std::slice::from_ref(j), |map| &map.nodes[*j])
}

/// The one allgatherv ring, over node blocks (a node's block is its members'
/// segments in member order). Up: members hand their segment to the node
/// leader. Ring: the leaders pass whole blocks, one message per step, for
/// `L − 1` steps. Down: each leader hands the assembled buffer to its
/// members. `hier = None` is the flat ring — one-rank nodes, whose up and
/// down stages send nothing and whose block is the segment itself.
async fn ring_allgatherv<T: WireElem>(
    comm: &Comm,
    ctx: &RankCtx,
    mine: Vec<T>,
    counts: &[usize],
    hier: Option<NodeMap>,
) -> Vec<T> {
    let algo = if hier.is_some() {
        "hier_allgatherv"
    } else {
        "ring_allgatherv"
    };
    let _span = ctx.collective_scope(algo, || {
        (counts.iter().sum::<usize>() * T::WIRE_BYTES) as u64
    });
    let g = comm.size();
    let me = comm.rank();
    assert_eq!(counts.len(), g, "counts must have one entry per rank");
    assert_eq!(
        mine.len(),
        counts[me],
        "my contribution length disagrees with counts"
    );
    if g == 1 {
        return mine;
    }
    let hier = hier.as_ref();
    let (l, lc) = hier.map_or((me, g), |map| (map.my_node, map.nodes.len()));
    let block_len = |j: usize| members(hier, &j).iter().map(|&m| counts[m]).sum::<usize>();
    let tag = comm.next_coll_tag();
    let own = members(hier, &l);
    if me != own[0] {
        comm.send_internal(ctx, own[0], tag, mine);
        return comm.recv_internal(ctx, own[0], tag).await;
    }
    // Segments arrive out of rank order; stage them and concatenate once all
    // are present.
    let mut segments: Vec<Option<Vec<T>>> = (0..g).map(|_| None).collect();
    segments[me] = Some(mine);
    for &m in &own[1..] {
        let got: Vec<T> = comm.recv_internal(ctx, m, tag).await;
        assert_eq!(got.len(), counts[m], "allgatherv count mismatch");
        segments[m] = Some(got);
    }
    let right = members(hier, &((l + 1) % lc))[0];
    let left = members(hier, &((l + lc - 1) % lc))[0];
    // At step t a leader forwards the block of node (l − t).
    for t in 0..lc - 1 {
        let send_node = (l + lc - t) % lc;
        let recv_node = (l + lc - t - 1) % lc;
        let mut block = Vec::with_capacity(block_len(send_node));
        for &m in members(hier, &send_node) {
            let seg = segments[m].as_ref();
            block.extend_from_slice(seg.expect("segment to forward must be present"));
        }
        comm.send_internal(ctx, right, tag, block);
        let mut got: Vec<T> = comm.recv_internal(ctx, left, tag).await;
        let mut off = block_len(recv_node);
        assert_eq!(got.len(), off, "allgatherv count mismatch");
        // Cut the block back into segments from the tail: the leader's
        // segment keeps the received buffer, so a one-rank node copies nothing.
        let from = members(hier, &recv_node);
        for &m in from[1..].iter().rev() {
            off -= counts[m];
            segments[m] = Some(got.split_off(off));
        }
        segments[from[0]] = Some(got);
    }
    let mut out: Vec<T> = Vec::with_capacity(counts.iter().sum());
    for s in segments {
        out.extend_from_slice(&s.expect("all segments gathered"));
    }
    for &m in &own[1..] {
        comm.send_internal(ctx, m, tag, out.clone());
    }
    out
}

/// The one reduce-scatter ring, over node blocks. Up: members ship their
/// whole vector to the node leader, which adds them into its own. Ring: the
/// leaders pass partial sums of whole node blocks for `L − 1` steps, each
/// adding its node's contribution, so every block crosses the network once
/// per hop. Down: each leader hands its members their finished segments.
/// `hier = None` is the flat ring — one-rank nodes, no up or down messages.
/// Every hop adds `received partial sum += local contribution`; with a node
/// grouping the local contribution is the node's pre-combined sum, so the
/// association (not the result on exact inputs) differs from the flat ring.
async fn ring_reduce_scatter<T: ReduceElem>(
    comm: &Comm,
    ctx: &RankCtx,
    data: Vec<T>,
    counts: &[usize],
    hier: Option<NodeMap>,
) -> Vec<T> {
    let algo = if hier.is_some() {
        "hier_reduce_scatter"
    } else {
        "ring_reduce_scatter"
    };
    let _span = ctx.collective_scope(algo, || data.nbytes() as u64);
    let g = comm.size();
    let me = comm.rank();
    assert_eq!(counts.len(), g, "counts must have one entry per rank");
    let total: usize = counts.iter().sum();
    assert_eq!(data.len(), total, "data length must equal sum of counts");
    if g == 1 {
        return data;
    }
    let hier = hier.as_ref();
    let (l, lc) = hier.map_or((me, g), |map| (map.my_node, map.nodes.len()));
    let block_len = |j: usize| members(hier, &j).iter().map(|&m| counts[m]).sum::<usize>();
    let tag = comm.next_coll_tag();
    let own = members(hier, &l);
    if me != own[0] {
        comm.send_internal(ctx, own[0], tag, data);
        return comm.recv_internal(ctx, own[0], tag).await;
    }
    let mut acc = data;
    for &m in &own[1..] {
        let got: Vec<T> = comm.recv_internal(ctx, m, tag).await;
        assert_eq!(got.len(), acc.len(), "reduce_scatter length mismatch");
        for (s, d) in acc.iter_mut().zip(&got) {
            *s += *d;
        }
    }
    let offsets = offsets_of(counts);
    let right = members(hier, &((l + 1) % lc))[0];
    let left = members(hier, &((l + lc - 1) % lc))[0];
    // Node block b travels along the ring starting at node b + 1 and is
    // accumulated at each hop; after L − 1 steps it is complete at node b.
    let mut carry: Vec<T> = Vec::new();
    for t in 0..lc - 1 {
        let send_node = (l + 2 * lc - 1 - t) % lc;
        let recv_node = (l + 2 * lc - 2 - t) % lc;
        let payload: Vec<T> = if t == 0 {
            let mut block = Vec::with_capacity(block_len(send_node));
            for &m in members(hier, &send_node) {
                block.extend_from_slice(&acc[offsets[m]..offsets[m] + counts[m]]);
            }
            block
        } else {
            std::mem::take(&mut carry)
        };
        comm.send_internal(ctx, right, tag, payload);
        let mut sum: Vec<T> = comm.recv_internal(ctx, left, tag).await;
        assert_eq!(
            sum.len(),
            block_len(recv_node),
            "reduce_scatter count mismatch"
        );
        let mut off = 0;
        for &m in members(hier, &recv_node) {
            let seg = &acc[offsets[m]..offsets[m] + counts[m]];
            for (s, d) in sum[off..off + seg.len()].iter_mut().zip(seg) {
                *s += *d;
            }
            off += seg.len();
        }
        carry = sum;
    }
    // `carry` is my node's finished block; my segment leads it.
    let mut off = counts[me];
    for &m in &own[1..] {
        comm.send_internal(ctx, m, tag, carry[off..off + counts[m]].to_vec());
        off += counts[m];
    }
    carry.truncate(counts[me]);
    carry
}

/// Which collective algorithm family a program requests. `Hier` runs the
/// bandwidth-bound collectives ([`allgatherv_mode`], [`reduce_scatter_mode`])
/// over the node grouping, falling back to one-rank nodes whenever
/// [`node_map`] declines — so `Hier` is always safe to request, and `Flat`
/// exists to force the topology-oblivious baselines (the ablation control).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Collectives {
    /// Single-level ring/tree algorithms, regardless of topology.
    #[default]
    Flat,
    /// Two-level node-aware algorithms where the communicator spans ≥ 2
    /// nodes with ≥ 2 ranks on one of them; flat otherwise.
    Hier,
}

impl Collectives {
    /// Canonical lowercase name, as written to report `meta` blocks and
    /// accepted by the CLI `--collectives` flags.
    pub fn as_str(self) -> &'static str {
        match self {
            Collectives::Flat => "flat",
            Collectives::Hier => "hier",
        }
    }

    /// Parses [`Collectives::as_str`] output.
    pub fn parse(s: &str) -> Option<Collectives> {
        match s {
            "flat" => Some(Collectives::Flat),
            "hier" => Some(Collectives::Hier),
            _ => None,
        }
    }
}

/// Ring allgather with per-rank contribution sizes `counts` (known to all
/// members, as in `MPI_Allgatherv`). Returns the concatenation in rank
/// order. Runs over the [`node_map`] grouping when `mode` is `Hier` and the
/// topology engages; otherwise the flat ring, the same ring with every rank
/// its own node.
pub async fn allgatherv_mode<T: WireElem>(
    mode: Collectives,
    comm: &Comm,
    ctx: &RankCtx,
    mine: Vec<T>,
    counts: &[usize],
) -> Vec<T> {
    let hier = (mode == Collectives::Hier).then(|| node_map(comm, ctx));
    ring_allgatherv(comm, ctx, mine, counts, hier.flatten()).await
}

/// Ring reduce-scatter: `data` is the full vector (length = Σ counts) of
/// this rank's contribution; returns the elementwise sum over all ranks of
/// segment `rank` (the segment boundaries are given by `counts`). Runs over
/// the [`node_map`] grouping when `mode` is `Hier` and the topology
/// engages; otherwise the flat ring, the same ring with every rank its own
/// node.
///
/// Per-rank volume of the flat ring: Σ_{s≠me} counts\[s\] bytes sent — the
/// `β·n·(P−1)/P` of the paper when counts are even.
pub async fn reduce_scatter_mode<T: ReduceElem>(
    mode: Collectives,
    comm: &Comm,
    ctx: &RankCtx,
    data: Vec<T>,
    counts: &[usize],
) -> Vec<T> {
    let hier = (mode == Collectives::Hier).then(|| node_map(comm, ctx));
    ring_reduce_scatter(comm, ctx, data, counts, hier.flatten()).await
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::World;

    #[test]
    fn barrier_all_sizes() {
        for p in [1usize, 2, 3, 5, 8] {
            World::run(p, async |ctx| {
                let comm = Comm::world(ctx);
                barrier(&comm, ctx).await;
                barrier(&comm, ctx).await;
            });
        }
    }

    #[test]
    fn bcast_from_each_root() {
        for p in [1usize, 2, 4, 7] {
            for root in 0..p {
                World::run(p, async |ctx| {
                    let comm = Comm::world(ctx);
                    let mine = (comm.rank() == root).then(|| vec![root as f64, 42.0]);
                    let got = bcast(&comm, ctx, root, mine).await;
                    assert_eq!(got, vec![root as f64, 42.0]);
                });
            }
        }
    }

    #[test]
    fn bcast_large_from_each_root() {
        for p in [1usize, 2, 3, 5, 8] {
            for root in 0..p {
                World::run(p, async |ctx| {
                    let comm = Comm::world(ctx);
                    let want: Vec<u64> = (0..23).collect();
                    let mine = (comm.rank() == root).then(|| want.clone());
                    let got = bcast_large(&comm, ctx, root, mine, 23).await;
                    assert_eq!(got, want);
                });
            }
        }
    }

    #[test]
    fn bcast_large_volume_matches_formula() {
        // root sends at most 2n(g-1)/g elements
        let p = 4;
        let n = 64usize;
        let (_, report) = World::run_traced(p, async |ctx| {
            let comm = Comm::world(ctx);
            ctx.set_phase("bc");
            let mine = (comm.rank() == 0).then(|| vec![1.0f64; n]);
            let _ = bcast_large(&comm, ctx, 0, mine, n).await;
        });
        // root: scatter (n*(g-1)/g) + ring allgather ((g-1) * n/g)
        let want = (n * (p - 1) / p + (p - 1) * (n / p)) * 8;
        assert_eq!(report.phase(0, "bc").bytes as usize, want);
        // non-roots only pay the allgather part
        for r in 1..p {
            assert_eq!(report.phase(r, "bc").bytes as usize, (p - 1) * (n / p) * 8);
        }
    }

    #[test]
    fn bcast_large_short_buffer() {
        // len < g: some segments empty
        World::run(6, async |ctx| {
            let comm = Comm::world(ctx);
            let mine = (comm.rank() == 2).then(|| vec![7u8, 8, 9]);
            let got = bcast_large(&comm, ctx, 2, mine, 3).await;
            assert_eq!(got, vec![7, 8, 9]);
        });
    }

    #[test]
    fn allgatherv_uneven() {
        World::run(4, async |ctx| {
            let comm = Comm::world(ctx);
            let me = comm.rank();
            let counts = [3usize, 0, 2, 1];
            let mine: Vec<u32> = (0..counts[me]).map(|i| (me * 100 + i) as u32).collect();
            let got = allgatherv_mode(Collectives::Flat, &comm, ctx, mine, &counts).await;
            assert_eq!(got, vec![0, 1, 2, 200, 201, 300]);
        });
    }

    #[test]
    fn reduce_scatter_sums_segments() {
        for p in [2usize, 3, 5] {
            World::run(p, async |ctx| {
                let comm = Comm::world(ctx);
                let counts: Vec<usize> = (0..p).map(|i| i + 1).collect();
                let total: usize = counts.iter().sum();
                // rank r contributes value (r+1) everywhere
                let data = vec![(comm.rank() + 1) as f64; total];
                let got = reduce_scatter_mode(Collectives::Flat, &comm, ctx, data, &counts).await;
                let expected = (p * (p + 1) / 2) as f64;
                assert_eq!(got.len(), counts[comm.rank()]);
                assert!(got.iter().all(|&v| v == expected));
            });
        }
    }

    #[test]
    fn reduce_scatter_distinct_segments() {
        // Verify each rank gets *its own* segment: contribution at global
        // index i from rank r is r * 1000 + i.
        World::run(3, async |ctx| {
            let comm = Comm::world(ctx);
            let counts = [2usize, 2, 2];
            let data: Vec<f64> = (0..6).map(|i| (comm.rank() * 1000 + i) as f64).collect();
            let got = reduce_scatter_mode(Collectives::Flat, &comm, ctx, data, &counts).await;
            let me = comm.rank();
            for (k, &v) in got.iter().enumerate() {
                let i = me * 2 + k;
                let want = (1000 + 2000 + 3 * i) as f64;
                assert_eq!(v, want, "segment value at {i}");
            }
        });
    }

    #[test]
    fn allreduce_matches_serial_sum() {
        for p in [1usize, 2, 4, 5] {
            World::run(p, async |ctx| {
                let comm = Comm::world(ctx);
                let data: Vec<f64> = (0..7)
                    .map(|i| (comm.rank() + 1) as f64 * i as f64)
                    .collect();
                let got = allreduce(&comm, ctx, data).await;
                let scale: f64 = (1..=p).map(|r| r as f64).sum();
                for (i, &v) in got.iter().enumerate() {
                    assert!((v - scale * i as f64).abs() < 1e-12);
                }
            });
        }
    }

    #[test]
    fn allgather_volume_matches_ring_formula() {
        // Per-rank sent bytes of ring allgather = (P-1) * block_bytes.
        let p = 5;
        let block = 16usize; // u64 elements
        let (_, report) = World::run_traced(p, async |ctx| {
            let comm = Comm::world(ctx);
            ctx.set_phase("ag");
            let _ = allgatherv_mode(
                Collectives::Flat,
                &comm,
                ctx,
                vec![0u64; block],
                &[block; 5],
            )
            .await;
        });
        for r in 0..p {
            assert_eq!(report.phase(r, "ag").bytes as usize, (p - 1) * block * 8);
            assert_eq!(report.phase(r, "ag").msgs as usize, p - 1);
        }
    }

    #[test]
    fn reduce_scatter_volume_matches_ring_formula() {
        let p = 4;
        let seg = 8usize;
        let (_, report) = World::run_traced(p, async |ctx| {
            let comm = Comm::world(ctx);
            ctx.set_phase("rs");
            let counts = vec![seg; p];
            let _ = reduce_scatter_mode(
                Collectives::Flat,
                &comm,
                ctx,
                vec![1.0f64; seg * p],
                &counts,
            )
            .await;
        });
        for r in 0..p {
            assert_eq!(report.phase(r, "rs").bytes as usize, (p - 1) * seg * 8);
        }
    }

    #[test]
    fn collectives_on_subgroups_do_not_interfere() {
        World::run(6, async |ctx| {
            let comm = Comm::world(ctx);
            let groups = vec![vec![0, 1, 2], vec![3, 4, 5]];
            let sub = comm.subgroup(ctx, &groups).unwrap();
            // run different collectives concurrently in the two groups
            if comm.rank() < 3 {
                let v = allgatherv_mode(
                    Collectives::Flat,
                    &sub,
                    ctx,
                    vec![sub.rank() as u64],
                    &[1; 3],
                )
                .await;
                assert_eq!(v, vec![0, 1, 2]);
            } else {
                let v = allreduce(&sub, ctx, vec![1.0f64; 5]).await;
                assert!(v.iter().all(|&x| x == 3.0));
            }
            barrier(&comm, ctx).await;
        });
    }

    use crate::sim::SimOptions;
    use crate::world::RunReport;
    use netmodel::{Machine, Placement};

    /// Runs `f` on `p` ranks under virtual time on nodes of `rpn` ranks —
    /// nodes exist only in a machine model — executing every operation.
    fn on_nodes<R>(p: usize, rpn: usize, f: impl AsyncFn(&RankCtx) -> R) -> (Vec<R>, RunReport) {
        let machine = Machine::uniform();
        let opts = SimOptions {
            placement: Some(Placement {
                ranks_per_node: rpn,
                ..machine.pure_mpi()
            }),
            execute_compute: true,
        };
        World::simulate(p, &machine, opts, f)
    }

    #[test]
    fn node_map_selection_rules() {
        // A wall-clock run is one node → flat.
        World::run(4, async |ctx| {
            let comm = Comm::world(ctx);
            assert!(node_map(&comm, ctx).is_none());
        });
        // All nodes singleton (1 rank per node) → flat.
        on_nodes(4, 1, async |ctx| {
            let comm = Comm::world(ctx);
            assert!(node_map(&comm, ctx).is_none());
        });
        // Whole communicator inside one node → flat.
        on_nodes(4, 8, async |ctx| {
            let comm = Comm::world(ctx);
            assert!(node_map(&comm, ctx).is_none());
        });
        // 3 nodes × 2 members → hier, leaders are the even ranks.
        on_nodes(6, 2, async |ctx| {
            let comm = Comm::world(ctx);
            let map = node_map(&comm, ctx).expect("hier engages");
            assert_eq!(map.nodes, vec![vec![0, 1], vec![2, 3], vec![4, 5]]);
            assert_eq!(map.my_node, comm.rank() / 2);
            assert_eq!(map.my_slot, comm.rank() % 2);
            assert_eq!(map.node_count(), 3);
            assert_eq!(map.max_members(), 2);
        });
        // Subgroups see their own layout: {0,1,4} on 4-rank nodes spans two
        // nodes with one multi-member node → hier; {0,2} (both on node 0 of
        // 4-rank nodes) → flat.
        on_nodes(6, 4, async |ctx| {
            let comm = Comm::world(ctx);
            let groups = vec![vec![0, 1, 4], vec![2, 3, 5]];
            let sub = comm.subgroup(ctx, &groups).unwrap();
            let map = node_map(&sub, ctx);
            if comm.rank() == 0 || comm.rank() == 1 || comm.rank() == 4 {
                let map = map.expect("hier engages on {0,1,4}");
                assert_eq!(map.nodes, vec![vec![0, 1], vec![2]]);
            } else {
                // {2,3,5}: members on node 0 (ranks 2,3) and node 1 (rank 5).
                let map = map.expect("hier engages on {2,3,5}");
                assert_eq!(map.nodes, vec![vec![0, 1], vec![2]]);
            }
        });
    }

    #[test]
    fn hier_matches_flat_results() {
        // 3 nodes × 2 ranks: the node-block rings must produce the same
        // values the flat ones do.
        on_nodes(6, 2, async |ctx| {
            let comm = Comm::world(ctx);
            let me = comm.rank();
            let p = comm.size();

            // allgatherv, uneven counts (one empty contribution).
            let counts = [3usize, 0, 2, 1, 4, 2];
            let mine: Vec<u32> = (0..counts[me]).map(|i| (me * 100 + i) as u32).collect();
            let want: Vec<u32> = (0..p)
                .flat_map(|r| (0..counts[r]).map(move |i| (r * 100 + i) as u32))
                .collect();
            assert_eq!(
                allgatherv_mode(Collectives::Hier, &comm, ctx, mine, &counts).await,
                want
            );

            // reduce_scatter, distinct segments, integer-valued f64 so the
            // association order cannot change bits.
            let counts = [2usize, 2, 2, 2, 2, 2];
            let data: Vec<f64> = (0..12).map(|i| (me * 1000 + i) as f64).collect();
            let got = reduce_scatter_mode(Collectives::Hier, &comm, ctx, data, &counts).await;
            let rank_sum = (0..p).map(|r| r * 1000).sum::<usize>() as f64;
            for (k, &v) in got.iter().enumerate() {
                let i = me * 2 + k;
                assert_eq!(v, rank_sum + (p * i) as f64, "segment value at {i}");
            }
        });
    }

    #[test]
    fn hier_without_topology_is_flat() {
        // `Hier` is a safe default: a wall-clock run is one node, so it runs
        // the flat rings (same results, flat attribution).
        let (_, report) = World::run_traced(4, async |ctx| {
            let comm = Comm::world(ctx);
            let v = allgatherv_mode(
                Collectives::Hier,
                &comm,
                ctx,
                vec![comm.rank() as u64],
                &[1; 4],
            )
            .await;
            assert_eq!(v, vec![0, 1, 2, 3]);
        });
        assert!(report.hist_by_algo.contains_key("ring_allgatherv"));
        assert!(!report.hist_by_algo.contains_key("hier_allgatherv"));
    }

    #[test]
    fn hier_allgather_volume_matches_leader_formula() {
        // 3 nodes × 2 ranks, even blocks of B elements: a member sends its
        // own block up (B); a leader sends L−1 ring blocks (total − next
        // node's block = 6B − 2B = 4B) plus the assembled buffer down to its
        // member (6B) — 10B. Message counts: member 1, leader (L−1)+(m−1)=3.
        let b = 16usize;
        let (_, report) = on_nodes(6, 2, async |ctx| {
            let comm = Comm::world(ctx);
            ctx.set_phase("ag");
            let _ = allgatherv_mode(Collectives::Hier, &comm, ctx, vec![0u64; b], &[b; 6]).await;
        });
        for r in 0..6 {
            let c = report.phase(r, "ag");
            if r % 2 == 0 {
                assert_eq!(c.bytes as usize, 10 * b * 8, "leader {r}");
                assert_eq!(c.msgs, 3, "leader {r}");
            } else {
                assert_eq!(c.bytes as usize, b * 8, "member {r}");
                assert_eq!(c.msgs, 1, "member {r}");
            }
        }
        assert!(report.hist_by_algo.contains_key("hier_allgatherv"));
        assert!(!report.hist_by_algo.contains_key("ring_allgatherv"));
    }

    #[test]
    fn hier_reduce_scatter_volume_matches_leader_formula() {
        // 3 nodes × 2 ranks, segments of S elements (total 6S): a member
        // sends its whole vector up (6S, 1 msg); a leader sends L−1 ring
        // blocks (total − own node block = 6S − 2S = 4S) plus its member's
        // segment down (S) — 5S, (L−1)+(m−1) = 3 msgs.
        let s = 8usize;
        let (_, report) = on_nodes(6, 2, async |ctx| {
            let comm = Comm::world(ctx);
            ctx.set_phase("rs");
            let counts = vec![s; 6];
            let _ =
                reduce_scatter_mode(Collectives::Hier, &comm, ctx, vec![1.0f64; 6 * s], &counts)
                    .await;
        });
        for r in 0..6 {
            let c = report.phase(r, "rs");
            if r % 2 == 0 {
                assert_eq!(c.bytes as usize, 5 * s * 8, "leader {r}");
                assert_eq!(c.msgs, 3, "leader {r}");
            } else {
                assert_eq!(c.bytes as usize, 6 * s * 8, "member {r}");
                assert_eq!(c.msgs, 1, "member {r}");
            }
        }
        assert!(report.hist_by_algo.contains_key("hier_reduce_scatter"));
    }
}
