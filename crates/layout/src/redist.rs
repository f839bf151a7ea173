//! Redistribution between arbitrary layouts (Algorithm 1 steps 4 and 8).
//!
//! The paper's subroutine is pack → `MPI_Neighbor_alltoallv` → unpack
//! (§III-F). On this in-process runtime the same exchange runs as **share +
//! gather**: every rank wraps its source blocks in one `Arc`, sends a clone
//! of it to each peer that reads from them, and each receiver builds its
//! destination blocks in one pass, reading straight from the senders'
//! blocks (the redistribution counterpart of the Cannon pipeline's
//! `Arc<Mat<T>>` payload; MPI gets the same effect from derived
//! datatypes over a single-copy intra-node transport).
//!
//! The exchange is a neighbour exchange, as in the paper: a message
//! `s → d` exists iff some rectangle of `d` in the destination layout
//! intersects one of `s` in the source layout, the piece a rank reads from
//! its own blocks never becomes a message, and a peer that reads nothing
//! gets nothing (not an empty message). Every rank posts all of its sends
//! before its first receive. That is safe because sends are eager — the
//! mailbox (`msgpass::chan`) is unbounded and a send never waits for its
//! receiver — and it cannot hang because the two neighbour lists of a
//! [`RankRedistPlan`] come from the same rectangle intersections: `q` is
//! among `r`'s readers exactly when `r` is among `q`'s sources. Posting
//! first also lets a caller put several exchanges in one epoch
//! ([`multiply_planned`] posts `A` and `B` before completing either).
//!
//! What is *charged* and what is *copied* differ on purpose. Each message
//! is charged the bytes of the pieces its receiver reads from it (Σ piece
//! areas × `T::WIRE_BYTES` — exactly the packed buffer of the paper's
//! subroutine), so traffic counters, histograms and virtual-time charges
//! are those of pack/neighbor_alltoallv/unpack. Each element is copied
//! once, by its receiver, into an output that is appended to rather than
//! zero-filled; no staging buffer exists, and the source blocks are freed
//! when their last reader drops them.
//!
//! A [`RankRedistPlan`] is one rank's program for a fixed `(src, dst, op)`
//! triple and a [`RedistPlan`] every rank's: the rectangle intersections
//! are computed once, so an iterative caller — or the `ca3dmm-serve` plan
//! cache — pays the geometry only on the first multiply of a shape.
//! [`redistribute_planned_async`] executes a program; a one-off exchange
//! builds its rank's plan with [`RankRedistPlan::new`] and runs it at once.

use crate::dist::Layout;
use dense::gemm::GemmOp;
use dense::part::Rect;
use dense::{Mat, Scalar};
use msgpass::collectives::{neighbor_alltoallv_post, PostedExchange};
use msgpass::{Comm, Payload, RankCtx};
use std::sync::Arc;

/// The overlap of one destination rectangle with one source rectangle (the
/// `si`-th of the `from`-th source rank), in destination coordinates.
struct Piece {
    from: usize,
    si: usize,
    src_rect: Rect,
    inter_dst: Rect,
}

/// One contiguous run of a destination row, `len` elements long, read from
/// block `si` of the rank at position `from` of [`RankRedistPlan::sources`].
/// `(i0, j0)` is the source-block position of the run's first element in
/// the first row of its [`Band`]; every further band row moves one source
/// row down (`NoTrans`, the run lies along a source row) or one source
/// column right (`Trans`, the run lies down a source column).
#[derive(Clone, Debug)]
struct Segment {
    from: usize,
    si: usize,
    i0: usize,
    j0: usize,
    len: usize,
}

/// Consecutive destination rows that are tiled by the same pieces: one
/// segment per piece, left to right.
#[derive(Clone, Debug)]
struct Band {
    rows: usize,
    segs: Vec<Segment>,
}

/// The fill order of one destination block: its bands, top to bottom.
#[derive(Clone, Debug)]
struct DstBlock {
    rect: Rect,
    bands: Vec<Band>,
}

/// One rank's precomputed redistribution program for a fixed
/// `(src, dst, op)` triple: its two neighbour lists — who reads from this
/// rank's blocks and how much (what each message is charged), and whose
/// blocks this rank reads — and the order in which it gathers each of its
/// destination blocks out of those.
#[derive(Clone, Debug)]
pub struct RankRedistPlan {
    op: GemmOp,
    /// Ranks the layouts span (for validating the communicator).
    nranks: usize,
    /// This rank's source rectangles (for validating the caller's blocks).
    src_rects: Vec<Rect>,
    /// `(peer, elems)` for every rank, this one included, that reads a
    /// non-empty piece of this rank's blocks, starting with the next rank
    /// up so the ranks do not all address rank 0 first.
    readers: Vec<(usize, usize)>,
    /// The ranks, this one included, whose blocks this rank's destination
    /// blocks read from, ascending.
    sources: Vec<usize>,
    /// This rank's destination blocks and their fill order.
    dst_blocks: Vec<DstBlock>,
}

impl RankRedistPlan {
    /// Builds rank `me`'s program. Validates the layout pair once;
    /// executing the plan re-validates only the local blocks.
    ///
    /// # Panics
    /// If the layouts disagree with each other or with the communicator
    /// size implied by `src`.
    pub fn new(src: &Layout, dst: &Layout, op: GemmOp, me: usize) -> Self {
        let p = src.nranks();
        assert_eq!(
            dst.nranks(),
            p,
            "src/dst layouts span different rank counts"
        );
        let (sr, sc) = src.shape();
        assert_eq!(
            dst.shape(),
            op.apply_shape(sr, sc),
            "dst layout shape must equal op(src) shape"
        );
        assert!(me < p, "rank {me} outside the {p}-rank layouts");
        let readers = (1..=p)
            .map(|off| (me + off) % p)
            .filter_map(|peer| {
                let elems: usize = dst
                    .owned(peer)
                    .iter()
                    .flat_map(|dst_rect| {
                        src.owned(me)
                            .iter()
                            .filter_map(|src_rect| intersect_in_dst(dst_rect, src_rect, op))
                    })
                    .map(|inter| inter.area())
                    .sum();
                (elems > 0).then_some((peer, elems))
            })
            .collect();
        let dst_rects = dst.owned(me);
        let mut sources = Vec::new();
        let mut pieces: Vec<Vec<Piece>> = dst_rects.iter().map(|_| Vec::new()).collect();
        for peer in 0..p {
            for (si, src_rect) in src.owned(peer).iter().enumerate() {
                for (dst_rect, pieces) in dst_rects.iter().zip(&mut pieces) {
                    if let Some(inter_dst) = intersect_in_dst(dst_rect, src_rect, op) {
                        if sources.last() != Some(&peer) {
                            sources.push(peer);
                        }
                        pieces.push(Piece {
                            from: sources.len() - 1,
                            si,
                            src_rect: *src_rect,
                            inter_dst,
                        });
                    }
                }
            }
        }
        let dst_blocks = dst_rects
            .iter()
            .zip(pieces)
            .map(|(dst_rect, pieces)| DstBlock {
                rect: *dst_rect,
                bands: fill_order(dst_rect, pieces, op),
            })
            .collect();
        RankRedistPlan {
            op,
            nranks: p,
            src_rects: src.owned(me).to_vec(),
            readers,
            sources,
            dst_blocks,
        }
    }

    /// `(peer, elems)` for every rank, this one included, that reads a
    /// non-empty piece of this rank's blocks. Every peer but this rank
    /// itself is sent one message, charged `elems` elements.
    pub fn readers(&self) -> &[(usize, usize)] {
        &self.readers
    }

    /// The ranks, this one included, whose blocks this rank gathers from.
    pub fn sources(&self) -> &[usize] {
        &self.sources
    }
}

/// Cuts `dst_rect` into bands at every row where a piece starts or ends;
/// each band lists its pieces left to right.
///
/// # Panics
/// If the pieces of a band do not tile the full width of `dst_rect`
/// exactly — with the length check in [`gather`] this proves that they
/// tile the block.
fn fill_order(dst_rect: &Rect, mut pieces: Vec<Piece>, op: GemmOp) -> Vec<Band> {
    pieces.sort_by_key(|p| (p.inter_dst.row0, p.inter_dst.col0));
    let mut cuts: Vec<usize> = pieces
        .iter()
        .flat_map(|p| [p.inter_dst.row0, p.inter_dst.row_end()])
        .collect();
    cuts.sort_unstable();
    cuts.dedup();
    let mut bands = Vec::with_capacity(cuts.len().saturating_sub(1));
    let mut active: Vec<&Piece> = Vec::new();
    let mut started = 0;
    for cut in cuts.windows(2) {
        let (top, bottom) = (cut[0], cut[1]);
        active.retain(|p| p.inter_dst.row_end() > top);
        while started < pieces.len() && pieces[started].inter_dst.row0 == top {
            active.push(&pieces[started]);
            started += 1;
        }
        active.sort_by_key(|p| p.inter_dst.col0);
        let mut segs = Vec::with_capacity(active.len());
        let mut col = dst_rect.col0;
        for p in &active {
            let inter = &p.inter_dst;
            assert_eq!(inter.col0, col, "pieces overlap or leave a gap");
            col = inter.col_end();
            let (i0, j0) = match op {
                GemmOp::NoTrans => (top - p.src_rect.row0, inter.col0 - p.src_rect.col0),
                // dst (r, c) = X (c, r)
                GemmOp::Trans => (inter.col0 - p.src_rect.row0, top - p.src_rect.col0),
            };
            segs.push(Segment {
                from: p.from,
                si: p.si,
                i0,
                j0,
                len: inter.cols,
            });
        }
        assert_eq!(col, dst_rect.col_end(), "pieces do not reach the edge");
        bands.push(Band {
            rows: bottom - top,
            segs,
        });
    }
    bands
}

/// A full redistribution plan: every rank's [`RankRedistPlan`] for one
/// `(src, dst, op)` triple. Built once (outside the parallel region, like a
/// [`Layout`]) and shared by all rank threads.
#[derive(Clone, Debug)]
pub struct RedistPlan {
    per_rank: Vec<RankRedistPlan>,
}

impl RedistPlan {
    /// Precomputes the program of every rank.
    pub fn new(src: &Layout, dst: &Layout, op: GemmOp) -> Self {
        RedistPlan {
            per_rank: (0..src.nranks())
                .map(|me| RankRedistPlan::new(src, dst, op, me))
                .collect(),
        }
    }

    /// Rank `me`'s program.
    pub fn for_rank(&self, me: usize) -> &RankRedistPlan {
        &self.per_rank[me]
    }

    /// Number of ranks the plan spans.
    pub fn nranks(&self) -> usize {
        self.per_rank.len()
    }
}

/// What a rank hands each reader: a handle on all of its source blocks,
/// charged as the bytes of the pieces that reader gathers from them.
struct SharedBlocks<T: Scalar> {
    blocks: Arc<Vec<Mat<T>>>,
    nbytes: usize,
}

impl<T: Scalar> Payload for SharedBlocks<T> {
    fn nbytes(&self) -> usize {
        self.nbytes
    }
}

/// Blocking façade over [`redistribute_planned_async`], kept for the frozen
/// benchmark until item 7 (ROADMAP.md). Panics on a virtual rank.
pub fn redistribute_planned<T: Scalar>(
    comm: &Comm,
    ctx: &RankCtx,
    plan: &RankRedistPlan,
    src_blocks: &[Mat<T>],
) -> Vec<Mat<T>> {
    ctx.block_on(redistribute_planned_async(comm, ctx, plan, src_blocks))
}

/// Moves a distributed matrix from the plan's `src` layout (describing
/// `X`) to its `dst` layout (describing `op(X)`), applying the transpose
/// while gathering when `op == Trans`. Collective over `comm` (which must
/// span the plan's rank count); every rank passes its local blocks (one
/// [`Mat`] per owned rectangle of `src`, in order) and receives its local
/// blocks of `dst`. No rectangle intersection is recomputed. The borrowed
/// blocks are cloned once so the peers can read them.
///
/// # Panics
/// If the communicator size or the local blocks disagree with the plan.
pub async fn redistribute_planned_async<T: Scalar>(
    comm: &Comm,
    ctx: &RankCtx,
    plan: &RankRedistPlan,
    src_blocks: &[Mat<T>],
) -> Vec<Mat<T>> {
    let shared = share(comm, ctx, plan, src_blocks.to_vec());
    gather_shared(shared, comm, ctx, plan).await
}

/// First half of the engine: hands `src_blocks` to every rank that reads
/// from them. Nothing is received yet, so a second exchange can be posted
/// behind this one.
fn share<T: Scalar>(
    comm: &Comm,
    ctx: &RankCtx,
    plan: &RankRedistPlan,
    src_blocks: Vec<Mat<T>>,
) -> PostedExchange<SharedBlocks<T>> {
    assert_eq!(
        plan.nranks,
        comm.size(),
        "plan rank count != communicator size"
    );
    assert_eq!(
        src_blocks.len(),
        plan.src_rects.len(),
        "one local block per owned src rect required"
    );
    for (b, r) in src_blocks.iter().zip(&plan.src_rects) {
        assert_eq!(b.shape(), (r.rows, r.cols), "local block shape mismatch");
    }
    let src_blocks = Arc::new(src_blocks);
    let sends = plan
        .readers
        .iter()
        .map(|&(peer, elems)| {
            let handle = SharedBlocks {
                blocks: Arc::clone(&src_blocks),
                nbytes: elems * T::WIRE_BYTES,
            };
            (peer, handle)
        })
        .collect();
    neighbor_alltoallv_post(comm, ctx, sends)
}

/// Second half: receives the blocks of this rank's sources and gathers its
/// destination blocks out of them.
async fn gather_shared<T: Scalar>(
    shared: PostedExchange<SharedBlocks<T>>,
    comm: &Comm,
    ctx: &RankCtx,
    plan: &RankRedistPlan,
) -> Vec<Mat<T>> {
    let recvs = shared.complete(comm, ctx, &plan.sources).await;
    let sources: Vec<&[Mat<T>]> = recvs.iter().map(|m| m.blocks.as_slice()).collect();
    plan.dst_blocks
        .iter()
        .map(|block| gather(block, plan.op, &sources))
        .collect()
}

/// Builds one destination block row by row, appending each row's segments
/// left to right. A zero-sized element (`dense::Shape64`) has nothing to
/// copy: its block is only its shape, whatever the op, so a shape-only
/// redistribution costs its messages, not its rows × segments, in every
/// build. The branch is a compile-time constant, so `f64`/`f32` code is
/// unchanged.
fn gather<T: Scalar>(block: &DstBlock, op: GemmOp, sources: &[&[Mat<T>]]) -> Mat<T> {
    let Rect { rows, cols, .. } = block.rect;
    if std::mem::size_of::<T>() == 0 {
        return Mat::zeros(rows, cols);
    }
    let mut data = Vec::with_capacity(rows * cols);
    for band in &block.bands {
        for r in 0..band.rows {
            for seg in &band.segs {
                let src = &sources[seg.from][seg.si];
                match op {
                    GemmOp::NoTrans => {
                        data.extend_from_slice(&src.row(seg.i0 + r)[seg.j0..seg.j0 + seg.len]);
                    }
                    GemmOp::Trans => {
                        let first = seg.i0 * src.cols() + seg.j0 + r;
                        data.extend(
                            src.as_slice()[first..]
                                .iter()
                                .step_by(src.cols())
                                .take(seg.len),
                        );
                    }
                }
            }
        }
    }
    assert_eq!(data.len(), rows * cols, "pieces do not tile the block");
    Mat::from_vec(rows, cols, data)
}

/// Algorithm 1 steps 4 and 8 around a native-layout multiply, shared by
/// every algorithm (the paper's unified view: they differ only in the native
/// layouts and in what happens between the two redistributions).
/// Redistributes this rank's blocks of the stored `A` and `B` into the
/// algorithm's native layouts (each rank owns at most one native block),
/// hands them to `multiply_native`, and redistributes the native `C` block it
/// returns — `None` on ranks that own none — into the caller's layout. The
/// `A` and `B` exchanges share one epoch: both are posted before either is
/// completed. All three operands are moved into their exchange and freed
/// when their last reader is done with them.
/// Collective over `world`; both redistribution steps are labelled `"redist"`.
pub async fn multiply_planned<T: Scalar>(
    world: &Comm,
    ctx: &RankCtx,
    (redist_a, a_blocks): (&RankRedistPlan, Vec<Mat<T>>),
    (redist_b, b_blocks): (&RankRedistPlan, Vec<Mat<T>>),
    redist_c: &RankRedistPlan,
    multiply_native: impl AsyncFnOnce(Option<Mat<T>>, Option<Mat<T>>) -> Option<Mat<T>>,
) -> Vec<Mat<T>> {
    ctx.set_phase("redist");
    let a_shared = share(world, ctx, redist_a, a_blocks);
    let b_shared = share(world, ctx, redist_b, b_blocks);
    let a_local = gather_shared(a_shared, world, ctx, redist_a).await;
    let b_local = gather_shared(b_shared, world, ctx, redist_b).await;
    let (a, b) = (a_local.into_iter().next(), b_local.into_iter().next());
    let c_native = multiply_native(a, b).await;
    ctx.set_phase("redist");
    let c_blocks: Vec<Mat<T>> = c_native.into_iter().filter(|m| !m.is_empty()).collect();
    let c_shared = share(world, ctx, redist_c, c_blocks);
    gather_shared(c_shared, world, ctx, redist_c).await
}

/// The overlap of a destination rectangle (in `op(X)` coordinates) with a
/// source rectangle (in `X` coordinates), expressed in destination
/// coordinates.
fn intersect_in_dst(dst_rect: &Rect, src_rect: &Rect, op: GemmOp) -> Option<Rect> {
    let src_in_dst = match op {
        GemmOp::NoTrans => *src_rect,
        GemmOp::Trans => src_rect.transposed(),
    };
    dst_rect.intersect(&src_in_dst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dense::random::random_mat;
    use msgpass::World;

    /// End-to-end check: distribute a random global matrix in `src`,
    /// redistribute to `dst` with `op`, and compare with extracting `dst`
    /// from the (possibly transposed) global matrix.
    fn check(rows: usize, cols: usize, p: usize, src: Layout, dst: Layout, op: GemmOp) {
        let global = random_mat::<f64>(rows, cols, 1234);
        let expect_global = match op {
            GemmOp::NoTrans => global.clone(),
            GemmOp::Trans => global.transpose(),
        };
        let results = World::run(p, async |ctx| {
            let comm = Comm::world(ctx);
            let mine = src.extract(&global, comm.rank());
            let plan = RankRedistPlan::new(&src, &dst, op, comm.rank());
            redistribute_planned_async(&comm, ctx, &plan, &mine).await
        });
        for (rank, got) in results.iter().enumerate() {
            let want = dst.extract(&expect_global, rank);
            assert_eq!(got.len(), want.len(), "rank {rank} block count");
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.max_abs_diff(w), 0.0, "rank {rank}");
            }
        }
    }

    #[test]
    fn col_to_row() {
        check(
            9,
            7,
            4,
            Layout::one_d_col(9, 7, 4),
            Layout::one_d_row(9, 7, 4),
            GemmOp::NoTrans,
        );
    }

    #[test]
    fn col_to_two_d() {
        check(
            12,
            10,
            6,
            Layout::one_d_col(12, 10, 6),
            Layout::two_d_block(12, 10, 2, 3),
            GemmOp::NoTrans,
        );
    }

    #[test]
    fn block_cyclic_to_block() {
        check(
            11,
            13,
            4,
            Layout::block_cyclic(11, 13, 2, 2, 3, 2),
            Layout::two_d_block(11, 13, 2, 2),
            GemmOp::NoTrans,
        );
    }

    #[test]
    fn identity_redistribution() {
        let l = Layout::two_d_block(8, 8, 2, 2);
        check(8, 8, 4, l.clone(), l, GemmOp::NoTrans);
    }

    #[test]
    fn transpose_col_to_col() {
        check(
            9,
            5,
            3,
            Layout::one_d_col(9, 5, 3),
            Layout::one_d_col(5, 9, 3),
            GemmOp::Trans,
        );
    }

    #[test]
    fn transpose_to_two_d() {
        check(
            7,
            12,
            6,
            Layout::one_d_row(7, 12, 6),
            Layout::two_d_block(12, 7, 3, 2),
            GemmOp::Trans,
        );
    }

    #[test]
    fn gather_to_single_rank() {
        check(
            6,
            6,
            4,
            Layout::two_d_block(6, 6, 2, 2),
            Layout::on_single_rank(6, 6, 4, 3),
            GemmOp::NoTrans,
        );
    }

    #[test]
    fn scatter_from_single_rank_with_transpose() {
        check(
            6,
            4,
            4,
            Layout::on_single_rank(6, 4, 4, 0),
            Layout::one_d_col(4, 6, 4),
            GemmOp::Trans,
        );
    }

    #[test]
    fn empty_ranks_participate() {
        // 5 ranks but only 2 columns: ranks 2..4 own nothing in src
        check(
            4,
            2,
            5,
            Layout::one_d_col(4, 2, 5),
            Layout::one_d_row(4, 2, 5),
            GemmOp::NoTrans,
        );
    }

    #[test]
    fn redistribution_traffic_excludes_local_data() {
        // identity redistribution must move zero bytes
        let l = Layout::one_d_col(8, 8, 4);
        let global = random_mat::<f64>(8, 8, 7);
        let (_, report) = World::run_traced(4, async |ctx| {
            let comm = Comm::world(ctx);
            ctx.set_phase("redist");
            let mine = l.extract(&global, comm.rank());
            let plan = RankRedistPlan::new(&l, &l, GemmOp::NoTrans, comm.rank());
            redistribute_planned_async(&comm, ctx, &plan, &mine).await
        });
        assert_eq!(report.phase_total("redist").bytes, 0);
    }
}
