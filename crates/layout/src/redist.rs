//! Redistribution between arbitrary layouts (Algorithm 1 steps 4 and 8).
//!
//! Two entry points share one engine: [`redistribute`] computes the
//! rectangle intersections on the fly (one-shot calls), while a
//! [`RedistPlan`] precomputes them once per `(src, dst, op)` triple so an
//! iterative caller — or the `ca3dmm-serve` plan cache — pays the geometry
//! only on the first multiply of a shape. Both paths pack, exchange, and
//! unpack in exactly the same order, so their results are bitwise
//! identical.

use crate::dist::Layout;
use dense::gemm::GemmOp;
use dense::part::Rect;
use dense::{Mat, Scalar};
use msgpass::collectives::alltoallv;
use msgpass::{Comm, RankCtx};

/// One packing step of a rank's send program: copy the `inter_dst` region
/// (destination coordinates) out of local source block `si`.
#[derive(Clone, Debug)]
struct SendPiece {
    si: usize,
    src_rect: Rect,
    inter_dst: Rect,
}

/// One unpacking step of a rank's receive program: fill the `inter_dst`
/// region of local destination block `di`.
#[derive(Clone, Debug)]
struct RecvPiece {
    di: usize,
    inter_dst: Rect,
}

/// One rank's precomputed redistribution program for a fixed
/// `(src, dst, op)` triple: which pieces it packs for every peer and which
/// pieces it unpacks from every peer, in the exact order [`redistribute`]
/// would compute them on the fly.
#[derive(Clone, Debug)]
pub struct RankRedistPlan {
    op: GemmOp,
    nranks: usize,
    /// This rank's source rectangles (for validating the caller's blocks).
    src_rects: Vec<Rect>,
    /// This rank's destination rectangles (allocation shapes of the output).
    dst_rects: Vec<Rect>,
    /// Per peer: the pieces packed into the buffer sent to that peer.
    sends: Vec<Vec<SendPiece>>,
    /// Per peer: the pieces unpacked from the buffer received from it.
    recvs: Vec<Vec<RecvPiece>>,
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
        // Send side: for each peer, intersections in (dst rect index,
        // src rect index) order — the wire order both sides agree on.
        let sends = (0..p)
            .map(|peer| {
                let mut pieces = Vec::new();
                for dst_rect in dst.owned(peer) {
                    for (si, src_rect) in src.owned(me).iter().enumerate() {
                        if let Some(inter_dst) = intersect_in_dst(dst_rect, src_rect, op) {
                            pieces.push(SendPiece {
                                si,
                                src_rect: *src_rect,
                                inter_dst,
                            });
                        }
                    }
                }
                pieces
            })
            .collect();
        // Receive side: the mirror image, per source peer.
        let recvs = (0..p)
            .map(|peer| {
                let mut pieces = Vec::new();
                for (di, dst_rect) in dst.owned(me).iter().enumerate() {
                    for src_rect in src.owned(peer) {
                        if let Some(inter_dst) = intersect_in_dst(dst_rect, src_rect, op) {
                            pieces.push(RecvPiece { di, inter_dst });
                        }
                    }
                }
                pieces
            })
            .collect();
        RankRedistPlan {
            op,
            nranks: p,
            src_rects: src.owned(me).to_vec(),
            dst_rects: dst.owned(me).to_vec(),
            sends,
            recvs,
        }
    }

    /// Total elements this rank packs (bytes on the wire / element size).
    pub fn send_elems(&self) -> usize {
        self.sends
            .iter()
            .flatten()
            .map(|piece| piece.inter_dst.area())
            .sum()
    }
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

/// Executes a precomputed redistribution program. Collective over `comm`
/// (which must span the plan's rank count); semantically identical to
/// [`redistribute`] on the layouts the plan was built from, without
/// recomputing any rectangle intersection.
///
/// # Panics
/// If the local blocks disagree with the plan's source rectangles.
pub fn redistribute_planned<T: Scalar>(
    comm: &Comm,
    ctx: &RankCtx,
    plan: &RankRedistPlan,
    src_blocks: &[Mat<T>],
) -> Vec<Mat<T>> {
    let p = comm.size();
    assert_eq!(plan.nranks, p, "plan rank count != communicator size");
    assert_eq!(
        src_blocks.len(),
        plan.src_rects.len(),
        "one local block per owned src rect required"
    );
    for (b, r) in src_blocks.iter().zip(&plan.src_rects) {
        assert_eq!(b.shape(), (r.rows, r.cols), "local block shape mismatch");
    }

    // Pack each peer's buffer following the precomputed program.
    let mut sends: Vec<Vec<T>> = Vec::with_capacity(p);
    for pieces in &plan.sends {
        let mut buf = Vec::new();
        for piece in pieces {
            pack(
                &mut buf,
                &src_blocks[piece.si],
                &piece.src_rect,
                &piece.inter_dst,
                plan.op,
            );
        }
        sends.push(buf);
    }

    let recvs = alltoallv(comm, ctx, sends);

    // Unpack: mirror of the packing order, per source rank.
    let mut out: Vec<Mat<T>> = plan
        .dst_rects
        .iter()
        .map(|r| Mat::zeros(r.rows, r.cols))
        .collect();
    for (peer, buf) in recvs.iter().enumerate() {
        let mut pos = 0usize;
        for piece in &plan.recvs[peer] {
            pos = unpack(
                &mut out[piece.di],
                &plan.dst_rects[piece.di],
                &piece.inter_dst,
                buf,
                pos,
            );
        }
        assert_eq!(pos, buf.len(), "unconsumed bytes from rank {peer}");
    }
    out
}

/// Moves a distributed matrix from `src` (describing `X`) to `dst`
/// (describing `op(X)`), applying the transpose during packing when
/// `op == Trans`. Collective over `comm`; every rank passes its local
/// blocks (one [`Mat`] per owned rectangle of `src`, in order) and receives
/// its local blocks of the destination layout.
///
/// This is the paper's pack → `MPI_Neighbor_alltoallv` → unpack subroutine
/// (§III-F); it is deliberately unoptimized, as in the artifact. Internally
/// it builds this rank's [`RankRedistPlan`] on the fly and executes it, so
/// it is bitwise identical to the planned path.
///
/// # Panics
/// On shape mismatches between the layouts, the communicator, and the local
/// blocks.
pub fn redistribute<T: Scalar>(
    comm: &Comm,
    ctx: &RankCtx,
    src: &Layout,
    src_blocks: &[Mat<T>],
    dst: &Layout,
    op: GemmOp,
) -> Vec<Mat<T>> {
    let plan = RankRedistPlan::new(src, dst, op, comm.rank());
    redistribute_planned(comm, ctx, &plan, src_blocks)
}

/// Algorithm 1 steps 4 and 8 around a native-layout multiply, shared by
/// every algorithm (the paper's unified view: they differ only in the native
/// layouts and in what happens between the two redistributions).
/// Redistributes this rank's blocks of the stored `A` and `B` into the
/// algorithm's native layouts (each rank owns at most one native block),
/// hands them to `multiply_native`, and redistributes the native `C` block it
/// returns — `None` on ranks that own none — into the caller's layout.
/// Collective over `world`; both redistribution steps are labelled `"redist"`.
pub fn multiply_planned<T: Scalar>(
    world: &Comm,
    ctx: &RankCtx,
    (redist_a, a_blocks): (&RankRedistPlan, &[Mat<T>]),
    (redist_b, b_blocks): (&RankRedistPlan, &[Mat<T>]),
    redist_c: &RankRedistPlan,
    multiply_native: impl FnOnce(Option<Mat<T>>, Option<Mat<T>>) -> Option<Mat<T>>,
) -> Vec<Mat<T>> {
    ctx.set_phase("redist");
    let a_local = redistribute_planned(world, ctx, redist_a, a_blocks);
    let b_local = redistribute_planned(world, ctx, redist_b, b_blocks);
    let c_native = multiply_native(a_local.into_iter().next(), b_local.into_iter().next());
    ctx.set_phase("redist");
    let c_blocks: Vec<Mat<T>> = c_native.into_iter().filter(|m| !m.is_empty()).collect();
    redistribute_planned(world, ctx, redist_c, &c_blocks)
}

/// [`multiply_planned`] for one-shot callers: `a` and `b` are
/// `(op, layout of the stored matrix, this rank's blocks)`, `native` the
/// algorithm's `[A, B, C]` layouts; this rank's three redistribution
/// programs are computed on the fly.
///
/// # Panics
/// On shape or rank-count mismatches between the layouts and `world`.
pub fn multiply_in_layouts<T: Scalar>(
    world: &Comm,
    ctx: &RankCtx,
    (op_a, a_layout, a_blocks): (GemmOp, &Layout, &[Mat<T>]),
    (op_b, b_layout, b_blocks): (GemmOp, &Layout, &[Mat<T>]),
    c_layout: &Layout,
    [native_a, native_b, native_c]: [&Layout; 3],
    multiply_native: impl FnOnce(Option<Mat<T>>, Option<Mat<T>>) -> Option<Mat<T>>,
) -> Vec<Mat<T>> {
    let me = world.rank();
    multiply_planned(
        world,
        ctx,
        (&RankRedistPlan::new(a_layout, native_a, op_a, me), a_blocks),
        (&RankRedistPlan::new(b_layout, native_b, op_b, me), b_blocks),
        &RankRedistPlan::new(native_c, c_layout, GemmOp::NoTrans, me),
        multiply_native,
    )
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

/// Serializes `inter_dst` (destination coordinates) row-major, reading from
/// the local block that stores `src_rect`.
fn pack<T: Scalar>(
    buf: &mut Vec<T>,
    block: &Mat<T>,
    src_rect: &Rect,
    inter_dst: &Rect,
    op: GemmOp,
) {
    buf.reserve(inter_dst.area());
    match op {
        GemmOp::NoTrans => {
            for r in 0..inter_dst.rows {
                let li = inter_dst.row0 + r - src_rect.row0;
                let lj = inter_dst.col0 - src_rect.col0;
                let row = &block.row(li)[lj..lj + inter_dst.cols];
                buf.extend_from_slice(row);
            }
        }
        GemmOp::Trans => {
            // dst (r, c) = X (c, r)
            for r in 0..inter_dst.rows {
                for c in 0..inter_dst.cols {
                    let xi = inter_dst.col0 + c - src_rect.row0;
                    let xj = inter_dst.row0 + r - src_rect.col0;
                    buf.push(block.get(xi, xj));
                }
            }
        }
    }
}

/// Deserializes one intersection back into the local destination block;
/// returns the advanced cursor.
fn unpack<T: Scalar>(
    block: &mut Mat<T>,
    dst_rect: &Rect,
    inter_dst: &Rect,
    buf: &[T],
    mut pos: usize,
) -> usize {
    for r in 0..inter_dst.rows {
        let li = inter_dst.row0 + r - dst_rect.row0;
        let lj = inter_dst.col0 - dst_rect.col0;
        let n = inter_dst.cols;
        let dst_row_start = li * dst_rect.cols + lj;
        block.as_mut_slice()[dst_row_start..dst_row_start + n].copy_from_slice(&buf[pos..pos + n]);
        pos += n;
    }
    pos
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
        let results = World::run(p, |ctx| {
            let comm = Comm::world(ctx);
            let mine = src.extract(&global, comm.rank());
            redistribute(&comm, ctx, &src, &mine, &dst, op)
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
    fn planned_path_is_bitwise_identical_to_direct() {
        // The daemon's plan cache depends on this: a precomputed
        // RedistPlan must produce exactly the bytes the on-the-fly path
        // produces, block for block.
        let (rows, cols, p) = (11, 13, 5);
        let src = Layout::one_d_col(rows, cols, p);
        let dst = Layout::two_d_block(cols, rows, 5, 1);
        let op = GemmOp::Trans;
        let plan = RedistPlan::new(&src, &dst, op);
        assert_eq!(plan.nranks(), p);
        let global = random_mat::<f64>(rows, cols, 99);
        let direct = World::run(p, |ctx| {
            let comm = Comm::world(ctx);
            let mine = src.extract(&global, comm.rank());
            redistribute(&comm, ctx, &src, &mine, &dst, op)
        });
        let planned = World::run(p, |ctx| {
            let comm = Comm::world(ctx);
            let mine = src.extract(&global, comm.rank());
            redistribute_planned(&comm, ctx, plan.for_rank(comm.rank()), &mine)
        });
        for (rank, (d, pl)) in direct.iter().zip(&planned).enumerate() {
            assert_eq!(d.len(), pl.len(), "rank {rank} block count");
            for (a, b) in d.iter().zip(pl) {
                assert_eq!(a.as_slice(), b.as_slice(), "rank {rank} differs");
            }
        }
    }

    #[test]
    fn redistribution_traffic_excludes_local_data() {
        // identity redistribution must move zero bytes
        let l = Layout::one_d_col(8, 8, 4);
        let global = random_mat::<f64>(8, 8, 7);
        let (_, report) = World::run_traced(4, |ctx| {
            let comm = Comm::world(ctx);
            ctx.set_phase("redist");
            let mine = l.extract(&global, comm.rank());
            redistribute(&comm, ctx, &l, &mine, &l, GemmOp::NoTrans)
        });
        assert_eq!(report.phase_total("redist").bytes, 0);
    }
}
