//! SUMMA and the CA3DMM-S variant (§III-E).
//!
//! The paper argues for Cannon over SUMMA inside the k-task groups by a
//! latency comparison (`L_SUMMA − L ≥ (pm−1)log₂pm + pm² − 2pm ≥ 0`) and
//! keeps SUMMA as the "conventional choice" baseline. This module provides:
//!
//! * [`summa`] — the SUMMA kernel on a `pr × pc` grid: panel broadcasts of
//!   `A` along grid rows and `B` along grid columns with a stationary `C`;
//! * [`Ca3dmmSumma`] — CA3DMM with SUMMA replacing Cannon in each k-task
//!   group (the paper's hypothetical CA3DMM-S, §III-E): no eq. 7
//!   constraint, no replication step, same reduce-scatter. Built as an
//!   ablation target.

use crate::reduce::reduce_partial_c;
use dense::gemm::{gemm, GemmOp};
use dense::part::{even_range, offsets, split_even, Rect};
use dense::{Mat, Scalar};
use gridopt::{cosma_grid, Grid, Problem};
use layout::Layout;
use msgpass::collectives::bcast_large;
use msgpass::{Comm, RankCtx};

/// SUMMA on a `pr × pc` grid (stationary C).
///
/// * `row_comm` connects the ranks of one grid row, ordered by column
///   (size `pc`, this rank at index `j`);
/// * `col_comm` connects one grid column, ordered by row (size `pr`, this
///   rank at index `i`);
/// * `a_blk` is this rank's `(m_i × ka_j)` block of `A`, where the
///   k-dimension is split `pc` ways for `A`;
/// * `b_blk` is the `(kb_i × n_j)` block of `B`, k split `pr` ways.
///
/// Panels are the refinement of the two k-partitions, so `pr` and `pc` may
/// be arbitrary (and k need not divide either). The product is accumulated
/// into `c_out`.
pub fn summa<T: Scalar>(
    ctx: &RankCtx,
    row_comm: &Comm,
    col_comm: &Comm,
    k_total: usize,
    a_blk: &Mat<T>,
    b_blk: &Mat<T>,
    c_out: &mut Mat<T>,
) {
    let pc = row_comm.size();
    let pr = col_comm.size();
    let j = row_comm.rank();
    let i = col_comm.rank();
    let a_offs = offsets(&split_even(k_total, pc));
    let b_offs = offsets(&split_even(k_total, pr));
    assert_eq!(a_blk.cols(), a_offs[j + 1] - a_offs[j], "A block k-width");
    assert_eq!(b_blk.rows(), b_offs[i + 1] - b_offs[i], "B block k-height");

    // Fine panels: union of both partitions' boundaries.
    let mut bounds: Vec<usize> = a_offs.iter().chain(b_offs.iter()).copied().collect();
    bounds.sort_unstable();
    bounds.dedup();

    let owner = |offs: &[usize], k0: usize| -> usize {
        // index of the part whose [start, end) contains k0
        match offs.binary_search(&k0) {
            Ok(idx) => idx.min(offs.len() - 2),
            Err(idx) => idx - 1,
        }
    };

    for w in bounds.windows(2) {
        let (k0, k1) = (w[0], w[1]);
        if k0 == k1 {
            continue;
        }
        // Broadcast the A panel within the grid row (every member of the
        // row has the same block height, so the panel shape is known
        // locally and the large-message scatter+allgather broadcast — the
        // one `T_broadcast` prices — applies).
        let ca = owner(&a_offs, k0);
        let a_panel = {
            let mine = (ca == j).then(|| {
                let local = Rect::new(0, k0 - a_offs[j], a_blk.rows(), k1 - k0);
                a_blk.block(local).into_vec()
            });
            let data = bcast_large(row_comm, ctx, ca, mine, a_blk.rows() * (k1 - k0));
            Mat::from_vec(a_blk.rows(), k1 - k0, data)
        };
        // Broadcast the B panel within the grid column.
        let rb = owner(&b_offs, k0);
        let b_panel = {
            let mine = (rb == i).then(|| {
                let local = Rect::new(k0 - b_offs[i], 0, k1 - k0, b_blk.cols());
                b_blk.block(local).into_vec()
            });
            let data = bcast_large(col_comm, ctx, rb, mine, (k1 - k0) * b_blk.cols());
            Mat::from_vec(k1 - k0, b_blk.cols(), data)
        };
        gemm(
            GemmOp::NoTrans,
            GemmOp::NoTrans,
            T::ONE,
            &a_panel,
            &b_panel,
            T::ONE,
            c_out,
        );
    }
}

/// CA3DMM-S: the §III-E variant with SUMMA inside each k-task group.
///
/// Rank order: `world = kt·(pm·pn) + i + j·pm` (column-major 2D grids,
/// contiguous k-task groups). No Cannon groups exist, so eq. 7 is not
/// required and the grid comes from the unconstrained search.
pub struct Ca3dmmSumma {
    prob: Problem,
    grid: Grid,
}

impl Ca3dmmSumma {
    /// Chooses the (unconstrained) grid and builds the geometry.
    pub fn new(prob: Problem, grid_override: Option<Grid>) -> Self {
        let grid = grid_override
            .unwrap_or_else(|| cosma_grid(&prob, gridopt::DEFAULT_UTILIZATION_FLOOR).grid);
        assert!(grid.active() <= prob.p, "grid exceeds P");
        Ca3dmmSumma { prob, grid }
    }

    /// The grid in use.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// Grid position `(i, j, kt)` of a world rank; `None` for idle ranks.
    fn active_coord(&self, world_rank: usize) -> Option<(usize, usize, usize)> {
        let per_kt = self.grid.pm * self.grid.pn;
        let r = world_rank % per_kt;
        (world_rank < self.grid.active())
            .then(|| (r % self.grid.pm, r / self.grid.pm, world_rank / per_kt))
    }

    fn k_outer(&self, kt: usize) -> (usize, usize) {
        even_range(self.prob.k, self.grid.pk, kt)
    }

    /// Native layout of `A` (`m × k`): block `(m_i, ka_j)` inside k-task
    /// group `kt`'s k-range, split `pn` ways.
    pub fn layout_a(&self) -> Layout {
        Layout::one_rect_per_rank(self.prob.m, self.prob.k, self.prob.p, |r| {
            let (i, j, kt) = self.active_coord(r)?;
            let (r0, r1) = even_range(self.prob.m, self.grid.pm, i);
            let (ks, ke) = self.k_outer(kt);
            let (a, b) = even_range(ke - ks, self.grid.pn, j);
            Some(Rect::new(r0, ks + a, r1 - r0, b - a))
        })
    }

    /// Native layout of `B` (`k × n`): block `(kb_i, n_j)`, k split `pm`
    /// ways inside the group's range.
    pub fn layout_b(&self) -> Layout {
        Layout::one_rect_per_rank(self.prob.k, self.prob.n, self.prob.p, |r| {
            let (i, j, kt) = self.active_coord(r)?;
            let (ks, ke) = self.k_outer(kt);
            let (a, b) = even_range(ke - ks, self.grid.pm, i);
            let (c0, c1) = even_range(self.prob.n, self.grid.pn, j);
            Some(Rect::new(ks + a, c0, b - a, c1 - c0))
        })
    }

    /// Native output layout of `C`: row-strip `kt` of block `(m_i, n_j)`.
    pub fn layout_c(&self) -> Layout {
        Layout::one_rect_per_rank(self.prob.m, self.prob.n, self.prob.p, |r| {
            let (i, j, kt) = self.active_coord(r)?;
            let (r0, r1) = even_range(self.prob.m, self.grid.pm, i);
            let (c0, c1) = even_range(self.prob.n, self.grid.pn, j);
            let (o0, o1) = even_range(r1 - r0, self.grid.pk, kt);
            Some(Rect::new(r0 + o0, c0, o1 - o0, c1 - c0))
        })
    }

    /// The full pipeline (Algorithm 1 with SUMMA inside the k-task
    /// groups): redistribute from the caller's layouts, multiply,
    /// redistribute `C` out — mirroring [`crate::Ca3dmm::multiply`].
    #[allow(clippy::too_many_arguments)]
    pub fn multiply<T: Scalar>(
        &self,
        ctx: &RankCtx,
        world: &Comm,
        op_a: GemmOp,
        a_layout: &layout::Layout,
        a_blocks: &[Mat<T>],
        op_b: GemmOp,
        b_layout: &layout::Layout,
        b_blocks: &[Mat<T>],
        c_layout: &layout::Layout,
    ) -> Vec<Mat<T>> {
        layout::multiply_in_layouts(
            world,
            ctx,
            (op_a, a_layout, a_blocks),
            (op_b, b_layout, b_blocks),
            c_layout,
            [&self.layout_a(), &self.layout_b(), &self.layout_c()],
            |a, b| self.multiply_native(ctx, world, a, b),
        )
    }

    /// Steps 5–7 with SUMMA: native-layout multiply. Collective over
    /// `world`; idle ranks pass `None`.
    pub fn multiply_native<T: Scalar>(
        &self,
        ctx: &RankCtx,
        world: &Comm,
        a_init: Option<Mat<T>>,
        b_init: Option<Mat<T>>,
    ) -> Option<Mat<T>> {
        let (pm, pn, pk) = (self.grid.pm, self.grid.pn, self.grid.pk);

        // Row comms: same (i, kt), j varies. Column comms: same (j, kt).
        let row_groups: Vec<Vec<usize>> = (0..pk)
            .flat_map(|kt| {
                (0..pm).map(move |i| {
                    (0..pn)
                        .map(|j| kt * pm * pn + i + j * pm)
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let row_comm = world.subgroup(ctx, &row_groups);
        let col_groups: Vec<Vec<usize>> = (0..pk)
            .flat_map(|kt| {
                (0..pn).map(move |j| {
                    (0..pm)
                        .map(|i| kt * pm * pn + i + j * pm)
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let col_comm = world.subgroup(ctx, &col_groups);
        let reduce_groups: Vec<Vec<usize>> = (0..pm * pn)
            .map(|idx| (0..pk).map(|kt| kt * pm * pn + idx).collect())
            .collect();
        let reduce_comm = world.subgroup(ctx, &reduce_groups);

        let (i, j, kt) = self.active_coord(world.rank())?;
        let (ks, ke) = self.k_outer(kt);
        let kb = ke - ks;
        let (r0, r1) = even_range(self.prob.m, pm, i);
        let (c0, c1) = even_range(self.prob.n, pn, j);
        let (ka0, ka1) = even_range(kb, pn, j);
        let (kb0, kb1) = even_range(kb, pm, i);
        let a_blk = a_init.unwrap_or_else(|| Mat::zeros(r1 - r0, ka1 - ka0));
        let b_blk = b_init.unwrap_or_else(|| Mat::zeros(kb1 - kb0, c1 - c0));
        assert_eq!(a_blk.shape(), (r1 - r0, ka1 - ka0), "A block shape");
        assert_eq!(b_blk.shape(), (kb1 - kb0, c1 - c0), "B block shape");

        ctx.set_phase("summa_bcast");
        let mut c_partial = Mat::zeros(r1 - r0, c1 - c0);
        summa(
            ctx,
            row_comm.as_ref().expect("active rank has a row comm"),
            col_comm.as_ref().expect("active rank has a col comm"),
            kb,
            &a_blk,
            &b_blk,
            &mut c_partial,
        );

        ctx.set_phase("reduce_c");
        Some(reduce_partial_c(
            ctx,
            reduce_comm.as_ref().expect("active rank has a reduce comm"),
            c_partial,
            msgpass::collectives::Collectives::Flat,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dense::gemm::gemm_naive;
    use dense::random::global_block;
    use dense::testing::assert_gemm_close;
    use msgpass::World;

    fn check_summa_kernel(m: usize, n: usize, k: usize, pr: usize, pc: usize) {
        let results = World::run(pr * pc, |ctx| {
            let world = Comm::world(ctx);
            let me = world.rank();
            let (i, j) = (me % pr, me / pr);
            let row_groups: Vec<Vec<usize>> = (0..pr)
                .map(|ri| (0..pc).map(|cj| ri + cj * pr).collect())
                .collect();
            let col_groups: Vec<Vec<usize>> = (0..pc)
                .map(|cj| (0..pr).map(|ri| ri + cj * pr).collect())
                .collect();
            let row_comm = world.subgroup(ctx, &row_groups).unwrap();
            let col_comm = world.subgroup(ctx, &col_groups).unwrap();
            let (r0, r1) = even_range(m, pr, i);
            let (c0, c1) = even_range(n, pc, j);
            let (ka0, ka1) = even_range(k, pc, j);
            let (kb0, kb1) = even_range(k, pr, i);
            let a = global_block::<f64>(5, Rect::new(r0, ka0, r1 - r0, ka1 - ka0));
            let b = global_block::<f64>(6, Rect::new(kb0, c0, kb1 - kb0, c1 - c0));
            let mut c = Mat::zeros(r1 - r0, c1 - c0);
            summa(ctx, &row_comm, &col_comm, k, &a, &b, &mut c);
            (i, j, c)
        });
        let a_full = global_block::<f64>(5, Rect::new(0, 0, m, k));
        let b_full = global_block::<f64>(6, Rect::new(0, 0, k, n));
        let mut c_ref = Mat::zeros(m, n);
        gemm_naive(
            GemmOp::NoTrans,
            GemmOp::NoTrans,
            1.0,
            &a_full,
            &b_full,
            0.0,
            &mut c_ref,
        );
        for (i, j, c) in results {
            let (r0, r1) = even_range(m, pr, i);
            let (c0, c1) = even_range(n, pc, j);
            let want = c_ref.block(Rect::new(r0, c0, r1 - r0, c1 - c0));
            assert_gemm_close(&c, &want, k, &format!("summa ({i},{j})"));
        }
    }

    #[test]
    fn summa_square_grid() {
        check_summa_kernel(12, 12, 12, 2, 2);
    }

    #[test]
    fn summa_rect_grids() {
        check_summa_kernel(10, 14, 9, 2, 3);
        check_summa_kernel(14, 10, 9, 3, 2);
        check_summa_kernel(8, 8, 21, 1, 4);
        check_summa_kernel(8, 8, 21, 4, 1);
    }

    #[test]
    fn summa_uneven_k() {
        check_summa_kernel(7, 9, 17, 3, 2);
    }

    fn check_ca3dmm_s(m: usize, n: usize, k: usize, p: usize, grid: Option<Grid>) {
        let alg = Ca3dmmSumma::new(Problem::new(m, n, k, p), grid);
        let la = alg.layout_a();
        let lb = alg.layout_b();
        let lc = alg.layout_c();
        la.validate();
        lb.validate();
        lc.validate();
        let a_full = global_block::<f64>(7, Rect::new(0, 0, m, k));
        let b_full = global_block::<f64>(8, Rect::new(0, 0, k, n));
        let parts = World::run(p, |ctx| {
            let world = Comm::world(ctx);
            let me = world.rank();
            let a = la.extract(&a_full, me).into_iter().next();
            let b = lb.extract(&b_full, me).into_iter().next();
            let c = alg.multiply_native(ctx, &world, a, b);
            c.into_iter()
                .filter(|m: &Mat<f64>| !m.is_empty())
                .collect::<Vec<_>>()
        });
        let mut c_ref = Mat::zeros(m, n);
        gemm_naive(
            GemmOp::NoTrans,
            GemmOp::NoTrans,
            1.0,
            &a_full,
            &b_full,
            0.0,
            &mut c_ref,
        );
        let got = lc.assemble(&parts);
        assert_gemm_close(&got, &c_ref, k, &format!("ca3dmm-s {m}x{n}x{k} p={p}"));
    }

    #[test]
    fn ca3dmm_s_end_to_end() {
        check_ca3dmm_s(24, 20, 28, 16, None);
        check_ca3dmm_s(16, 16, 64, 12, None);
    }

    #[test]
    fn ca3dmm_s_forced_grids_including_non_eq7() {
        // 2x3 grids are illegal for Cannon (eq. 7) but fine for SUMMA.
        check_ca3dmm_s(14, 15, 16, 6, Some(Grid::new(2, 3, 1)));
        check_ca3dmm_s(14, 15, 16, 12, Some(Grid::new(2, 3, 2)));
    }

    #[test]
    fn ca3dmm_s_idle_ranks() {
        check_ca3dmm_s(12, 12, 12, 5, Some(Grid::new(2, 2, 1)));
    }

    #[test]
    fn ca3dmm_s_full_pipeline_with_transposes() {
        let (m, n, k, p) = (18usize, 14, 22, 8);
        for (op_a, op_b) in [
            (GemmOp::NoTrans, GemmOp::NoTrans),
            (GemmOp::Trans, GemmOp::Trans),
        ] {
            let (ar, ac) = match op_a {
                GemmOp::NoTrans => (m, k),
                GemmOp::Trans => (k, m),
            };
            let (br, bc) = match op_b {
                GemmOp::NoTrans => (k, n),
                GemmOp::Trans => (n, k),
            };
            let a_stored = global_block::<f64>(3, Rect::new(0, 0, ar, ac));
            let b_stored = global_block::<f64>(4, Rect::new(0, 0, br, bc));
            let la = Layout::one_d_col(ar, ac, p);
            let lb = Layout::one_d_row(br, bc, p);
            let lc = Layout::one_d_col(m, n, p);
            let alg = Ca3dmmSumma::new(Problem::new(m, n, k, p), None);
            let parts = World::run(p, |ctx| {
                let world = Comm::world(ctx);
                let me = world.rank();
                alg.multiply(
                    ctx,
                    &world,
                    op_a,
                    &la,
                    &la.extract(&a_stored, me),
                    op_b,
                    &lb,
                    &lb.extract(&b_stored, me),
                    &lc,
                )
            });
            let mut c_ref = Mat::zeros(m, n);
            gemm_naive(op_a, op_b, 1.0, &a_stored, &b_stored, 0.0, &mut c_ref);
            assert_gemm_close(&lc.assemble(&parts), &c_ref, k, "ca3dmm-s pipeline");
        }
    }
}
