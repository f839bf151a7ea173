//! SUMMA (van de Geijn & Watts \[14\]) as the inner 2D step: the
//! ScaLAPACK-style 2D baseline and the paper's CA3DMM-S variant (§III-E).
//!
//! * [`summa`] — the kernel on a `pr × pc` grid: panel broadcasts of `A`
//!   along grid rows and `B` along grid columns with a stationary `C`;
//! * [`Ca3dmmSumma`] — CA3DMM with SUMMA replacing Cannon in each k-task
//!   group: no eq. 7 constraint, no replication step, same reduce-scatter.
//!   The paper keeps it as the "conventional choice" it argues against by
//!   a latency comparison (`L_SUMMA − L ≥ (pm−1)log₂pm + pm² − 2pm ≥ 0`);
//! * [`SummaPgemm`] — its `pk = 1` instance on the `gridopt::summa_grid`:
//!   2D-block-distributed A, B, C, no k-parallelism. SUMMA "cannot utilize
//!   extra memory to reduce communication costs" (§I).

use ca3dmm::charged_gemm;
use ca3dmm::grid3d::{Family, Grid3d};
use dense::part::{offsets, split_even, Rect};
use dense::{Mat, Scalar};
use gridopt::{cosma_grid, summa_grid, Grid, Problem};
use layout::Layout;
use msgpass::collectives::{bcast_large, Collectives};
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
pub async fn summa<T: Scalar>(
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
            let data = bcast_large(row_comm, ctx, ca, mine, a_blk.rows() * (k1 - k0)).await;
            Mat::from_vec(a_blk.rows(), k1 - k0, data)
        };
        // Broadcast the B panel within the grid column.
        let rb = owner(&b_offs, k0);
        let b_panel = {
            let mine = (rb == i).then(|| {
                let local = Rect::new(k0 - b_offs[i], 0, k1 - k0, b_blk.cols());
                b_blk.block(local).into_vec()
            });
            let data = bcast_large(col_comm, ctx, rb, mine, (k1 - k0) * b_blk.cols()).await;
            Mat::from_vec(k1 - k0, b_blk.cols(), data)
        };
        charged_gemm(ctx, &a_panel, &b_panel, c_out);
    }
}

/// CA3DMM-S: SUMMA inside each k-task group of a `pm × pn × pk` grid.
///
/// No Cannon groups exist, so eq. 7 is not required and the default grid
/// comes from the unconstrained search. Initially position `(i, j, kt)`
/// holds `A(m_i, ·)` and `B(·, n_j)` restricted to slice `j` (of `pn`)
/// resp. `i` (of `pm`) of its group's k-range.
pub struct Ca3dmmSumma {
    geo: Grid3d,
}

impl Ca3dmmSumma {
    /// Chooses the (unconstrained) grid, or accepts one.
    pub fn new(prob: Problem, grid_override: Option<Grid>) -> Self {
        let grid = grid_override
            .unwrap_or_else(|| cosma_grid(&prob, gridopt::DEFAULT_UTILIZATION_FLOOR).grid);
        Ca3dmmSumma {
            geo: Grid3d::new(prob, grid, grid.pm, &[Family::Row, Family::Col]),
        }
    }

    /// The grid in use.
    pub fn grid(&self) -> &Grid {
        self.geo.grid()
    }

    /// Native layout of `A` (`m × k`).
    pub fn layout_a(&self) -> Layout {
        self.geo.layout_a(|at| self.geo.slices(at))
    }

    /// Native layout of `B` (`k × n`).
    pub fn layout_b(&self) -> Layout {
        self.geo.layout_b(|at| self.geo.slices(at))
    }

    /// Native output layout of `C`: row-strip `kt` of block `(m_i, n_j)`.
    pub fn layout_c(&self) -> Layout {
        self.geo.layout_c()
    }

    /// Steps 5–7 with SUMMA: native-layout multiply. Collective over
    /// `world`; idle ranks pass `None` and get `None`.
    pub async fn multiply_native_async<T: Scalar>(
        &self,
        ctx: &RankCtx,
        world: &Comm,
        a_init: Option<Mat<T>>,
        b_init: Option<Mat<T>>,
    ) -> Option<Mat<T>> {
        let comms = self.geo.comms(ctx, world)?;
        let (at, flat) = (comms.at(), Collectives::Flat);
        let native = self.geo.slices(at);
        let c_strip = comms
            .multiply_native(ctx, [a_init, b_init], native, flat, async |ab| {
                let [Some(a), Some(b)] = ab else {
                    unreachable!("every position holds an A and a B block")
                };
                ctx.set_phase("summa_bcast");
                let k_kt = self.geo.a_block(at.0, at.2).cols;
                let (row, col) = (comms.of(Family::Row), comms.of(Family::Col));
                let mut c_partial = Mat::zeros(a.rows(), b.cols());
                summa(ctx, row, col, k_kt, &a, &b, &mut c_partial).await;
                c_partial
            })
            .await;
        Some(c_strip)
    }
}

/// The 2D baseline: [`Ca3dmmSumma`] on `Grid(pr, pc, 1)`.
pub struct SummaPgemm(Ca3dmmSumma);

impl SummaPgemm {
    /// Chooses a 2D grid `(pr, pc)` for the problem, or accepts one.
    pub fn new(prob: Problem, grid_override: Option<(usize, usize)>) -> Self {
        let (pr, pc) = grid_override.unwrap_or_else(|| summa_grid(&prob));
        SummaPgemm(Ca3dmmSumma::new(prob, Some(Grid::new(pr, pc, 1))))
    }

    /// Native layout of `A`: 2D blocks `m_i × ka_j` (k split `pc` ways).
    pub fn layout_a(&self) -> Layout {
        self.0.layout_a()
    }

    /// Native layout of `B`: 2D blocks `kb_i × n_j` (k split `pr` ways).
    pub fn layout_b(&self) -> Layout {
        self.0.layout_b()
    }

    /// Native layout of `C`: 2D blocks `m_i × n_j`.
    pub fn layout_c(&self) -> Layout {
        self.0.layout_c()
    }

    /// Blocking façade over [`SummaPgemm::multiply_native_async`], kept for the
    /// frozen benchmark until item 7 (ROADMAP.md). Panics on a virtual rank.
    pub fn multiply_native<T: Scalar>(
        &self,
        ctx: &RankCtx,
        world: &Comm,
        a_init: Option<Mat<T>>,
        b_init: Option<Mat<T>>,
    ) -> Option<Mat<T>> {
        ctx.block_on(self.multiply_native_async(ctx, world, a_init, b_init))
    }

    /// Native-layout multiply. Collective over `world`; ranks beyond the
    /// grid pass `None`.
    pub async fn multiply_native_async<T: Scalar>(
        &self,
        ctx: &RankCtx,
        world: &Comm,
        a_init: Option<Mat<T>>,
        b_init: Option<Mat<T>>,
    ) -> Option<Mat<T>> {
        self.0
            .multiply_native_async(ctx, world, a_init, b_init)
            .await
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dense::gemm::{gemm_naive, GemmOp};
    use dense::part::even_range;
    use dense::random::global_block;
    use dense::testing::assert_gemm_close;
    use msgpass::World;

    fn check_summa_kernel(m: usize, n: usize, k: usize, pr: usize, pc: usize) {
        let results = World::run(pr * pc, async |ctx| {
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
            summa(ctx, &row_comm, &col_comm, k, &a, &b, &mut c).await;
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
}
