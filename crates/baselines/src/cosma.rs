//! COSMA as described by the paper's §III-C analysis of its source code.
//!
//! Grid: the unconstrained search (`gridopt::cosma_grid`). Rank order is
//! column-major like CA3DMM: `world = kt·(pm·pn) + i + j·pm`.
//!
//! Each active rank owns subdomain `(i, j, kt)` and needs
//! `A(m_i, kb_kt) · B(kb_kt, n_j)`. `A` ends up replicated `pn` times
//! (every `j` of a row needs the same A block) and `B` replicated `pm`
//! times. Initially each block exists once, sliced across the ranks that
//! will need it; allgathers complete the replication; one local GEMM
//! produces the partial C; a reduce-scatter over the `pk` k-groups
//! finishes, exactly as in CA3DMM.

use ca3dmm::reduce::reduce_partial_c;
use dense::part::{even_range, offsets, split_even, Rect};
use dense::{gemm, GemmOp, Mat, Scalar};
use gridopt::{cosma_grid, Grid, Problem};
use layout::Layout;
use msgpass::collectives::allgatherv;
use msgpass::{Comm, RankCtx};
use netmodel::machine::Placement;
use netmodel::{NetGroup, Phase, Schedule};

/// A configured COSMA-like multiplication.
pub struct CosmaLike {
    prob: Problem,
    grid: Grid,
}

impl CosmaLike {
    /// Chooses the unconstrained grid (or accepts an override) and builds
    /// the geometry.
    pub fn new(prob: Problem, grid_override: Option<Grid>) -> Self {
        let grid = grid_override
            .unwrap_or_else(|| cosma_grid(&prob, gridopt::DEFAULT_UTILIZATION_FLOOR).grid);
        assert!(grid.active() <= prob.p, "grid exceeds P");
        CosmaLike { prob, grid }
    }

    /// The grid in use.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// Grid position `(i, j, kt)` of a world rank; `None` for idle ranks.
    fn active_coord(&self, world: usize) -> Option<(usize, usize, usize)> {
        let (pm, per_kt) = (self.grid.pm, self.grid.pm * self.grid.pn);
        (world < self.grid.active())
            .then(|| (world % per_kt % pm, world % per_kt / pm, world / per_kt))
    }

    fn k_outer(&self, kt: usize) -> (usize, usize) {
        even_range(self.prob.k, self.grid.pk, kt)
    }

    /// The full A block rank `(i, ·, kt)` needs: `m_i × kb_kt`.
    fn a_block(&self, i: usize, kt: usize) -> Rect {
        let (r0, r1) = even_range(self.prob.m, self.grid.pm, i);
        let (k0, k1) = self.k_outer(kt);
        Rect::new(r0, k0, r1 - r0, k1 - k0)
    }

    /// The full B block rank `(·, j, kt)` needs: `kb_kt × n_j`.
    fn b_block(&self, j: usize, kt: usize) -> Rect {
        let (k0, k1) = self.k_outer(kt);
        let (c0, c1) = even_range(self.prob.n, self.grid.pn, j);
        Rect::new(k0, c0, k1 - k0, c1 - c0)
    }

    /// Native input layout of `A`: rank `(i, j, kt)` initially owns
    /// column-slice `j` of its A block (one copy total; the row-allgather
    /// completes it).
    pub fn layout_a(&self) -> Layout {
        Layout::one_rect_per_rank(self.prob.m, self.prob.k, self.prob.p, |r| {
            let (i, j, kt) = self.active_coord(r)?;
            let blk = self.a_block(i, kt);
            let (o0, o1) = even_range(blk.cols, self.grid.pn, j);
            Some(Rect::new(blk.row0, blk.col0 + o0, blk.rows, o1 - o0))
        })
    }

    /// Native input layout of `B`: row-slice `i` of the B block.
    pub fn layout_b(&self) -> Layout {
        Layout::one_rect_per_rank(self.prob.k, self.prob.n, self.prob.p, |r| {
            let (i, j, kt) = self.active_coord(r)?;
            let blk = self.b_block(j, kt);
            let (o0, o1) = even_range(blk.rows, self.grid.pm, i);
            Some(Rect::new(blk.row0 + o0, blk.col0, o1 - o0, blk.cols))
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

    /// The full pipeline with user-defined layouts: the paper notes that
    /// "COSMA supports user-defined input and output matrix partitionings
    /// … with an internal matrix redistribution library"; this mirrors
    /// [`ca3dmm::Ca3dmm::multiply`] for the baseline.
    #[allow(clippy::too_many_arguments)]
    pub fn multiply<T: Scalar>(
        &self,
        ctx: &RankCtx,
        world: &Comm,
        op_a: GemmOp,
        a_layout: &Layout,
        a_blocks: &[Mat<T>],
        op_b: GemmOp,
        b_layout: &Layout,
        b_blocks: &[Mat<T>],
        c_layout: &Layout,
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

    /// Native-layout multiply (the §III-C procedure). Collective over
    /// `world`; idle ranks pass `None` and get `None`.
    pub fn multiply_native<T: Scalar>(
        &self,
        ctx: &RankCtx,
        world: &Comm,
        a_init: Option<Mat<T>>,
        b_init: Option<Mat<T>>,
    ) -> Option<Mat<T>> {
        let (pm, pn, pk) = (self.grid.pm, self.grid.pn, self.grid.pk);

        // Row groups (fixed i, kt): allgather A. Column groups: allgather B.
        let row_groups: Vec<Vec<usize>> = (0..pk)
            .flat_map(|kt| {
                (0..pm).map(move |i| (0..pn).map(|j| kt * pm * pn + i + j * pm).collect())
            })
            .collect();
        let row_comm = world.subgroup(ctx, &row_groups);
        let col_groups: Vec<Vec<usize>> = (0..pk)
            .flat_map(|kt| {
                (0..pn).map(move |j| (0..pm).map(|i| kt * pm * pn + i + j * pm).collect())
            })
            .collect();
        let col_comm = world.subgroup(ctx, &col_groups);
        let reduce_groups: Vec<Vec<usize>> = (0..pm * pn)
            .map(|idx| (0..pk).map(|kt| kt * pm * pn + idx).collect())
            .collect();
        let reduce_comm = world.subgroup(ctx, &reduce_groups);

        let (i, j, kt) = self.active_coord(world.rank())?;

        // Replicate A across the row (allgather of column-slices).
        ctx.set_phase("replicate_ab");
        let a_blk_rect = self.a_block(i, kt);
        let a_widths = split_even(a_blk_rect.cols, pn);
        let a_slice = a_init.unwrap_or_else(|| Mat::zeros(a_blk_rect.rows, a_widths[j]));
        assert_eq!(
            a_slice.shape(),
            (a_blk_rect.rows, a_widths[j]),
            "A slice shape"
        );
        let a_full = gather_col_slices(
            ctx,
            row_comm.as_ref().expect("active rank has a row group"),
            a_slice,
            a_blk_rect.rows,
            &a_widths,
        );

        // Replicate B across the column (allgather of row-slices).
        let b_blk_rect = self.b_block(j, kt);
        let b_heights = split_even(b_blk_rect.rows, pm);
        let b_slice = b_init.unwrap_or_else(|| Mat::zeros(b_heights[i], b_blk_rect.cols));
        assert_eq!(
            b_slice.shape(),
            (b_heights[i], b_blk_rect.cols),
            "B slice shape"
        );
        let b_full = gather_row_slices(
            ctx,
            col_comm.as_ref().expect("active rank has a column group"),
            b_slice,
            b_blk_rect.cols,
            &b_heights,
        );

        // One local GEMM.
        ctx.set_phase("local_gemm");
        let mut c_partial = Mat::zeros(a_blk_rect.rows, b_blk_rect.cols);
        gemm(
            GemmOp::NoTrans,
            GemmOp::NoTrans,
            T::ONE,
            &a_full,
            &b_full,
            T::ZERO,
            &mut c_partial,
        );

        // Reduce the pk partial results.
        ctx.set_phase("reduce_c");
        Some(reduce_partial_c(
            ctx,
            reduce_comm
                .as_ref()
                .expect("active rank has a reduce group"),
            c_partial,
            msgpass::collectives::Collectives::Flat,
        ))
    }

    /// The §III-C schedule: allgather A, allgather B, one GEMM, reduce.
    /// `include_redist` adds the user-layout conversion phases (Fig. 3's
    /// "custom layout" series).
    pub fn schedule(
        &self,
        placement: &Placement,
        elem_bytes: f64,
        include_redist: bool,
    ) -> Schedule {
        let (pm, pn, pk) = (self.grid.pm, self.grid.pn, self.grid.pk);
        let active = self.grid.active();
        let mb = (self.prob.m as f64 / pm as f64).ceil();
        let nb = (self.prob.n as f64 / pn as f64).ceil();
        let kb = (self.prob.k as f64 / pk as f64).ceil();
        let rpn = placement.ranks_per_node;
        let mut s = Schedule::new();
        if include_redist {
            let send = (self.prob.m as f64 * self.prob.k as f64
                + self.prob.k as f64 * self.prob.n as f64)
                / self.prob.p as f64
                * elem_bytes;
            s.push(
                "redist",
                Phase::Alltoallv {
                    grp: NetGroup::scattered(self.prob.p, rpn),
                    send_bytes: send,
                    peers: self.prob.p.min(2 * (pm + pn + pk)),
                },
            );
        }
        if pn > 1 {
            // row groups (fixed i): members stride by pm ranks
            s.push(
                "replicate_ab",
                Phase::Allgather {
                    grp: NetGroup::strided(pn, pm, rpn),
                    total_bytes: mb * kb * elem_bytes,
                },
            );
        }
        if pm > 1 {
            // column groups: contiguous ranks
            s.push(
                "replicate_ab",
                Phase::Allgather {
                    grp: NetGroup::contiguous(pm, rpn),
                    total_bytes: kb * nb * elem_bytes,
                },
            );
        }
        s.push(
            "local_gemm",
            Phase::LocalGemm {
                flops: 2.0 * mb * nb * kb,
            },
        );
        if pk > 1 {
            s.push(
                "reduce_c",
                Phase::ReduceScatter {
                    custom_impl: true,
                    grp: NetGroup::strided(pk, pm * pn, rpn),
                    total_bytes: mb * nb * elem_bytes,
                },
            );
        }
        if include_redist {
            let send = (self.prob.m as f64 * self.prob.n as f64) / active as f64 * elem_bytes;
            s.push(
                "redist",
                Phase::Alltoallv {
                    grp: NetGroup::scattered(self.prob.p, rpn),
                    send_bytes: send,
                    peers: self.prob.p.min(2 * (pm + pn + pk)),
                },
            );
        }
        s
    }

    /// COSMA's memory per rank, elements: the replicated A and B blocks,
    /// the partial C, and the initial slices; COSMA's "unlimited extra
    /// memory" configuration keeps communication buffers for the whole
    /// replicated operands (this is what Table I measures).
    pub fn memory_elements_per_rank(&self) -> f64 {
        let (pm, pn, pk) = (
            self.grid.pm as f64,
            self.grid.pn as f64,
            self.grid.pk as f64,
        );
        let mk = self.prob.m as f64 * self.prob.k as f64;
        let kn = self.prob.k as f64 * self.prob.n as f64;
        let mn = self.prob.m as f64 * self.prob.n as f64;
        // replicated blocks + send/recv buffering (factor 2, as COSMA keeps
        // the pre-replication slices and the gathered blocks alive)
        2.0 * (mk / (pm * pk) + kn / (pn * pk)) + mn / (pm * pn)
    }
}

/// Allgather of column-slices into a full block (slice `g` has width
/// `widths[g]`).
fn gather_col_slices<T: Scalar>(
    ctx: &RankCtx,
    comm: &Comm,
    mine: Mat<T>,
    rows: usize,
    widths: &[usize],
) -> Mat<T> {
    if comm.size() == 1 {
        return mine;
    }
    let counts: Vec<usize> = widths.iter().map(|w| rows * w).collect();
    let data = allgatherv(comm, ctx, mine.into_vec(), &counts);
    let offs = offsets(widths);
    let mut out = Mat::zeros(rows, offs[widths.len()]);
    let mut pos = 0;
    for (g, &w) in widths.iter().enumerate() {
        if w > 0 {
            let slice = Mat::from_vec(rows, w, data[pos..pos + rows * w].to_vec());
            out.set_block(Rect::new(0, offs[g], rows, w), &slice);
        }
        pos += rows * w;
    }
    out
}

/// Allgather of row-slices into a full block — row-major rows are
/// contiguous, so this is a straight concatenation.
fn gather_row_slices<T: Scalar>(
    ctx: &RankCtx,
    comm: &Comm,
    mine: Mat<T>,
    cols: usize,
    heights: &[usize],
) -> Mat<T> {
    if comm.size() == 1 {
        return mine;
    }
    let counts: Vec<usize> = heights.iter().map(|h| h * cols).collect();
    let data = allgatherv(comm, ctx, mine.into_vec(), &counts);
    Mat::from_vec(heights.iter().sum(), cols, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dense::gemm::gemm_naive;
    use dense::random::global_block;
    use dense::testing::assert_gemm_close;
    use msgpass::World;

    fn check(m: usize, n: usize, k: usize, p: usize, grid: Option<Grid>) {
        let alg = CosmaLike::new(Problem::new(m, n, k, p), grid);
        let la = alg.layout_a();
        let lb = alg.layout_b();
        let lc = alg.layout_c();
        la.validate();
        lb.validate();
        lc.validate();
        let a_full = global_block::<f64>(31, Rect::new(0, 0, m, k));
        let b_full = global_block::<f64>(32, Rect::new(0, 0, k, n));
        let parts = World::run(p, |ctx| {
            let world = Comm::world(ctx);
            let me = world.rank();
            let a = la.extract(&a_full, me).into_iter().next();
            let b = lb.extract(&b_full, me).into_iter().next();
            alg.multiply_native(ctx, &world, a, b)
                .into_iter()
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
        assert_gemm_close(
            &lc.assemble(&parts),
            &c_ref,
            k,
            &format!("cosma {m}x{n}x{k} p={p}"),
        );
    }

    #[test]
    fn square_grid() {
        check(16, 16, 16, 8, None);
    }

    #[test]
    fn all_problem_classes() {
        check(6, 6, 240, 12, None); // large-K
        check(240, 6, 6, 12, None); // large-M
        check(48, 48, 4, 12, None); // flat
        check(24, 24, 24, 12, None); // square-ish
    }

    #[test]
    fn forced_grids_and_idle_ranks() {
        check(18, 18, 18, 8, Some(Grid::new(2, 2, 2)));
        check(18, 18, 18, 9, Some(Grid::new(2, 2, 2))); // one idle
        check(15, 14, 13, 6, Some(Grid::new(3, 2, 1))); // non-eq7 grid
        check(15, 14, 13, 6, Some(Grid::new(1, 2, 3)));
    }

    #[test]
    fn uneven_dimensions() {
        check(17, 19, 23, 8, None);
    }

    #[test]
    fn schedule_structure() {
        let alg = CosmaLike::new(Problem::new(1000, 1000, 1000, 64), Some(Grid::new(4, 4, 4)));
        let s = alg.schedule(&netmodel::Machine::uniform().pure_mpi(), 8.0, false);
        let labels: Vec<&str> = s.items.iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(
            labels,
            vec!["replicate_ab", "replicate_ab", "local_gemm", "reduce_c"]
        );
        // allgather volumes: A block replicated over pn, B over pm
        assert!(s.sent_bytes() > 0.0);
    }

    #[test]
    fn memory_model_scales_down_with_p() {
        let small = CosmaLike::new(Problem::new(5000, 5000, 5000, 64), None);
        let large = CosmaLike::new(Problem::new(5000, 5000, 5000, 512), None);
        assert!(large.memory_elements_per_rank() < small.memory_elements_per_rank());
    }
}
