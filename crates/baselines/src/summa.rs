//! SUMMA (van de Geijn & Watts \[14\]) — the ScaLAPACK-style 2D baseline.
//!
//! A `pr × pc` grid with 2D-block-distributed A, B, C; the k-dimension is
//! processed in panels, each broadcast along grid rows (A) and columns
//! (B), with C stationary. SUMMA "cannot utilize extra memory to reduce
//! communication costs" (§I) — no replication, no k-parallelism.

use ca3dmm::summa2d::summa;
use dense::gemm::GemmOp;
use dense::part::{even_range, Rect};
use dense::{Mat, Scalar};
use gridopt::{summa_grid, Problem};
use layout::Layout;
use msgpass::{Comm, RankCtx};
use netmodel::machine::Placement;
use netmodel::{NetGroup, Phase, Schedule};

/// A configured SUMMA multiplication.
pub struct SummaPgemm {
    prob: Problem,
    /// Grid rows.
    pub pr: usize,
    /// Grid columns.
    pub pc: usize,
}

impl SummaPgemm {
    /// Chooses a 2D grid (or accepts one) for the problem.
    pub fn new(prob: Problem, grid_override: Option<(usize, usize)>) -> Self {
        let (pr, pc) = grid_override.unwrap_or_else(|| summa_grid(&prob));
        assert!(pr * pc <= prob.p, "grid exceeds P");
        SummaPgemm { prob, pr, pc }
    }

    /// Grid position `(i, j)` of a world rank; `None` beyond the grid.
    fn active_coord(&self, world: usize) -> Option<(usize, usize)> {
        (world < self.pr * self.pc).then(|| (world % self.pr, world / self.pr))
    }

    /// Native layout of `A`: 2D blocks `m_i × ka_j` (k split `pc` ways).
    pub fn layout_a(&self) -> Layout {
        Layout::one_rect_per_rank(self.prob.m, self.prob.k, self.prob.p, |r| {
            let (i, j) = self.active_coord(r)?;
            let (r0, r1) = even_range(self.prob.m, self.pr, i);
            let (k0, k1) = even_range(self.prob.k, self.pc, j);
            Some(Rect::new(r0, k0, r1 - r0, k1 - k0))
        })
    }

    /// Native layout of `B`: 2D blocks `kb_i × n_j` (k split `pr` ways).
    pub fn layout_b(&self) -> Layout {
        Layout::one_rect_per_rank(self.prob.k, self.prob.n, self.prob.p, |r| {
            let (i, j) = self.active_coord(r)?;
            let (k0, k1) = even_range(self.prob.k, self.pr, i);
            let (c0, c1) = even_range(self.prob.n, self.pc, j);
            Some(Rect::new(k0, c0, k1 - k0, c1 - c0))
        })
    }

    /// Native layout of `C`: 2D blocks `m_i × n_j`.
    pub fn layout_c(&self) -> Layout {
        Layout::one_rect_per_rank(self.prob.m, self.prob.n, self.prob.p, |r| {
            let (i, j) = self.active_coord(r)?;
            let (r0, r1) = even_range(self.prob.m, self.pr, i);
            let (c0, c1) = even_range(self.prob.n, self.pc, j);
            Some(Rect::new(r0, c0, r1 - r0, c1 - c0))
        })
    }

    /// The full pipeline with user-defined layouts (ScaLAPACK's `p?gemm`
    /// accepts arbitrary block-cyclic distributions; the conversion happens
    /// here explicitly).
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

    /// Native-layout multiply. Collective over `world`; ranks beyond the
    /// grid pass `None`.
    pub fn multiply_native<T: Scalar>(
        &self,
        ctx: &RankCtx,
        world: &Comm,
        a_init: Option<Mat<T>>,
        b_init: Option<Mat<T>>,
    ) -> Option<Mat<T>> {
        let (pr, pc) = (self.pr, self.pc);
        let row_groups: Vec<Vec<usize>> = (0..pr)
            .map(|i| (0..pc).map(|j| i + j * pr).collect())
            .collect();
        let row_comm = world.subgroup(ctx, &row_groups);
        let col_groups: Vec<Vec<usize>> = (0..pc)
            .map(|j| (0..pr).map(|i| i + j * pr).collect())
            .collect();
        let col_comm = world.subgroup(ctx, &col_groups);
        let (i, j) = self.active_coord(world.rank())?;
        let (r0, r1) = even_range(self.prob.m, pr, i);
        let (c0, c1) = even_range(self.prob.n, pc, j);
        let (ka0, ka1) = even_range(self.prob.k, pc, j);
        let (kb0, kb1) = even_range(self.prob.k, pr, i);
        let a = a_init.unwrap_or_else(|| Mat::zeros(r1 - r0, ka1 - ka0));
        let b = b_init.unwrap_or_else(|| Mat::zeros(kb1 - kb0, c1 - c0));
        assert_eq!(a.shape(), (r1 - r0, ka1 - ka0), "A block shape");
        assert_eq!(b.shape(), (kb1 - kb0, c1 - c0), "B block shape");

        ctx.set_phase("summa_bcast");
        let mut c_out = Mat::zeros(r1 - r0, c1 - c0);
        summa(
            ctx,
            row_comm.as_ref().expect("active rank has a row comm"),
            col_comm.as_ref().expect("active rank has a col comm"),
            self.prob.k,
            &a,
            &b,
            &mut c_out,
        );
        Some(c_out)
    }

    /// The SUMMA schedule: one A-panel broadcast along the row and one
    /// B-panel broadcast along the column per panel round, GEMM after each
    /// (§III-E analyses exactly this pattern).
    pub fn schedule(&self, placement: &Placement, elem_bytes: f64) -> Schedule {
        let (pr, pc) = (self.pr, self.pc);
        let active = pr * pc;
        let mb = (self.prob.m as f64 / pr as f64).ceil();
        let nb = (self.prob.n as f64 / pc as f64).ceil();
        // Fine panels: the refinement of the pr-way and pc-way k-splits.
        let rounds = if pr == 1 && pc == 1 {
            0
        } else {
            (pr + pc - 1).min(self.prob.k)
        };
        let kpanel = self.prob.k as f64 / (rounds.max(1)) as f64;
        let rpn = placement.ranks_per_node;
        // column-major rank order: grid columns are contiguous, grid rows
        // stride by pr
        let grp_row = NetGroup::strided(pc, pr, rpn);
        let grp_col = NetGroup::contiguous(pr, rpn);
        let _ = active;
        let mut s = Schedule::new();
        for _ in 0..rounds {
            if pc > 1 {
                s.push(
                    "summa_bcast",
                    Phase::Bcast {
                        grp: grp_row,
                        bytes: mb * kpanel * elem_bytes,
                    },
                );
            }
            if pr > 1 {
                s.push(
                    "summa_bcast",
                    Phase::Bcast {
                        grp: grp_col,
                        bytes: kpanel * nb * elem_bytes,
                    },
                );
            }
        }
        s.push(
            "local_gemm",
            Phase::LocalGemm {
                flops: 2.0 * mb * nb * self.prob.k as f64,
            },
        );
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dense::gemm::{gemm_naive, GemmOp};
    use dense::random::global_block;
    use dense::testing::assert_gemm_close;
    use msgpass::World;

    fn check(m: usize, n: usize, k: usize, p: usize, grid: Option<(usize, usize)>) {
        let alg = SummaPgemm::new(Problem::new(m, n, k, p), grid);
        let la = alg.layout_a();
        let lb = alg.layout_b();
        let lc = alg.layout_c();
        la.validate();
        lb.validate();
        lc.validate();
        let a_full = global_block::<f64>(41, Rect::new(0, 0, m, k));
        let b_full = global_block::<f64>(42, Rect::new(0, 0, k, n));
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
            &format!("summa {m}x{n}x{k} p={p}"),
        );
    }

    #[test]
    fn square() {
        check(16, 16, 16, 16, None);
    }

    #[test]
    fn rectangular_grids() {
        check(20, 12, 16, 8, Some((4, 2)));
        check(12, 20, 16, 8, Some((2, 4)));
        check(9, 9, 9, 6, Some((2, 3)));
    }

    #[test]
    fn uneven_and_idle() {
        check(17, 13, 11, 7, Some((2, 3))); // one idle rank
        check(5, 5, 40, 4, None);
    }

    #[test]
    fn single_rank() {
        check(8, 8, 8, 1, None);
    }

    #[test]
    fn schedule_has_bcast_rounds() {
        let alg = SummaPgemm::new(Problem::new(1024, 1024, 1024, 16), Some((4, 4)));
        let s = alg.schedule(&netmodel::Machine::uniform().pure_mpi(), 8.0);
        let bcasts = s.items.iter().filter(|(l, _)| l == "summa_bcast").count();
        assert_eq!(bcasts, 2 * 7); // (pr + pc - 1) rounds, 2 bcasts each
    }
}
