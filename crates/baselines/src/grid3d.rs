//! The unified view's shared half (§III-A/C): the plain column-major
//! `pm × pn × pk` grid and the native driver every algorithm of this crate
//! runs on it — build the communicators, send idle ranks home, take the
//! initial blocks, let the algorithm replicate and run its inner 2D step,
//! reduce-scatter the partial `C` over `pk`.
//!
//! CA3DMM proper is not built on this: its `ca3dmm::GridContext` orders
//! ranks Cannon-group-major inside a k-task group.

use ca3dmm::reduce::{reduce_partial_c, strip_range};
use dense::part::{even_range, Rect};
use dense::{gemm, GemmOp, Mat, Scalar};
use gridopt::{Grid, Problem};
use layout::Layout;
use msgpass::collectives::Collectives;
use msgpass::{Comm, RankCtx};

/// Grid position `(i, j, kt)` along `(m, n, k)`.
pub type Coord = (usize, usize, usize);

/// A problem partitioned over a grid whose world ranks run column-major
/// inside contiguous k-task groups: `world = kt·pm·pn + i + j·pm`. Ranks
/// `≥ pm·pn·pk` are idle.
pub struct Grid3d {
    prob: Problem,
    grid: Grid,
}

/// An active rank's four sub-communicators.
pub struct GridComms {
    /// Fixed `(i, kt)`, ordered by `j` (size `pn`).
    pub row: Comm,
    /// Fixed `(j, kt)`, ordered by `i` (size `pm`).
    pub col: Comm,
    /// Fixed `kt`, ordered by `i + j·pm` (size `pm·pn`).
    pub plane: Comm,
    /// Fixed `(i, j)`, ordered by `kt` (size `pk`).
    pub depth: Comm,
}

impl Grid3d {
    /// # Panics
    /// If the grid has more positions than the problem has ranks.
    pub fn new(prob: Problem, grid: Grid) -> Self {
        assert!(grid.active() <= prob.p, "grid exceeds P");
        Grid3d { prob, grid }
    }

    /// The partitioned problem.
    pub fn prob(&self) -> &Problem {
        &self.prob
    }

    /// The grid.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    fn rank_of(&self, (i, j, kt): Coord) -> usize {
        kt * self.grid.pm * self.grid.pn + i + j * self.grid.pm
    }

    /// Grid position of a world rank; `None` for idle ranks.
    pub fn coord(&self, world: usize) -> Option<Coord> {
        let (pm, plane) = (self.grid.pm, self.grid.pm * self.grid.pn);
        (world < self.grid.active())
            .then(|| (world % plane % pm, world % plane / pm, world / plane))
    }

    /// Rows `m_i` of `A` and `C`.
    pub fn m_range(&self, i: usize) -> (usize, usize) {
        even_range(self.prob.m, self.grid.pm, i)
    }

    /// Columns `n_j` of `B` and `C`.
    pub fn n_range(&self, j: usize) -> (usize, usize) {
        even_range(self.prob.n, self.grid.pn, j)
    }

    /// The k-range `k_kt` of k-task group `kt`.
    pub fn k_range(&self, kt: usize) -> (usize, usize) {
        even_range(self.prob.k, self.grid.pk, kt)
    }

    /// `A(m_i, k_kt)`: what position `(i, ·, kt)` multiplies.
    pub fn a_block(&self, i: usize, kt: usize) -> Rect {
        rect(self.m_range(i), self.k_range(kt))
    }

    /// `B(k_kt, n_j)`: what position `(·, j, kt)` multiplies.
    pub fn b_block(&self, j: usize, kt: usize) -> Rect {
        rect(self.k_range(kt), self.n_range(j))
    }

    /// `C(m_i, n_j)`: what every position `(i, j, ·)` contributes to.
    pub fn c_block(&self, i: usize, j: usize) -> Rect {
        rect(self.m_range(i), self.n_range(j))
    }

    /// The slice placement, as `[A, B]` rectangles: column slice `j` (of
    /// `pn`) of the A block and row slice `i` (of `pm`) of the B block —
    /// one copy of each operand, spread over the row resp. column of
    /// positions that needs it.
    pub fn slices(&self, (i, j, kt): Coord) -> [Option<Rect>; 2] {
        let (a, b) = (self.a_block(i, kt), self.b_block(j, kt));
        let (a0, a1) = even_range(a.cols, self.grid.pn, j);
        let (b0, b1) = even_range(b.rows, self.grid.pm, i);
        [
            Some(Rect::new(a.row0, a.col0 + a0, a.rows, a1 - a0)),
            Some(Rect::new(b.row0 + b0, b.col0, b1 - b0, b.cols)),
        ]
    }

    /// A layout over all `P` ranks from a per-position rectangle (`None`
    /// or empty: the position owns nothing).
    fn layout(&self, rows: usize, cols: usize, rect_of: impl Fn(Coord) -> Option<Rect>) -> Layout {
        Layout::one_rect_per_rank(rows, cols, self.prob.p, |r| rect_of(self.coord(r)?))
    }

    /// The native input layout of `A` under an initial `[A, B]` placement.
    pub fn layout_a(&self, native: impl Fn(Coord) -> [Option<Rect>; 2]) -> Layout {
        self.layout(self.prob.m, self.prob.k, |at| native(at)[0])
    }

    /// The native input layout of `B` under an initial `[A, B]` placement.
    pub fn layout_b(&self, native: impl Fn(Coord) -> [Option<Rect>; 2]) -> Layout {
        self.layout(self.prob.k, self.prob.n, |at| native(at)[1])
    }

    /// The native output layout: row strip `kt` (of `pk`) of the C block,
    /// as the reduce-scatter leaves it.
    pub fn layout_c(&self) -> Layout {
        self.layout(self.prob.m, self.prob.n, |(i, j, kt)| {
            let blk = self.c_block(i, j);
            let (o0, o1) = strip_range(blk.rows, self.grid.pk, kt);
            Some(Rect::new(blk.row0 + o0, blk.col0, o1 - o0, blk.cols))
        })
    }

    /// Collective over `world`; `None` on idle ranks.
    fn comms(&self, ctx: &RankCtx, world: &Comm) -> Option<GridComms> {
        let Grid { pm, pn, pk } = self.grid;
        let sub = |groups: usize, len: usize, member: &dyn Fn(usize, usize) -> Coord| {
            let lists: Vec<Vec<usize>> = (0..groups)
                .map(|g| (0..len).map(|x| self.rank_of(member(g, x))).collect())
                .collect();
            world.subgroup(ctx, &lists)
        };
        let row = sub(pm * pk, pn, &|g, j| (g % pm, j, g / pm));
        let col = sub(pn * pk, pm, &|g, i| (i, g % pn, g / pn));
        let plane = sub(pk, pm * pn, &|kt, x| (x % pm, x / pm, kt));
        let depth = sub(pm * pn, pk, &|g, kt| (g % pm, g / pm, kt));
        Some(GridComms {
            row: row?,
            col: col?,
            plane: plane?,
            depth: depth?,
        })
    }

    /// The native-layout multiply all five algorithms share. Collective
    /// over `world`; idle ranks get `None`. `init` holds this rank's
    /// initial A and B blocks, `native` the rectangles they must match
    /// (`None`: the position starts without that operand); a missing block
    /// is taken as zeros. `partial_c` is the algorithm: it completes the
    /// operands and returns this position's partial `C(m_i, n_j)`, which is
    /// then reduce-scattered over the `pk` positions sharing `(i, j)`.
    pub fn multiply_native<T: Scalar>(
        &self,
        ctx: &RankCtx,
        world: &Comm,
        init: [Option<Mat<T>>; 2],
        native: impl Fn(Coord) -> [Option<Rect>; 2],
        partial_c: impl FnOnce(&GridComms, Coord, [Option<Mat<T>>; 2]) -> Mat<T>,
    ) -> Option<Mat<T>> {
        let comms = self.comms(ctx, world)?;
        let coord = self.coord(world.rank())?;
        let take = |given: Option<Mat<T>>, rect: Option<Rect>| {
            rect.map(|r| {
                let blk = given.unwrap_or_else(|| Mat::zeros(r.rows, r.cols));
                assert_eq!(blk.shape(), (r.rows, r.cols), "initial block shape");
                blk
            })
        };
        let ([a, b], [a_rect, b_rect]) = (init, native(coord));
        let blocks = [take(a, a_rect), take(b, b_rect)];
        let c_partial = partial_c(&comms, coord, blocks);
        ctx.set_phase("reduce_c");
        Some(reduce_partial_c(
            ctx,
            &comms.depth,
            c_partial,
            Collectives::Flat,
        ))
    }
}

fn rect((r0, r1): (usize, usize), (c0, c1): (usize, usize)) -> Rect {
    Rect::new(r0, c0, r1 - r0, c1 - c0)
}

/// The single local product of the algorithms that replicate whole blocks:
/// `A(m_i, k_kt) · B(k_kt, n_j)` under phase `local_gemm`.
pub(crate) fn local_gemm<T: Scalar>(ctx: &RankCtx, a: &Mat<T>, b: &Mat<T>) -> Mat<T> {
    ctx.set_phase("local_gemm");
    let mut c = Mat::zeros(a.rows(), b.cols());
    let op = GemmOp::NoTrans;
    gemm(op, op, T::ONE, a, b, T::ZERO, &mut c);
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coord_inverts_the_rank_map_and_idles_the_surplus() {
        let geo = Grid3d::new(Problem::new(9, 8, 7, 26), Grid::new(2, 3, 4));
        for world in 0..24 {
            let c = geo.coord(world).expect("active");
            assert_eq!(geo.rank_of(c), world);
        }
        assert_eq!(geo.coord(7), Some((1, 0, 1)));
        assert_eq!((geo.coord(24), geo.coord(25)), (None, None));
    }

    #[test]
    fn native_layouts_partition_their_matrices() {
        let geo = Grid3d::new(Problem::new(9, 8, 7, 13), Grid::new(2, 3, 2));
        geo.layout_a(|at| geo.slices(at)).validate();
        geo.layout_b(|at| geo.slices(at)).validate();
        geo.layout_c().validate();
    }
}
