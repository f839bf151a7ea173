//! The original 3D algorithm (Agarwal, Balle, Gustavson, Joshi & Palkar
//! \[15\]).
//!
//! A `q × q × q` cuboidal grid (`q = ⌊P^⅓⌋`, surplus ranks idle). The
//! layer dimension splits k. Per the paper's §III-C: "The original 3D
//! algorithm follows the same procedure [as COSMA], but it uses one
//! broadcast operation to replicate A and one broadcast operation to
//! replicate B." Initially layer `l` block `A(i, l)` lives on rank
//! `(i, j = l, l)`-adjacent owner and is broadcast along the grid row;
//! `B(l, j)` on `(i = l, j, l)`-adjacent owner, broadcast along the
//! column; one GEMM; reduce-scatter along layers.

use ca3dmm::grid3d::{Coord, Family, Grid3d, GridComms};
use ca3dmm::{charged_product, Pgemm};
use dense::part::Rect;
use dense::{Mat, Scalar};
use gridopt::{cube_grid, Problem};
use msgpass::collectives::bcast_large;
use msgpass::RankCtx;

/// A configured original-3D multiplication.
pub struct Orig3d {
    geo: Grid3d,
}

impl Orig3d {
    /// Builds the cube grid for `prob.p` ranks.
    pub fn new(prob: Problem) -> Self {
        let grid = cube_grid(prob.p);
        Orig3d {
            geo: Grid3d::new(prob, grid, grid.pm, &[Family::Row, Family::Col]),
        }
    }
}

impl Pgemm for Orig3d {
    fn geo(&self) -> &Grid3d {
        &self.geo
    }

    /// The classic placement puts the single copy of A and B on a 2D
    /// sub-grid: `A(i, l)` starts on the position with `j = l` and
    /// `B(l, j)` on the one with `i = l`, so each layer's data starts on a
    /// distinct column resp. row — a 2D partition of each operand over q²
    /// ranks.
    fn native(&self, (i, j, l): Coord) -> [Option<Rect>; 2] {
        [
            (j == l).then(|| self.geo.a_block(i, l)),
            (i == l).then(|| self.geo.b_block(j, l)),
        ]
    }

    /// Broadcast A(i, l) from the owner column j = l along the row and
    /// B(l, j) from the owner row i = l along the column, then one local
    /// GEMM. Every member derives the block shape from the partition
    /// arithmetic, so the large-message scatter+allgather broadcast (the
    /// one T_broadcast prices) applies.
    async fn partial_c<T: Scalar>(
        &self,
        ctx: &RankCtx,
        comms: &GridComms,
        [a, b]: [Option<Mat<T>>; 2],
    ) -> Mat<T> {
        ctx.set_phase("replicate_ab");
        let (i, j, l) = comms.at();
        let (a_blk, b_blk) = (self.geo.a_block(i, l), self.geo.b_block(j, l));
        let (row, col) = (comms.of(Family::Row), comms.of(Family::Col));
        let a_data = bcast_large(row, ctx, l, a.map(Mat::into_vec), a_blk.area()).await;
        let b_data = bcast_large(col, ctx, l, b.map(Mat::into_vec), b_blk.area()).await;
        let a_full = Mat::from_vec(a_blk.rows, a_blk.cols, a_data);
        let b_full = Mat::from_vec(b_blk.rows, b_blk.cols, b_data);
        ctx.set_phase("local_gemm");
        charged_product(ctx, &a_full, &b_full)
    }
}
