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

use ca3dmm::charged_gemm;
use ca3dmm::grid3d::{Coord, Family, Grid3d};
use dense::part::Rect;
use dense::{Mat, Scalar};
use gridopt::{cube_grid, Problem};
use layout::Layout;
use msgpass::collectives::{bcast_large, Collectives};
use msgpass::{Comm, RankCtx};

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

    /// `A(i, ·, l)` initially lives on the rank with `j = l`.
    pub fn layout_a(&self) -> Layout {
        self.geo.layout_a(|at| self.native(at))
    }

    /// `B(·, j, l)` initially on the rank with `i = l`.
    pub fn layout_b(&self) -> Layout {
        self.geo.layout_b(|at| self.native(at))
    }

    /// Output: row-strip `l` of C block `(i, j)`.
    pub fn layout_c(&self) -> Layout {
        self.geo.layout_c()
    }

    /// Native-layout multiply. Collective over `world`.
    pub async fn multiply_native_async<T: Scalar>(
        &self,
        ctx: &RankCtx,
        world: &Comm,
        a_init: Option<Mat<T>>,
        b_init: Option<Mat<T>>,
    ) -> Option<Mat<T>> {
        let geo = &self.geo;
        let comms = geo.comms(ctx, world)?;
        let (at, flat) = (comms.at(), Collectives::Flat);
        let c_strip = comms
            .multiply_native(
                ctx,
                [a_init, b_init],
                self.native(at),
                flat,
                async |[a, b]| {
                    // Broadcast A(i, l) from the owner column j = l along the row
                    // and B(l, j) from the owner row i = l along the column. Every
                    // member derives the block shape from the partition arithmetic,
                    // so the large-message scatter+allgather broadcast (the one
                    // T_broadcast prices) applies.
                    ctx.set_phase("replicate_ab");
                    let (i, j, l) = at;
                    let (a_blk, b_blk) = (geo.a_block(i, l), geo.b_block(j, l));
                    let (row, col) = (comms.of(Family::Row), comms.of(Family::Col));
                    let a_data = bcast_large(row, ctx, l, a.map(Mat::into_vec), a_blk.area()).await;
                    let b_data = bcast_large(col, ctx, l, b.map(Mat::into_vec), b_blk.area()).await;
                    let a_full = Mat::from_vec(a_blk.rows, a_blk.cols, a_data);
                    let b_full = Mat::from_vec(b_blk.rows, b_blk.cols, b_data);
                    ctx.set_phase("local_gemm");
                    let mut c_partial = Mat::zeros(a_full.rows(), b_full.cols());
                    charged_gemm(ctx, &a_full, &b_full, &mut c_partial);
                    c_partial
                },
            )
            .await;
        Some(c_strip)
    }
}
