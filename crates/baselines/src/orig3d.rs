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

use ca3dmm::reduce::reduce_partial_c;
use dense::part::{even_range, Rect};
use dense::{gemm, GemmOp, Mat, Scalar};
use gridopt::{cube_grid, Problem};
use layout::Layout;
use msgpass::collectives::bcast_large;
use msgpass::{Comm, RankCtx};
use netmodel::machine::Placement;
use netmodel::{NetGroup, Phase, Schedule};

/// A configured original-3D multiplication.
pub struct Orig3d {
    prob: Problem,
    /// Cube side.
    pub q: usize,
}

impl Orig3d {
    /// Builds the cube grid for `prob.p` ranks.
    pub fn new(prob: Problem) -> Self {
        let q = cube_grid(prob.p).pm;
        Orig3d { prob, q }
    }

    /// Grid position `(i, j, l)` of a world rank (`world = l·q² + i + j·q`);
    /// `None` for the surplus ranks outside the cube.
    fn active_coord(&self, world: usize) -> Option<(usize, usize, usize)> {
        let q = self.q;
        (world < q * q * q).then(|| (world % (q * q) % q, world % (q * q) / q, world / (q * q)))
    }

    /// In-layer owners: `A(i, ·, l)` initially lives on the rank with
    /// `j = l` of layer... — the classic placement puts the single copy of
    /// A and B on a 2D sub-grid; we use `j = A-owner column = l` so each
    /// layer's A data starts on a distinct column, giving a 2D partition
    /// of A over q² ranks.
    pub fn layout_a(&self) -> Layout {
        Layout::one_rect_per_rank(self.prob.m, self.prob.k, self.prob.p, |r| {
            let (i, _, l) = self.active_coord(r).filter(|&(_, j, l)| j == l)?;
            let (r0, r1) = even_range(self.prob.m, self.q, i);
            let (k0, k1) = even_range(self.prob.k, self.q, l);
            Some(Rect::new(r0, k0, r1 - r0, k1 - k0))
        })
    }

    /// `B(·, j, l)` initially on the rank with `i = l`.
    pub fn layout_b(&self) -> Layout {
        Layout::one_rect_per_rank(self.prob.k, self.prob.n, self.prob.p, |r| {
            let (_, j, l) = self.active_coord(r).filter(|&(i, _, l)| i == l)?;
            let (k0, k1) = even_range(self.prob.k, self.q, l);
            let (c0, c1) = even_range(self.prob.n, self.q, j);
            Some(Rect::new(k0, c0, k1 - k0, c1 - c0))
        })
    }

    /// Output: row-strip `l` of C block `(i, j)`.
    pub fn layout_c(&self) -> Layout {
        Layout::one_rect_per_rank(self.prob.m, self.prob.n, self.prob.p, |r| {
            let (i, j, l) = self.active_coord(r)?;
            let (r0, r1) = even_range(self.prob.m, self.q, i);
            let (c0, c1) = even_range(self.prob.n, self.q, j);
            let (o0, o1) = even_range(r1 - r0, self.q, l);
            Some(Rect::new(r0 + o0, c0, o1 - o0, c1 - c0))
        })
    }

    /// Native-layout multiply. Collective over `world`.
    pub fn multiply_native<T: Scalar>(
        &self,
        ctx: &RankCtx,
        world: &Comm,
        a_init: Option<Mat<T>>,
        b_init: Option<Mat<T>>,
    ) -> Option<Mat<T>> {
        let q = self.q;
        let row_groups: Vec<Vec<usize>> = (0..q)
            .flat_map(|l| (0..q).map(move |i| (0..q).map(|j| l * q * q + i + j * q).collect()))
            .collect();
        let row_comm = world.subgroup(ctx, &row_groups);
        let col_groups: Vec<Vec<usize>> = (0..q)
            .flat_map(|l| (0..q).map(move |j| (0..q).map(|i| l * q * q + i + j * q).collect()))
            .collect();
        let col_comm = world.subgroup(ctx, &col_groups);
        let layer_groups: Vec<Vec<usize>> = (0..q * q)
            .map(|idx| (0..q).map(|l| l * q * q + idx).collect())
            .collect();
        let layer_comm = world.subgroup(ctx, &layer_groups);

        let (i, j, l) = self.active_coord(world.rank())?;
        let (r0, r1) = even_range(self.prob.m, q, i);
        let (c0, c1) = even_range(self.prob.n, q, j);
        let (k0, k1) = even_range(self.prob.k, q, l);

        ctx.set_phase("replicate_ab");
        // Broadcast A(i, l) from the owner column j = l along the row;
        // every member derives the block shape from the partition
        // arithmetic, so the large-message scatter+allgather broadcast (the
        // one T_broadcast prices) applies.
        let a_full = {
            let mine = (j == l).then(|| {
                a_init
                    .clone()
                    .unwrap_or_else(|| Mat::zeros(r1 - r0, k1 - k0))
                    .into_vec()
            });
            let data = bcast_large(
                row_comm.as_ref().expect("active rank has a row comm"),
                ctx,
                l,
                mine,
                (r1 - r0) * (k1 - k0),
            );
            Mat::from_vec(r1 - r0, k1 - k0, data)
        };
        // Broadcast B(l, j) from the owner row i = l along the column.
        let b_full = {
            let mine = (i == l).then(|| {
                b_init
                    .clone()
                    .unwrap_or_else(|| Mat::zeros(k1 - k0, c1 - c0))
                    .into_vec()
            });
            let data = bcast_large(
                col_comm.as_ref().expect("active rank has a col comm"),
                ctx,
                l,
                mine,
                (k1 - k0) * (c1 - c0),
            );
            Mat::from_vec(k1 - k0, c1 - c0, data)
        };

        ctx.set_phase("local_gemm");
        let mut c_partial = Mat::zeros(r1 - r0, c1 - c0);
        gemm(
            GemmOp::NoTrans,
            GemmOp::NoTrans,
            T::ONE,
            &a_full,
            &b_full,
            T::ZERO,
            &mut c_partial,
        );

        ctx.set_phase("reduce_c");
        Some(reduce_partial_c(
            ctx,
            layer_comm.as_ref().expect("active rank has a layer comm"),
            c_partial,
            msgpass::collectives::Collectives::Flat,
        ))
    }

    /// Schedule: two broadcasts, one GEMM, one reduce-scatter.
    pub fn schedule(&self, placement: &Placement, elem_bytes: f64) -> Schedule {
        let q = self.q;
        let mb = (self.prob.m as f64 / q as f64).ceil();
        let nb = (self.prob.n as f64 / q as f64).ceil();
        let kb = (self.prob.k as f64 / q as f64).ceil();
        let rpn = placement.ranks_per_node;
        let mut s = Schedule::new();
        if q > 1 {
            // grid rows stride by q; grid columns are contiguous
            s.push(
                "replicate_ab",
                Phase::Bcast {
                    grp: NetGroup::strided(q, q, rpn),
                    bytes: mb * kb * elem_bytes,
                },
            );
            s.push(
                "replicate_ab",
                Phase::Bcast {
                    grp: NetGroup::contiguous(q, rpn),
                    bytes: kb * nb * elem_bytes,
                },
            );
        }
        s.push(
            "local_gemm",
            Phase::LocalGemm {
                flops: 2.0 * mb * nb * kb,
            },
        );
        if q > 1 {
            s.push(
                "reduce_c",
                Phase::ReduceScatter {
                    custom_impl: false,
                    grp: NetGroup::strided(q, q * q, rpn),
                    total_bytes: mb * nb * elem_bytes,
                },
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dense::gemm::gemm_naive;
    use dense::random::global_block;
    use dense::testing::assert_gemm_close;
    use msgpass::World;

    fn check(m: usize, n: usize, k: usize, p: usize) {
        let alg = Orig3d::new(Problem::new(m, n, k, p));
        let la = alg.layout_a();
        let lb = alg.layout_b();
        let lc = alg.layout_c();
        la.validate();
        lb.validate();
        lc.validate();
        let a_full = global_block::<f64>(51, Rect::new(0, 0, m, k));
        let b_full = global_block::<f64>(52, Rect::new(0, 0, k, n));
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
            &format!("orig3d {m}x{n}x{k} p={p}"),
        );
    }

    #[test]
    fn cube_of_8() {
        check(16, 16, 16, 8);
    }

    #[test]
    fn cube_of_27_with_uneven_dims() {
        check(13, 17, 19, 27);
    }

    #[test]
    fn non_cube_p_leaves_idle() {
        check(12, 12, 12, 11); // q = 2, 3 idle
    }

    #[test]
    fn single_rank() {
        check(6, 7, 8, 1);
    }

    #[test]
    fn schedule_is_two_bcasts_gemm_reduce() {
        let alg = Orig3d::new(Problem::new(512, 512, 512, 27));
        let s = alg.schedule(&netmodel::Machine::uniform().pure_mpi(), 8.0);
        let labels: Vec<&str> = s.items.iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(
            labels,
            vec!["replicate_ab", "replicate_ab", "local_gemm", "reduce_c"]
        );
    }
}
