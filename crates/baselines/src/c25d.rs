//! The 2.5D algorithm (Solomonik & Demmel \[16\]) as deployed in the Cyclops
//! Tensor Framework (CTF \[24\]).
//!
//! Grid `s × s × c` with `c | s`: `c` replicated layers of an `s × s`
//! Cannon grid. `A` and `B` start on layer 0 (2D block distribution), are
//! broadcast along the layer axis, and each layer runs `s/c` of the `s`
//! Cannon steps starting at offset `l·s/c`; the partial results are
//! reduce-scattered across layers. With `c = 1` this is plain Cannon.
//!
//! The cost model optionally includes CTF's internal layout conversion
//! (CTF redistributes every operand into its cyclic layout before
//! computing) and uses no communication/computation overlap — the two
//! behaviours the paper cites when explaining CTF's weaker Fig. 3 results
//! ("CTF is not fine tuned for matrix multiplication").

use crate::grid3d::{Coord, Grid3d};
use ca3dmm::model::{push_reduce_c, with_redist};
use ca3dmm::msg::{from_msg, to_msg};
use dense::gemm::{gemm, GemmOp};
use dense::part::{even_range, Rect};
use dense::{Mat, Scalar};
use gridopt::{Grid, Problem};
use layout::Layout;
use msgpass::collectives::{bcast, Collectives};
use msgpass::{Comm, RankCtx};
use netmodel::machine::Placement;
use netmodel::{NetGroup, Phase, Schedule};

/// A configured 2.5D multiplication.
pub struct C25d {
    geo: Grid3d,
    /// Cannon grid side.
    pub s: usize,
    /// Replication layers (`c | s`).
    pub c: usize,
}

impl C25d {
    /// Chooses `(s, c)` with `c | s` and `s²·c ≤ P`, minimizing the eq.-4
    /// surface proxy (2.5D has no shape-adaptive grid — this mirrors CTF
    /// picking its replication factor for the memory available).
    pub fn new(prob: Problem, sc_override: Option<(usize, usize)>) -> Self {
        if let Some((s, c)) = sc_override {
            assert!(c >= 1 && s >= c && s % c == 0, "need c | s");
            return C25d::on(prob, s, c);
        }
        let mut best: Option<(u128, usize, usize, usize)> = None; // (surface, -active, s, c)
        for c in 1..=prob.p {
            let mut s = ((prob.p / c) as f64).sqrt().floor() as usize;
            if s == 0 {
                break;
            }
            s -= s % c.min(s); // force c | s (s=0 handled below)
            if s < c || s == 0 {
                if c == 1 {
                    s = 1;
                } else {
                    continue;
                }
            }
            let g = Grid::new(s, s, c);
            let surf = g.surface(prob.m, prob.n, prob.k);
            let cand = (surf, usize::MAX - g.active(), s, c);
            if best.is_none() || cand < best.unwrap() {
                best = Some(cand);
            }
        }
        let (_, _, s, c) = best.expect("P >= 1 always admits s = c = 1");
        C25d::on(prob, s, c)
    }

    fn on(prob: Problem, s: usize, c: usize) -> Self {
        let geo = Grid3d::new(prob, Grid::new(s, s, c));
        C25d { geo, s, c }
    }

    /// Active ranks `s²·c`.
    pub fn active(&self) -> usize {
        self.geo.grid().active()
    }

    /// Layer 0 holds the one copy of `A` and `B` as 2D blocks of the
    /// `s × s` grid: `A(m_i, k_j)`, `B(k_i, n_j)` with the whole of `k`
    /// split `s` ways (layers select Cannon steps, not k-ranges).
    fn native(&self, (i, j, l): Coord) -> [Option<Rect>; 2] {
        let ((r0, r1), (c0, c1)) = (self.geo.m_range(i), self.geo.n_range(j));
        let k = self.geo.prob().k;
        let ((ka0, ka1), (kb0, kb1)) = (even_range(k, self.s, j), even_range(k, self.s, i));
        [
            (l == 0).then(|| Rect::new(r0, ka0, r1 - r0, ka1 - ka0)),
            (l == 0).then(|| Rect::new(kb0, c0, kb1 - kb0, c1 - c0)),
        ]
    }

    /// Initial layout of `A`: 2D blocks on layer 0 only.
    pub fn layout_a(&self) -> Layout {
        self.geo.layout_a(|at| self.native(at))
    }

    /// Initial layout of `B`: 2D blocks on layer 0 only.
    pub fn layout_b(&self) -> Layout {
        self.geo.layout_b(|at| self.native(at))
    }

    /// Output layout: row-strip `l` of C block `(i, j)`.
    pub fn layout_c(&self) -> Layout {
        self.geo.layout_c()
    }

    /// Native-layout multiply. Collective over `world`.
    pub fn multiply_native<T: Scalar>(
        &self,
        ctx: &RankCtx,
        world: &Comm,
        a_init: Option<Mat<T>>,
        b_init: Option<Mat<T>>,
    ) -> Option<Mat<T>> {
        let (s, steps) = (self.s, self.s / self.c);
        let native = |at| self.native(at);
        self.geo.multiply_native(
            ctx,
            world,
            [a_init, b_init],
            native,
            |comms, (_, _, l), [a, b]| {
                // Replicate A and B from layer 0 along the layer axis.
                ctx.set_phase("replicate_ab");
                let a_blk = from_msg(bcast(&comms.depth, ctx, 0, a.map(to_msg)));
                let b_blk = from_msg(bcast(&comms.depth, ctx, 0, b.map(to_msg)));
                // Offset skew + s/c Cannon steps on this layer.
                ctx.set_phase("cannon_shift");
                cannon_offset(ctx, &comms.plane, s, l * steps, steps, a_blk, b_blk)
            },
        )
    }

    /// Schedule: layer broadcasts, unoverlapped shifts + GEMM, layer
    /// reduce-scatter, and (optionally) CTF's cyclic-layout conversions.
    pub fn schedule(
        &self,
        placement: &Placement,
        elem_bytes: f64,
        ctf_layout_overhead: bool,
    ) -> Schedule {
        let (s, c, prob) = (self.s, self.c, self.geo.prob());
        let mb = (prob.m as f64 / s as f64).ceil();
        let nb = (prob.n as f64 / s as f64).ceil();
        let kbs = (prob.k as f64 / s as f64).ceil();
        let rpn = placement.ranks_per_node;
        let mut sched = Schedule::new();
        if c > 1 {
            // layer groups stride by a whole layer (s² ranks)
            sched.push(
                "replicate_ab",
                Phase::Bcast {
                    grp: NetGroup::strided(c, s * s, rpn),
                    bytes: (mb * kbs + kbs * nb) * elem_bytes,
                },
            );
        }
        let steps = s / c;
        if s > 1 {
            sched.push(
                "replicate_ab",
                Phase::ShiftRounds {
                    grp: NetGroup::strided(s * s, s.min(rpn.max(1)), rpn),
                    rounds: steps, // offset skew + steps-1 shifts
                    bytes_per_round: (mb * kbs + kbs * nb) * elem_bytes,
                    // the canonical 2.5D shift moves A and B in one
                    // combined exchange per round
                    msgs_per_round: 1,
                },
            );
        }
        sched.push(
            "local_gemm",
            Phase::LocalGemm {
                flops: 2.0 * mb * nb * kbs * steps as f64,
            },
        );
        let c_bytes = mb * nb * elem_bytes;
        push_reduce_c(
            &mut sched,
            self.geo.grid(),
            rpn,
            c_bytes,
            Collectives::Flat,
            false,
        );
        if ctf_layout_overhead {
            // CTF converts every operand into its internal cyclic layout
            // and the result back out of it.
            sched = with_redist(sched, prob, self.active(), rpn, elem_bytes, 4 * s);
        }
        sched
    }
}

/// Cannon with a starting offset on an `s × s` group ordered `i + j·s`:
/// returns the sum of the `steps` products
/// `A(i, i+j+off+t)·B(i+j+off+t, j)`, `t = 0..steps`. `off = 0, steps = s`
/// is classic Cannon.
fn cannon_offset<T: Scalar>(
    ctx: &RankCtx,
    group: &Comm,
    s: usize,
    off: usize,
    steps: usize,
    a0: Mat<T>,
    b0: Mat<T>,
) -> Mat<T> {
    const TAG_A: u64 = 201;
    const TAG_B: u64 = 202;
    let (i, j) = (group.rank() % s, group.rank() / s);
    let mut c_out = Mat::zeros(a0.rows(), b0.cols());
    let mut accumulate = |a: &Mat<T>, b: &Mat<T>| {
        let op = GemmOp::NoTrans;
        gemm(op, op, T::ONE, a, b, T::ONE, &mut c_out);
    };
    if s == 1 {
        accumulate(&a0, &b0);
        return c_out;
    }
    let idx = |ii: usize, jj: usize| ii + jj * s;
    // Skew A left by (i + off): rank (i, j) ends up holding A(i, i+j+off).
    let sh_a = (i + off) % s;
    let mut a_cur = if sh_a == 0 {
        a0
    } else {
        let dst = idx(i, (j + s - sh_a) % s);
        let src = idx(i, (j + sh_a) % s);
        from_msg(group.sendrecv(ctx, dst, src, TAG_A, to_msg(a0)))
    };
    let sh_b = (j + off) % s;
    let mut b_cur = if sh_b == 0 {
        b0
    } else {
        let dst = idx((i + s - sh_b) % s, j);
        let src = idx((i + sh_b) % s, j);
        from_msg(group.sendrecv(ctx, dst, src, TAG_B, to_msg(b0)))
    };
    for t in 0..steps {
        accumulate(&a_cur, &b_cur);
        if t + 1 < steps {
            let a_dst = idx(i, (j + s - 1) % s);
            let a_src = idx(i, (j + 1) % s);
            a_cur = from_msg(group.sendrecv(ctx, a_dst, a_src, TAG_A, to_msg(a_cur)));
            let b_dst = idx((i + s - 1) % s, j);
            let b_src = idx((i + 1) % s, j);
            b_cur = from_msg(group.sendrecv(ctx, b_dst, b_src, TAG_B, to_msg(b_cur)));
        }
    }
    c_out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_structure() {
        let alg = C25d::new(Problem::new(1024, 1024, 1024, 32), Some((4, 2)));
        let s = alg.schedule(&netmodel::Machine::uniform().pure_mpi(), 8.0, true);
        let labels: Vec<&str> = s.items.iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(labels[0], "redist");
        assert!(labels.contains(&"replicate_ab"));
        assert!(labels.contains(&"reduce_c"));
        assert_eq!(*labels.last().unwrap(), "redist");
    }

    #[test]
    fn auto_grid_respects_divisibility() {
        for p in [1usize, 2, 4, 8, 16, 17, 32, 64, 100] {
            let alg = C25d::new(Problem::new(64, 64, 64, p), None);
            assert!(
                alg.s.is_multiple_of(alg.c),
                "c must divide s: s={} c={}",
                alg.s,
                alg.c
            );
            assert!(alg.active() <= p);
        }
    }
}
