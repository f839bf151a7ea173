//! The 2.5D algorithm (Solomonik & Demmel \[16\]) as deployed in the Cyclops
//! Tensor Framework (CTF \[24\]).
//!
//! Grid `s × s × c` with `c | s`: `c` replicated layers of an `s × s`
//! Cannon grid. `A` and `B` start on layer 0 (2D block distribution), are
//! broadcast along the layer axis, and each layer runs `s/c` of the `s`
//! Cannon steps starting at offset `l·s/c`; the partial results are
//! reduce-scattered across layers. With `c = 1` this is plain Cannon.
//!
//! The cost model always includes CTF's internal layout conversion
//! (CTF redistributes every operand into its cyclic layout before
//! computing) and uses no communication/computation overlap — the two
//! behaviours the paper cites when explaining CTF's weaker Fig. 3 results
//! ("CTF is not fine tuned for matrix multiplication").

use crate::ELEM_BYTES;
use ca3dmm::cannon_multi_shift;
use ca3dmm::grid3d::{Coord, Family, Grid3d};
use ca3dmm::model::{push_reduce_c, with_redist};
use dense::part::Rect;
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
        let geo = Grid3d::new(prob, Grid::new(s, s, c), s, &[Family::Tile]);
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
        let Problem { m, n, k, .. } = *self.geo.prob();
        let block = |rows, cols| {
            Rect::full(rows, cols)
                .row_part(self.s, i)
                .col_part(self.s, j)
        };
        [(l == 0).then(|| block(m, k)), (l == 0).then(|| block(k, n))]
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

    /// Blocking façade over [`C25d::multiply_native_async`], kept for the frozen
    /// benchmark until item 7 (ROADMAP.md). Panics on a virtual rank.
    pub fn multiply_native<T: Scalar>(
        &self,
        ctx: &RankCtx,
        world: &Comm,
        a_init: Option<Mat<T>>,
        b_init: Option<Mat<T>>,
    ) -> Option<Mat<T>> {
        ctx.block_on(self.multiply_native_async(ctx, world, a_init, b_init))
    }

    /// Native-layout multiply. Collective over `world`.
    pub async fn multiply_native_async<T: Scalar>(
        &self,
        ctx: &RankCtx,
        world: &Comm,
        a_init: Option<Mat<T>>,
        b_init: Option<Mat<T>>,
    ) -> Option<Mat<T>> {
        let (s, steps) = (self.s, self.s / self.c);
        let comms = self.geo.comms(ctx, world)?;
        let ((_, _, l), flat) = (comms.at(), Collectives::Flat);
        let native = self.native(comms.at());
        let c_strip = comms
            .multiply_native(ctx, [a_init, b_init], native, flat, async |[a, b]| {
                // Replicate A and B from layer 0 along the layer axis.
                ctx.set_phase("replicate_ab");
                let layers = comms.of(Family::Depth);
                let a_blk: Mat<T> = bcast(layers, ctx, 0, a).await;
                let b_blk: Mat<T> = bcast(layers, ctx, 0, b).await;
                // This layer's s/c Cannon rounds, blocking and one GEMM per
                // round (CTF overlaps nothing).
                ctx.set_phase("cannon_shift");
                let mut c_partial = Mat::zeros(a_blk.rows(), b_blk.cols());
                let (tile, window) = (comms.of(Family::Tile), (l * steps, steps));
                cannon_multi_shift(ctx, tile, s, window, a_blk, b_blk, &mut c_partial, 0, false)
                    .await;
                c_partial
            })
            .await;
        Some(c_strip)
    }

    /// Schedule: CTF's cyclic-layout conversions around layer broadcasts,
    /// unoverlapped shifts + GEMM, and the layer reduce-scatter.
    pub fn schedule(&self, placement: &Placement) -> Schedule {
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
                    bytes: (mb * kbs + kbs * nb) * ELEM_BYTES,
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
                    bytes_per_round: (mb * kbs + kbs * nb) * ELEM_BYTES,
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
        let c_bytes = mb * nb * ELEM_BYTES;
        push_reduce_c(
            &mut sched,
            self.geo.grid(),
            rpn,
            c_bytes,
            Collectives::Flat,
            false,
        );
        // CTF converts every operand into its internal cyclic layout and the
        // result back out of it, even when the caller's layout is native.
        with_redist(sched, prob, self.active(), rpn, ELEM_BYTES, 4 * s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_structure() {
        let alg = C25d::new(Problem::new(1024, 1024, 1024, 32), Some((4, 2)));
        let s = alg.schedule(&netmodel::Machine::uniform().pure_mpi());
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
