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

use ca3dmm::msg::{from_msg, to_msg};
use ca3dmm::reduce::reduce_partial_c;
use dense::gemm::{gemm, GemmOp};
use dense::part::{even_range, Rect};
use dense::{Mat, Scalar};
use gridopt::Problem;
use layout::Layout;
use msgpass::collectives::bcast;
use msgpass::{Comm, RankCtx};
use netmodel::machine::Placement;
use netmodel::{NetGroup, Phase, Schedule};

/// A configured 2.5D multiplication.
pub struct C25d {
    prob: Problem,
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
            assert!(s * s * c <= prob.p, "grid exceeds P");
            return C25d { prob, s, c };
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
            let g = gridopt::Grid::new(s, s, c);
            let surf = g.surface(prob.m, prob.n, prob.k);
            let cand = (surf, usize::MAX - g.active(), s, c);
            if best.is_none() || cand < best.unwrap() {
                best = Some(cand);
            }
        }
        let (_, _, s, c) = best.expect("P >= 1 always admits s = c = 1");
        C25d { prob, s, c }
    }

    /// Active ranks `s²·c`.
    pub fn active(&self) -> usize {
        self.s * self.s * self.c
    }

    /// Grid position `(i, j, l)` of a world rank (`world = l·s² + i + j·s`);
    /// `None` for idle ranks.
    fn active_coord(&self, world: usize) -> Option<(usize, usize, usize)> {
        let s2 = self.s * self.s;
        (world < self.active()).then(|| (world % s2 % self.s, world % s2 / self.s, world / s2))
    }

    /// Initial layout of `A`: 2D blocks on layer 0 only.
    pub fn layout_a(&self) -> Layout {
        Layout::one_rect_per_rank(self.prob.m, self.prob.k, self.prob.p, |r| {
            let (i, j, _) = self.active_coord(r).filter(|&(_, _, l)| l == 0)?;
            let (r0, r1) = even_range(self.prob.m, self.s, i);
            let (k0, k1) = even_range(self.prob.k, self.s, j);
            Some(Rect::new(r0, k0, r1 - r0, k1 - k0))
        })
    }

    /// Initial layout of `B`: 2D blocks on layer 0 only.
    pub fn layout_b(&self) -> Layout {
        Layout::one_rect_per_rank(self.prob.k, self.prob.n, self.prob.p, |r| {
            let (i, j, _) = self.active_coord(r).filter(|&(_, _, l)| l == 0)?;
            let (k0, k1) = even_range(self.prob.k, self.s, i);
            let (c0, c1) = even_range(self.prob.n, self.s, j);
            Some(Rect::new(k0, c0, k1 - k0, c1 - c0))
        })
    }

    /// Output layout: row-strip `l` of C block `(i, j)`.
    pub fn layout_c(&self) -> Layout {
        Layout::one_rect_per_rank(self.prob.m, self.prob.n, self.prob.p, |r| {
            let (i, j, l) = self.active_coord(r)?;
            let (r0, r1) = even_range(self.prob.m, self.s, i);
            let (c0, c1) = even_range(self.prob.n, self.s, j);
            let (o0, o1) = even_range(r1 - r0, self.c, l);
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
        let (s, c) = (self.s, self.c);
        let s2 = s * s;
        let layer_groups: Vec<Vec<usize>> = (0..s2)
            .map(|idx| (0..c).map(|l| l * s2 + idx).collect())
            .collect();
        let layer_comm = world.subgroup(ctx, &layer_groups);
        let cannon_groups: Vec<Vec<usize>> =
            (0..c).map(|l| (l * s2..(l + 1) * s2).collect()).collect();
        let cannon_comm = world.subgroup(ctx, &cannon_groups);

        let (i, j, l) = self.active_coord(world.rank())?;
        let (r0, r1) = even_range(self.prob.m, s, i);
        let (c0, c1) = even_range(self.prob.n, s, j);
        let (ka0, ka1) = even_range(self.prob.k, s, j);
        let (kb0, kb1) = even_range(self.prob.k, s, i);

        // Replicate A and B from layer 0 along the layer axis.
        ctx.set_phase("replicate_ab");
        let lc = layer_comm.as_ref().expect("active rank has a layer comm");
        let a_blk = from_msg(bcast(
            lc,
            ctx,
            0,
            (l == 0).then(|| {
                to_msg(
                    a_init
                        .clone()
                        .unwrap_or_else(|| Mat::zeros(r1 - r0, ka1 - ka0)),
                )
            }),
        ));
        let b_blk = from_msg(bcast(
            lc,
            ctx,
            0,
            (l == 0).then(|| {
                to_msg(
                    b_init
                        .clone()
                        .unwrap_or_else(|| Mat::zeros(kb1 - kb0, c1 - c0)),
                )
            }),
        ));

        // Offset skew + s/c Cannon steps on this layer.
        ctx.set_phase("cannon_shift");
        let cc = cannon_comm.as_ref().expect("active rank has a Cannon comm");
        let steps = s / c;
        let off = l * steps;
        let mut c_partial = Mat::zeros(r1 - r0, c1 - c0);
        cannon_offset(ctx, cc, s, i, j, off, steps, a_blk, b_blk, &mut c_partial);

        // Reduce across layers.
        ctx.set_phase("reduce_c");
        Some(reduce_partial_c(
            ctx,
            lc,
            c_partial,
            msgpass::collectives::Collectives::Flat,
        ))
    }

    /// Schedule: layer broadcasts, unoverlapped shifts + GEMM, layer
    /// reduce-scatter, and (optionally) CTF's cyclic-layout conversions.
    pub fn schedule(
        &self,
        placement: &Placement,
        elem_bytes: f64,
        ctf_layout_overhead: bool,
    ) -> Schedule {
        let (s, c) = (self.s, self.c);
        let active = self.active();
        let mb = (self.prob.m as f64 / s as f64).ceil();
        let nb = (self.prob.n as f64 / s as f64).ceil();
        let kbs = (self.prob.k as f64 / s as f64).ceil();
        let rpn = placement.ranks_per_node;
        let _ = active;
        let mut sched = Schedule::new();
        if ctf_layout_overhead {
            // CTF converts every operand into its internal cyclic layout.
            let send = (self.prob.m as f64 * self.prob.k as f64
                + self.prob.k as f64 * self.prob.n as f64)
                / self.prob.p as f64
                * elem_bytes;
            sched.push(
                "redist",
                Phase::Alltoallv {
                    grp: NetGroup::scattered(self.prob.p, rpn),
                    send_bytes: send,
                    peers: self.prob.p.min(4 * s),
                },
            );
        }
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
        if c > 1 {
            sched.push(
                "reduce_c",
                Phase::ReduceScatter {
                    custom_impl: false,
                    grp: NetGroup::strided(c, s * s, rpn),
                    total_bytes: mb * nb * elem_bytes,
                },
            );
        }
        if ctf_layout_overhead {
            let send = (self.prob.m as f64 * self.prob.n as f64) / active as f64 * elem_bytes;
            sched.push(
                "redist",
                Phase::Alltoallv {
                    grp: NetGroup::scattered(self.prob.p, rpn),
                    send_bytes: send,
                    peers: self.prob.p.min(4 * s),
                },
            );
        }
        sched
    }
}

/// Cannon with a starting offset: computes the `steps` products
/// `A(i, i+j+off+t)·B(i+j+off+t, j)`, `t = 0..steps`, accumulating into
/// `c_out`. `off = 0, steps = s` is classic Cannon.
#[allow(clippy::too_many_arguments)]
fn cannon_offset<T: Scalar>(
    ctx: &RankCtx,
    group: &Comm,
    s: usize,
    i: usize,
    j: usize,
    off: usize,
    steps: usize,
    a0: Mat<T>,
    b0: Mat<T>,
    c_out: &mut Mat<T>,
) {
    const TAG_A: u64 = 201;
    const TAG_B: u64 = 202;
    if s == 1 {
        gemm(
            GemmOp::NoTrans,
            GemmOp::NoTrans,
            T::ONE,
            &a0,
            &b0,
            T::ONE,
            c_out,
        );
        return;
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
        gemm(
            GemmOp::NoTrans,
            GemmOp::NoTrans,
            T::ONE,
            &a_cur,
            &b_cur,
            T::ONE,
            c_out,
        );
        if t + 1 < steps {
            let a_dst = idx(i, (j + s - 1) % s);
            let a_src = idx(i, (j + 1) % s);
            a_cur = from_msg(group.sendrecv(ctx, a_dst, a_src, TAG_A, to_msg(a_cur)));
            let b_dst = idx((i + s - 1) % s, j);
            let b_src = idx((i + 1) % s, j);
            b_cur = from_msg(group.sendrecv(ctx, b_dst, b_src, TAG_B, to_msg(b_cur)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dense::gemm::gemm_naive;
    use dense::random::global_block;
    use dense::testing::assert_gemm_close;
    use msgpass::World;

    fn check(m: usize, n: usize, k: usize, p: usize, sc: Option<(usize, usize)>) {
        let alg = C25d::new(Problem::new(m, n, k, p), sc);
        let la = alg.layout_a();
        let lb = alg.layout_b();
        let lc = alg.layout_c();
        la.validate();
        lb.validate();
        lc.validate();
        let a_full = global_block::<f64>(61, Rect::new(0, 0, m, k));
        let b_full = global_block::<f64>(62, Rect::new(0, 0, k, n));
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
            &format!("c25d {m}x{n}x{k} p={p} s={} c={}", alg.s, alg.c),
        );
    }

    #[test]
    fn c_equals_1_is_cannon() {
        check(12, 12, 12, 4, Some((2, 1)));
    }

    #[test]
    fn two_layers() {
        check(16, 16, 16, 8, Some((2, 2)));
    }

    #[test]
    fn four_by_four_two_layers() {
        check(16, 20, 24, 32, Some((4, 2)));
    }

    #[test]
    fn four_layers() {
        check(16, 16, 32, 64, Some((4, 4)));
    }

    #[test]
    fn auto_grid_and_idle_ranks() {
        check(18, 18, 18, 11, None); // auto: likely s=3,c=1 with 2 idle
        check(14, 15, 16, 9, None);
    }

    #[test]
    fn uneven_dims_with_layers() {
        check(13, 17, 19, 8, Some((2, 2)));
    }

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
