//! Cannon's algorithm on one `s × s` Cannon group (Algorithm 1 step 6).
//!
//! The classic algorithm (paper reference \[19\]) with the generalizations
//! the paper's setting needs:
//!
//! * **uneven blocks** — matrix dimensions need not divide `s`; blocks carry
//!   their shape with them (`Mat` is a `msgpass::Payload`) and the
//!   k-sub-ranges circulate consistently between `A` and `B`, so inner
//!   dimensions always agree;
//! * **degenerate grids** — `s = 1` reduces to one local GEMM, which is how
//!   CA3DMM falls back to 1D algorithms for tall-and-skinny problems;
//! * **a window of rounds** — 2.5D runs rounds `l·s/c .. (l+1)·s/c` of the
//!   `s` on layer `l`; classic Cannon is the whole window `(0, s)`.
//!
//! The group communicator indexes ranks in column-major order,
//! `idx = i + j·s`.

use dense::gemm::{gemm_flops, gemm_ksplit, gemm_ksplit_new, GemmOp};
use dense::{Mat, Scalar};
use msgpass::{Comm, RankCtx, RecvReq};
use std::borrow::Borrow;
use std::sync::Arc;

/// Message tag for A-block movement.
const TAG_A: u64 = 101;
/// Message tag for B-block movement.
const TAG_B: u64 = 102;

/// One round's `(A, B)` blocks, shared with any in-flight shift of the same
/// buffers.
type BlockPair<T> = (Arc<Mat<T>>, Arc<Mat<T>>);

/// A rank's local `C` block while its products arrive: reserved memory
/// until the first product overwrites it ([`gemm_ksplit_new`]: never
/// zero-filled, never read back with `beta = 1`), then the running sum.
/// Reserve it where the algorithm starts, before its messages and products
/// allocate: the block then takes the same heap slot on every op, where
/// allocating it at the first product fragments a heap shared by the ranks
/// (measured: +9 MiB peak RSS for 1536³ on 8 ranks with one glibc arena).
pub enum LocalC<T: Scalar> {
    /// Room for the block; no product yet.
    Reserved(Vec<T>),
    /// The sum of the products so far.
    Sum(Mat<T>),
}

impl<T: Scalar> LocalC<T> {
    /// Reserves room for a `rows × cols` block.
    pub fn reserve(rows: usize, cols: usize) -> Self {
        LocalC::Reserved(Vec::with_capacity(rows * cols))
    }

    /// The `rows × cols` block: the sum, or zeros if no product was
    /// computed (none arrived, or a virtual-time run skipped compute).
    pub fn into_mat(self, rows: usize, cols: usize) -> Mat<T> {
        match self {
            LocalC::Sum(c) => c,
            LocalC::Reserved(_) => Mat::zeros(rows, cols),
        }
    }
}

/// `C += Σ_r A_r·B_r` into `c` (the first product overwrites it, see
/// [`LocalC`]) as one GEMM of the pairs' k-concatenation
/// ([`gemm_ksplit`]), charged to the rank's virtual clock: the local GEMM
/// of all six algorithms (Cannon's batched rounds, SUMMA's panels, the
/// single products of COSMA-like and original 3D — one pair each). The
/// flop count `2·rows·cols·Σ k_r` is charged once (a no-op in wall-clock
/// runs), and the kernel itself runs unless a virtual-time run asked to
/// skip compute (`SimOptions::execute_compute = false`, the paper-scale
/// configuration where executing ~p·mnk flops on one host would dwarf the
/// simulation).
pub fn charged_gemm<T: Scalar, M: Borrow<Mat<T>> + Sync>(
    ctx: &RankCtx,
    pairs: &[(M, M)],
    c: &mut LocalC<T>,
) {
    let (a, b) = (pairs[0].0.borrow(), pairs[0].1.borrow());
    let k: usize = pairs.iter().map(|(a, _)| a.borrow().cols()).sum();
    ctx.charge_flops(gemm_flops(a.rows(), b.cols(), k));
    if ctx.executes_compute() {
        let (nt, one) = (GemmOp::NoTrans, T::ONE);
        match c {
            LocalC::Sum(sum) => gemm_ksplit(nt, nt, one, pairs, one, sum),
            LocalC::Reserved(buf) => {
                *c = LocalC::Sum(gemm_ksplit_new(nt, nt, one, pairs, std::mem::take(buf)));
            }
        }
    }
}

/// `A·B` as a new block, charged as [`charged_gemm`]: a `C` with no other
/// contribution.
pub fn charged_product<T: Scalar>(ctx: &RankCtx, a: &Mat<T>, b: &Mat<T>) -> Mat<T> {
    let mut c = LocalC::Reserved(Vec::new());
    charged_gemm(ctx, &[(a, b)], &mut c);
    c.into_mat(a.rows(), b.cols())
}

/// The initial skew to round `off`: A(i, j) moves left by `i + off`,
/// B(i, j) up by `j + off`, so position `(i, j)` holds `A(i, i+j+off)` and
/// `B(i+j+off, j)`.
async fn skew<T: Scalar>(
    ctx: &RankCtx,
    group: &Comm,
    s: usize,
    off: usize,
    a0: Mat<T>,
    b0: Mat<T>,
) -> (Mat<T>, Mat<T>) {
    let (i, j) = (group.rank() % s, group.rank() / s);
    let idx = |ii: usize, jj: usize| ii + jj * s;
    let (by_a, by_b) = ((i + off) % s, (j + off) % s);
    let shift = async |by: usize, dst: usize, src: usize, tag: u64, blk: Mat<T>| match by {
        0 => blk,
        _ => group.sendrecv(ctx, dst, src, tag, blk).await,
    };
    let (a_dst, a_src) = (idx(i, (j + s - by_a) % s), idx(i, (j + by_a) % s));
    let (b_dst, b_src) = (idx((i + s - by_b) % s, j), idx((i + by_b) % s, j));
    (
        shift(by_a, a_dst, a_src, TAG_A, a0).await,
        shift(by_b, b_dst, b_src, TAG_B, b0).await,
    )
}

/// Runs rounds `off .. off + steps` of Cannon's algorithm on an `s × s`
/// group; `(0, s)` is the classic algorithm. `a0`/`b0` are this rank's
/// *natural* (skew-free) blocks — `A(i, j)` and `B(i, j)` in block
/// coordinates, `(i, j) = (rank mod s, rank / s)`; the initial skew is
/// performed here, as in the original algorithm (the paper's latency
/// analysis eq. 10 counts it: `p_s` rounds = 1 skew + `s−1` shifts).
/// Returns the `(rows of A-block) × (cols of B-block)` local result block:
/// `c` plus the sum of the window's products `A(i, i+j+t)·B(i+j+t, j)`,
/// `t = off .. off + steps`. A [`LocalC::reserve`]d `c` is overwritten by
/// the first flushed product, a [`LocalC::Sum`] (of that shape) is
/// accumulated into.
///
/// `min_k_per_gemm` is the §III-F multi-shift optimization: "to maintain the
/// efficiency of local matrix multiplication, we perform multiple shifts
/// for one local matrix multiplication if A and B blocks … do not have a
/// large enough k-dimension size." While the batched k-extent is below it,
/// consecutive rounds' blocks are held and then multiplied in one
/// [`charged_gemm`] over the batch — the k-sub-ranges circulate in
/// matching order, so the A blocks side by side and the B blocks stacked
/// are one product, which the kernel packs straight from the blocks: one
/// pass over `C` per batch instead of per round. CA3DMM passes
/// [`dense::tune::KC_FLOOR`] (64) by default (`Ca3dmmOptions`), the
/// shallowest depth slab of any host's blocking; `0` is plain Cannon, one
/// GEMM per round (the ablation, and what CTF-like 2.5D runs).
/// Communication is the same either way — the same rounds move the same
/// bytes; only the GEMM granularity changes.
///
/// `overlap` selects the §III-F communication/computation overlap, a
/// double-buffered pipeline on nonblocking point-to-point: each round posts
/// the irecvs and isends for round *t+1* **before** flushing the round-*t*
/// batch, then waits — on real threads the shift proceeds while the kernel
/// runs, and under virtual time the round is charged `max(compute, shift)`
/// instead of their sum (the model's `CannonConfig::overlap` pricing).
/// `false` is the blocking reference: each shift completes before the
/// flush. The initial skew is blocking in both: nothing can overlap it.
/// Results are bitwise identical between the two — the same blocks meet in
/// the same GEMM order.
///
/// Blocks circulate behind an `Arc`: sending the block the GEMM is reading
/// costs one refcount bump, and the received block is adopted without
/// copying.
#[allow(clippy::too_many_arguments)]
pub async fn cannon_multi_shift<T: Scalar>(
    ctx: &RankCtx,
    group: &Comm,
    s: usize,
    (off, steps): (usize, usize),
    a0: Mat<T>,
    b0: Mat<T>,
    mut c: LocalC<T>,
    min_k_per_gemm: usize,
    overlap: bool,
) -> Mat<T> {
    assert_eq!(group.size(), s * s, "Cannon group must have s^2 ranks");
    assert!(steps >= 1 && off + steps <= s, "round window outside 0..s");
    let (i, j) = (group.rank() % s, group.rank() / s);
    let idx = |ii: usize, jj: usize| ii + jj * s;
    let (rows, cols) = (a0.rows(), b0.cols());
    let (a_skewed, b_skewed) = skew(ctx, group, s, off, a0, b0).await;
    let (mut a_cur, mut b_cur) = (Arc::new(a_skewed), Arc::new(b_skewed));
    let (a_dst, a_src) = (idx(i, (j + s - 1) % s), idx(i, (j + 1) % s));
    let (b_dst, b_src) = (idx((i + s - 1) % s, j), idx((i + 1) % s, j));

    /// Round-(t+1) blocks between their shift being issued and the round-t
    /// flush: already here (blocking mode) or still in flight (overlap).
    enum Next<T: Scalar> {
        Ready(Arc<Mat<T>>, Arc<Mat<T>>),
        Posted(RecvReq<Arc<Mat<T>>>, RecvReq<Arc<Mat<T>>>),
    }

    let mut batch: Vec<BlockPair<T>> = Vec::new();
    let mut batched_k = 0usize;
    for t in 0..steps {
        let last = t + 1 == steps;
        // Issue the shift first; the batch and the outgoing message share
        // the block through its `Arc`.
        let next = if last {
            None
        } else if overlap {
            let ra = group.irecv::<Arc<Mat<T>>>(ctx, a_src, TAG_A);
            let rb = group.irecv::<Arc<Mat<T>>>(ctx, b_src, TAG_B);
            group.isend(ctx, a_dst, TAG_A, Arc::clone(&a_cur));
            group.isend(ctx, b_dst, TAG_B, Arc::clone(&b_cur));
            Some(Next::Posted(ra, rb))
        } else {
            let a_next = group
                .sendrecv(ctx, a_dst, a_src, TAG_A, Arc::clone(&a_cur))
                .await;
            let b_next = group
                .sendrecv(ctx, b_dst, b_src, TAG_B, Arc::clone(&b_cur))
                .await;
            Some(Next::Ready(a_next, b_next))
        };
        batched_k += a_cur.cols();
        batch.push((a_cur, b_cur));
        if batched_k >= min_k_per_gemm || last {
            charged_gemm(ctx, &batch, &mut c);
            batch.clear();
            batched_k = 0;
        }
        match next {
            Some(Next::Ready(a, b)) => {
                a_cur = a;
                b_cur = b;
            }
            Some(Next::Posted(ra, rb)) => {
                a_cur = ra.wait(ctx).await;
                b_cur = rb.wait(ctx).await;
            }
            None => break,
        }
    }
    debug_assert!(batch.is_empty(), "all batched blocks multiplied");
    c.into_mat(rows, cols)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dense::gemm::gemm_naive;
    use dense::part::{even_range, Rect};
    use dense::random::global_block;
    use dense::testing::assert_gemm_close;
    use msgpass::World;

    /// This rank's natural blocks of the seeded global `A` (`m × k`) and
    /// `B` (`k × n`) on an s×s grid, plus its `C` block filled with
    /// `c_init`: A(i, j) uses k-part j, B(i, j) uses k-part i.
    fn natural_blocks(
        m: usize,
        n: usize,
        k: usize,
        s: usize,
        i: usize,
        j: usize,
        c_init: f64,
    ) -> (Mat<f64>, Mat<f64>, Mat<f64>) {
        let (r0, r1) = even_range(m, s, i);
        let (c0, c1) = even_range(n, s, j);
        let (ka0, ka1) = even_range(k, s, j);
        let (kb0, kb1) = even_range(k, s, i);
        (
            global_block::<f64>(1, Rect::new(r0, ka0, r1 - r0, ka1 - ka0)),
            global_block::<f64>(2, Rect::new(kb0, c0, kb1 - kb0, c1 - c0)),
            Mat::from_fn(r1 - r0, c1 - c0, |_, _| c_init),
        )
    }

    /// Full end-to-end Cannon check on an s×s grid with arbitrary m, n, k:
    /// every rank's block of `c_init + A·B` against the serial reference
    /// (up to summation-order rounding). The `s` rounds run as `windows`
    /// consecutive calls of `s / windows` rounds each, all accumulating into
    /// the same block — 2.5D's layers, one after the other.
    fn check(
        (m, n, k): (usize, usize, usize),
        s: usize,
        windows: usize,
        min_k: usize,
        overlap: bool,
        c_init: f64,
    ) {
        let steps = s / windows;
        let results = World::run(s * s, async |ctx| {
            let comm = Comm::world(ctx);
            let me = comm.rank();
            let (i, j) = (me % s, me / s);
            let (a, b, c0) = natural_blocks(m, n, k, s, i, j, c_init);
            // A zero start is left to the first product to overwrite.
            let mut c = if c_init == 0.0 {
                LocalC::reserve(c0.rows(), c0.cols())
            } else {
                LocalC::Sum(c0)
            };
            for l in 0..windows {
                let window = (l * steps, steps);
                let (a, b) = (a.clone(), b.clone());
                let sum = cannon_multi_shift(ctx, &comm, s, window, a, b, c, min_k, overlap).await;
                c = LocalC::Sum(sum);
            }
            let LocalC::Sum(c) = c else {
                unreachable!("every window returns the block")
            };
            (i, j, c)
        });
        let a_full = global_block::<f64>(1, Rect::new(0, 0, m, k));
        let b_full = global_block::<f64>(2, Rect::new(0, 0, k, n));
        let mut c_full = Mat::from_fn(m, n, |_, _| c_init);
        gemm_naive(
            GemmOp::NoTrans,
            GemmOp::NoTrans,
            1.0,
            &a_full,
            &b_full,
            1.0,
            &mut c_full,
        );
        for (i, j, c) in results {
            let (r0, r1) = even_range(m, s, i);
            let (c0, c1) = even_range(n, s, j);
            let want = c_full.block(Rect::new(r0, c0, r1 - r0, c1 - c0));
            let what =
                format!("cannon windows={windows} min_k={min_k} overlap={overlap} block ({i},{j})");
            assert_gemm_close(&c, &want, k, &what);
        }
    }

    /// Plain Cannon (`min_k = 0`), blocking and overlapped.
    fn check_cannon(m: usize, n: usize, k: usize, s: usize) {
        for overlap in [false, true] {
            check((m, n, k), s, 1, 0, overlap, 0.0);
        }
    }

    #[test]
    fn single_process() {
        check_cannon(7, 5, 9, 1);
    }

    #[test]
    fn two_by_two_even() {
        check_cannon(8, 8, 8, 2);
    }

    #[test]
    fn three_by_three_uneven() {
        check_cannon(10, 11, 13, 3);
    }

    #[test]
    fn four_by_four() {
        check_cannon(16, 12, 20, 4);
    }

    #[test]
    fn dimensions_smaller_than_grid() {
        // k=2 over s=3: one k-part is empty
        check_cannon(6, 6, 2, 3);
        // m=1: most row parts empty
        check_cannon(1, 9, 9, 3);
    }

    #[test]
    fn accumulates_into_existing_c() {
        // C starts at ones; after cannon it must be ones + A*B.
        for overlap in [false, true] {
            check((6, 6, 6), 2, 1, 0, overlap, 1.0);
        }
    }

    #[test]
    fn round_windows_sum_to_the_product() {
        // 2.5D's use: layer l of c runs rounds l·s/c .. (l+1)·s/c; over all
        // layers every A(i, ·)·B(·, j) pair meets exactly once.
        for (s, c) in [(2, 1), (2, 2), (4, 1), (4, 2), (4, 4)] {
            for overlap in [false, true] {
                check((13, 10, 19), s, c, 0, overlap, 0.0);
                check((5, 7, 3), s, c, 0, overlap, 1.0);
            }
        }
    }

    #[test]
    fn multi_shift_thresholds() {
        // thin k per block (12/3 = 4): batch 2 blocks (min_k 8), all blocks
        // (min_k 100), or none (min_k 1, flushes every block)
        for min_k in [1usize, 4, 8, 100] {
            for overlap in [false, true] {
                check((9, 9, 12), 3, 1, min_k, overlap, 0.0);
            }
        }
    }

    #[test]
    fn multi_shift_uneven_blocks() {
        for min_k in [5usize, 64] {
            for overlap in [false, true] {
                check((10, 11, 13), 3, 1, min_k, overlap, 0.0);
                check((7, 9, 17), 4, 1, min_k, overlap, 0.0);
            }
        }
    }

    /// One traced 3×3 Cannon run on a 9³ problem, all traffic labelled
    /// `cannon_shift`.
    fn traced(min_k: usize, overlap: bool) -> msgpass::RunReport {
        let (s, m) = (3, 9);
        let (_, report) = World::run_traced(s * s, async |ctx| {
            let comm = Comm::world(ctx);
            ctx.set_phase("cannon_shift");
            let me = comm.rank();
            let (i, j) = (me % s, me / s);
            let (a, b, c) = natural_blocks(m, m, m, s, i, j, 0.0);
            let c = LocalC::reserve(c.rows(), c.cols());
            cannon_multi_shift(ctx, &comm, s, (0, s), a, b, c, min_k, overlap).await;
        });
        report
    }

    #[test]
    fn multi_shift_traffic_equals_plain_cannon() {
        // Neither batching nor overlap may change what goes on the wire:
        // every rank-to-rank cell of plain blocking Cannon (min_k = 0) is
        // reproduced by every batched / overlapped variant.
        let plain = traced(0, false);
        for (min_k, overlap) in [
            (0, true),
            (4, false),
            (4, true),
            (1000, false),
            (1000, true),
        ] {
            let other = traced(min_k, overlap);
            assert_eq!(
                plain.matrix, other.matrix,
                "min_k={min_k} overlap={overlap}"
            );
        }
    }

    #[test]
    fn shift_traffic_is_s_rounds() {
        // Each rank sends exactly s rounds for A and s for B (1 skew + s-1
        // shifts), except ranks whose skew is a no-op.
        let s = 3;
        for overlap in [false, true] {
            let report = traced(0, overlap);
            // rank at (1,1): skew A + skew B + 2 shifts each = 6 messages
            assert_eq!(report.phase(1 + s, "cannon_shift").msgs, 6);
            // rank at (0,0): no skew, 2 shifts each = 4 messages
            assert_eq!(report.phase(0, "cannon_shift").msgs, 4);
        }
    }
}
