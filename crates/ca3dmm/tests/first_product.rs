//! CA3DMM's Cannon step creates each rank's partial `C` from its first
//! product instead of zero-filling it and accumulating every product into
//! it with `beta = 1`. The two must agree bit for bit: this test runs the
//! real native multiply (`Pgemm::multiply_native_async`) and, as the
//! reference, the same Cannon groups over the same blocks into a
//! zero-filled `C` (`cannon_multi_shift` from `LocalC::Sum(zeros)`).
//!
//! Grids have `pk = 1`, so a rank's output strip is its whole Cannon
//! block. They cover both replication directions with `c > 1`, uneven
//! shapes, `k < s` (empty k-ranges), `s = 1` and idle ranks, overlap on
//! and off. Beside CA3DMM's own multi-shift threshold, the same blocks run
//! through `cannon_multi_shift` with batching off, partial and total, from
//! a reserved and from a zero-filled `C`.

use ca3dmm::{cannon_multi_shift, Ca3dmm, Ca3dmmOptions, LocalC, Pgemm};
use dense::random::global_block;
use dense::tune::KC_FLOOR;
use dense::Mat;
use gridopt::{Grid, Problem};
use msgpass::{Comm, World};

/// Each world rank's result as bit patterns (`None` on idle ranks).
type Bits = Vec<Option<Vec<u64>>>;

fn bits(c: Mat<f64>) -> Vec<u64> {
    c.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// The native multiply as CA3DMM runs it.
fn native(mm: &Ca3dmm, p: usize) -> Bits {
    let gc = mm.grid_context();
    World::run(p, async |ctx| {
        let world = Comm::world(ctx);
        let me = world.rank();
        let (a, b) = if gc.is_active(me) {
            let at = gc.coord_of(me);
            (
                Some(global_block::<f64>(1, gc.a_init(&at))),
                Some(global_block::<f64>(2, gc.b_init(&at))),
            )
        } else {
            (None, None)
        };
        mm.multiply_native_async(ctx, &world, a, b).await.map(bits)
    })
}

/// Every Cannon group over its replicated blocks, batching rounds thinner
/// than `min_k`, into a reserved `C` or accumulating from a zero-filled one.
fn cannon(mm: &Ca3dmm, p: usize, zero_fill: bool, min_k: usize, overlap: bool) -> Bits {
    let gc = mm.grid_context();
    World::run(p, async |ctx| {
        let world = Comm::world(ctx);
        let me = world.rank();
        let group = gc.is_active(me).then(|| {
            let at = gc.coord_of(me);
            gc.cannon_group(at.kt, at.cg)
        });
        let tile = world.group(ctx, group.as_deref())?;
        let at = gc.coord_of(me);
        let a = global_block::<f64>(1, gc.a_block(&at));
        let b = global_block::<f64>(2, gc.b_block(&at));
        let c = if zero_fill {
            LocalC::Sum(Mat::zeros(a.rows(), b.cols()))
        } else {
            LocalC::reserve(a.rows(), b.cols())
        };
        let (s, window) = (gc.s, (0, gc.s));
        let c = cannon_multi_shift(ctx, &tile, s, window, a, b, c, min_k, overlap).await;
        Some(bits(c))
    })
}

#[test]
fn first_product_overwrites_like_zero_fill_and_accumulate() {
    // (m, n, k, p, grid pm × pn × 1)
    let cases = [
        (32, 64, 16, 8, (2, 4)), // A replicated, c = 2
        (64, 32, 16, 8, (4, 2)), // B replicated, c = 2
        (33, 65, 17, 8, (2, 4)), // uneven everything
        (45, 23, 9, 12, (2, 6)), // c = 3, uneven
        (20, 22, 1, 4, (2, 2)),  // k < s: an empty k-range
        (40, 3, 3, 12, (12, 1)), // s = 1: one GEMM per rank
        (64, 64, 6, 9, (2, 4)),  // flat-like, with an idle rank
    ];
    for (m, n, k, p, (pm, pn)) in cases {
        for overlap in [false, true] {
            let opts = Ca3dmmOptions {
                grid_override: Some(Grid::new(pm, pn, 1)),
                overlap,
                ..Ca3dmmOptions::default()
            };
            let mm = Ca3dmm::new(Problem::new(m, n, k, p), &opts);
            let at = format!("{m}x{n}x{k} on {pm}x{pn}x1 (p = {p}), overlap {overlap}");
            let want = cannon(&mm, p, true, KC_FLOOR, overlap);
            assert_eq!(native(&mm, p), want, "{at}");
            for min_k in [0, 3, usize::MAX] {
                let got = cannon(&mm, p, false, min_k, overlap);
                let want = cannon(&mm, p, true, min_k, overlap);
                assert_eq!(got, want, "{at}, min_k {min_k}");
            }
        }
    }
}
