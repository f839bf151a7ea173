//! Property test: the §III-F overlapped Cannon pipeline is **bitwise**
//! identical to the blocking path.
//!
//! The overlap changes only *when* the shift communication happens relative
//! to the local GEMM — never which blocks meet in which GEMM, nor the
//! summation order inside a flush — so every output element must match to
//! the last bit, not merely to a tolerance. Shapes are drawn uneven on
//! purpose (dimensions that do not divide `s`, k smaller than the grid),
//! and the multi-shift threshold sweeps through "no batching", "some
//! batching", and "one batch for everything".

use ca3dmm::{cannon_multi_shift, LocalC};
use dense::part::{even_range, Rect};
use dense::random::global_block;
use msgpass::{Comm, World};
use proptest::prelude::*;

/// Runs one Cannon group end-to-end and returns every rank's C block as
/// raw element vectors (rank order), for exact comparison.
fn run_cannon(
    m: usize,
    n: usize,
    k: usize,
    s: usize,
    min_k: usize,
    overlap: bool,
) -> Vec<Vec<f64>> {
    World::run(s * s, async |ctx| {
        let comm = Comm::world(ctx);
        let me = comm.rank();
        let (i, j) = (me % s, me / s);
        let (r0, r1) = even_range(m, s, i);
        let (c0, c1) = even_range(n, s, j);
        let (ka0, ka1) = even_range(k, s, j);
        let (kb0, kb1) = even_range(k, s, i);
        let a = global_block::<f64>(1, Rect::new(r0, ka0, r1 - r0, ka1 - ka0));
        let b = global_block::<f64>(2, Rect::new(kb0, c0, kb1 - kb0, c1 - c0));
        let c = LocalC::reserve(r1 - r0, c1 - c0);
        let c = cannon_multi_shift(ctx, &comm, s, (0, s), a, b, c, min_k, overlap).await;
        assert_eq!(c.shape(), (r1 - r0, c1 - c0));
        c.into_vec()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn overlapped_cannon_is_bitwise_identical(
        m in 1usize..24,
        n in 1usize..24,
        k in 1usize..40,
        s in 2usize..5,
        min_k in 0usize..14,
    ) {
        let blocking = run_cannon(m, n, k, s, min_k, false);
        let overlapped = run_cannon(m, n, k, s, min_k, true);
        prop_assert_eq!(blocking.len(), overlapped.len());
        for (rank, (b, o)) in blocking.iter().zip(&overlapped).enumerate() {
            prop_assert_eq!(b.len(), o.len(), "rank {} shape", rank);
            for (idx, (x, y)) in b.iter().zip(o).enumerate() {
                prop_assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "rank {} element {}: blocking {} vs overlapped {}",
                    rank, idx, x, y
                );
            }
        }
    }
}
