//! §III-F multi-shift on the wall path, counted by the kernel profiler:
//! `wall_op_work`'s reduced flat shape (256 × 256 × 48 on 8 ranks, grid
//! 2 × 4 × 1, the `flat_userlayout` layouts) has two Cannon rounds of
//! k-blocks 24 deep. By default they feed one local GEMM per rank; under
//! `multi_shift_min_k: 0` (plain Cannon) each round is its own. The k-split
//! GEMM packs the same panels either way, so the packed bytes agree.

use ca3dmm::{Ca3dmmOptions, Dtype, Plan};
use dense::gemm::GemmOp;
use dense::random::global_block;
use dense::{KernelProfile, Mat};
use gridopt::{Grid, Problem};
use layout::Layout;
use msgpass::{Comm, RunOptions, World};

const P: usize = 8;

/// Each rank's kernel profile of one profiled flat multiply.
fn profiles(multi_shift_min_k: usize) -> Vec<KernelProfile> {
    let (m, n, k) = (256, 256, 48);
    let (la, lb, lc) = (
        Layout::one_d_col(k, m, P),
        Layout::block_cyclic(k, n, 2, 4, 32, 32),
        Layout::one_d_row(m, n, P),
    );
    let opts = Ca3dmmOptions {
        grid_override: Some(Grid::new(2, 4, 1)),
        multi_shift_min_k,
        ..Ca3dmmOptions::default()
    };
    let plan = Plan::build(
        Problem::new(m, n, k, P),
        &opts,
        Dtype::F64,
        GemmOp::Trans,
        &la,
        GemmOp::NoTrans,
        &lb,
        &lc,
    );
    let blocks = |layout: &Layout, seed: u64, r: usize| -> Vec<Mat<f64>> {
        layout
            .owned(r)
            .iter()
            .map(|x| global_block(seed, *x))
            .collect()
    };
    let run = RunOptions {
        kernel_threads_per_rank: Some(1),
        gemm_prof: true,
        ..RunOptions::default()
    };
    let (_, report) = World::run_opts(P, run, async |ctx| {
        let world = Comm::world(ctx);
        let me = world.rank();
        let (a, b) = (blocks(&la, 1, me), blocks(&lb, 2, me));
        let _: Vec<Mat<f64>> = plan.multiply_async(ctx, &world, &a, &b).await;
    });
    report
        .compute
        .into_iter()
        .map(|p| p.expect("a profiled wall run captures every rank"))
        .collect()
}

#[test]
fn thin_cannon_rounds_share_one_gemm() {
    let batched = profiles(Ca3dmmOptions::default().multi_shift_min_k);
    let plain = profiles(0);
    for (r, (b, p)) in batched.iter().zip(&plain).enumerate() {
        assert_eq!(b.gemm_calls, 1, "rank {r}: GEMMs with multi-shift");
        assert_eq!(p.gemm_calls, 2, "rank {r}: GEMMs of plain Cannon");
        assert_eq!(b.pack_bytes, p.pack_bytes, "rank {r}: packed bytes");
        assert!(b.pack_bytes > 0, "rank {r}: nothing packed");
    }
}
