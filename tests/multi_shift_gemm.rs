//! §III-F multi-shift on the wall path, counted by the kernel profiler:
//! `wall_op_work`'s reduced flat shape (256 × 256 × 48 on 8 ranks, grid
//! 2 × 4 × 1, the `flat_userlayout` layouts) has two Cannon rounds of
//! k-blocks 24 deep. CA3DMM's multiply feeds them to one local GEMM per
//! rank; plain Cannon (`cannon_multi_shift` with `min_k_per_gemm` 0) on the
//! same blocks runs one per round. The k-split GEMM packs the same panels
//! either way, so the packed bytes agree.

use ca3dmm::{cannon_multi_shift, Ca3dmmOptions, Dtype, LocalC, Plan};
use dense::gemm::GemmOp;
use dense::random::global_block;
use dense::{KernelProfile, Mat};
use gridopt::{Grid, Problem};
use layout::Layout;
use msgpass::{Comm, RankCtx, RunOptions, World};

const P: usize = 8;

/// Each rank's kernel profile of `f` run on `P` profiled ranks.
fn profiles(f: impl AsyncFn(&RankCtx) + Sync) -> Vec<KernelProfile> {
    let run = RunOptions {
        kernel_threads_per_rank: Some(1),
        gemm_prof: true,
        ..RunOptions::default()
    };
    let (_, report) = World::run_opts(P, run, f);
    report
        .compute
        .into_iter()
        .map(|p| p.expect("a profiled wall run captures every rank"))
        .collect()
}

#[test]
fn thin_cannon_rounds_share_one_gemm() {
    let (m, n, k) = (256, 256, 48);
    let (la, lb, lc) = (
        Layout::one_d_col(k, m, P),
        Layout::block_cyclic(k, n, 2, 4, 32, 32),
        Layout::one_d_row(m, n, P),
    );
    let opts = Ca3dmmOptions {
        grid_override: Some(Grid::new(2, 4, 1)),
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
    let batched = profiles(async |ctx| {
        let world = Comm::world(ctx);
        let me = world.rank();
        let (a, b) = (blocks(&la, 1, me), blocks(&lb, 2, me));
        let _: Vec<Mat<f64>> = plan.multiply_async(ctx, &world, &a, &b).await;
    });
    // Every rank is active and pk = 1: the world is one Cannon group per
    // replica, each rank multiplying its replicated blocks.
    let gc = plan.ca3dmm().grid_context();
    let plain = profiles(async |ctx| {
        let world = Comm::world(ctx);
        let at = gc.coord_of(world.rank());
        let group = gc.cannon_group(at.kt, at.cg);
        let tile = world.group(ctx, Some(&group)).expect("a member");
        let a = global_block::<f64>(1, gc.a_block(&at));
        let b = global_block::<f64>(2, gc.b_block(&at));
        let c = LocalC::reserve(a.rows(), b.cols());
        cannon_multi_shift(ctx, &tile, gc.s, (0, gc.s), a, b, c, 0, true).await;
    });
    for (r, (b, p)) in batched.iter().zip(&plain).enumerate() {
        assert_eq!(b.gemm_calls, 1, "rank {r}: GEMMs with multi-shift");
        assert_eq!(p.gemm_calls, 2, "rank {r}: GEMMs of plain Cannon");
        assert_eq!(b.pack_bytes, p.pack_bytes, "rank {r}: packed bytes");
        assert!(b.pack_bytes > 0, "rank {r}: nothing packed");
    }
}
