//! Property-based tests on the workspace invariants (proptest).
//!
//! These are the randomized counterparts of the worked examples in the unit
//! tests: grid-search optimality and feasibility, partition exactness,
//! redistribution losslessness, and end-to-end CA3DMM correctness on
//! arbitrary problem shapes.

use ca3dmm::{Ca3dmmOptions, Dtype, GridContext, Plan};
use dense::gemm::{gemm_naive, GemmOp};
use dense::part::Rect;
use dense::random::global_block;
use dense::testing::assert_gemm_close;
use dense::Mat;
use gridopt::{brute_force_grid, ca3dmm_grid, cosma_grid, Problem};
use layout::{redistribute_planned_async, Layout, RankRedistPlan};
use msgpass::{Comm, World};
use proptest::prelude::*;

/// Strategy: a random problem with small enough dimensions to brute-force.
fn small_problem() -> impl Strategy<Value = Problem> {
    (1usize..120, 1usize..120, 1usize..120, 1usize..28)
        .prop_map(|(m, n, k, p)| Problem::new(m, n, k, p))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The fast divisor-driven grid search equals the brute-force search,
    /// with and without the Cannon constraint, for any problem and any
    /// utilization floor.
    #[test]
    fn grid_search_matches_brute_force(prob in small_problem(), l in 0.80f64..0.999) {
        let fast = ca3dmm_grid(&prob, l);
        let slow = brute_force_grid(&prob, l, true);
        prop_assert_eq!(fast.grid, slow.grid);
        prop_assert_eq!(fast.s_total, slow.s_total);
        let fast = cosma_grid(&prob, l);
        let slow = brute_force_grid(&prob, l, false);
        prop_assert_eq!(fast.grid, slow.grid);
    }

    /// Every chosen grid satisfies the paper's constraints: eq. 7
    /// (divisibility), eq. 5 (floor-semantics utilization), and the
    /// active count never exceeds P.
    #[test]
    fn chosen_grids_satisfy_constraints(prob in small_problem(), l in 0.80f64..0.999) {
        let g = ca3dmm_grid(&prob, l).grid;
        prop_assert!(g.cannon_compatible());
        prop_assert!(g.active() <= prob.p);
        prop_assert!(g.active() >= ((l * prob.p as f64).floor() as usize).max(1));
    }

    /// The per-process volume of the chosen grid respects the eq. 9 lower
    /// bound (evaluated at the active process count).
    #[test]
    fn chosen_grid_volume_at_least_lower_bound(prob in small_problem()) {
        let choice = ca3dmm_grid(&prob, 0.95);
        // eq. 4 / 2 / active >= 3 (mnk/active)^(2/3); allow 1% slack for
        // the integrality of grid dimensions.
        prop_assert!(choice.volume_ratio(&prob) > 0.99);
    }

    /// Standard layouts partition the matrix exactly for any parameters.
    #[test]
    fn standard_layouts_partition(
        rows in 1usize..60,
        cols in 1usize..60,
        p in 1usize..12,
        pr in 1usize..5,
        pc in 1usize..5,
        br in 1usize..8,
        bc in 1usize..8,
    ) {
        Layout::one_d_col(rows, cols, p).validate();
        Layout::one_d_row(rows, cols, p).validate();
        Layout::two_d_block(rows, cols, pr, pc).validate();
        Layout::block_cyclic(rows, cols, pr, pc, br, bc).validate();
    }

    /// CA3DMM's native layouts partition A, B, and C exactly for any
    /// problem (grid chosen by the real search).
    #[test]
    fn ca3dmm_native_layouts_partition(prob in small_problem()) {
        let grid = ca3dmm_grid(&prob, 0.95).grid;
        let gc = GridContext::new(prob, grid);
        gc.layout_a().validate();
        gc.layout_b().validate();
        gc.layout_c().validate();
    }
}

proptest! {
    // The distributed cases spawn threads; keep the case count moderate.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Redistribution between random layout pairs is lossless, with and
    /// without transposition.
    #[test]
    fn redistribution_is_lossless(
        rows in 1usize..30,
        cols in 1usize..30,
        p in 1usize..7,
        src_kind in 0usize..4,
        dst_kind in 0usize..4,
        trans in proptest::bool::ANY,
    ) {
        // largest divisor of p not exceeding sqrt(p), so pr * pc == p
        let pr = (1..=p).rev().find(|d| p % d == 0 && d * d <= p).unwrap_or(1);
        let pc = p / pr;
        let make = |kind: usize, r: usize, c: usize| -> Layout {
            match kind {
                0 => Layout::one_d_col(r, c, p),
                1 => Layout::one_d_row(r, c, p),
                2 => Layout::two_d_block(r, c, pr, pc),
                _ => Layout::block_cyclic(r, c, pr, pc, 3, 4),
            }
        };
        let op = if trans { GemmOp::Trans } else { GemmOp::NoTrans };
        let (dr, dc) = op.apply_shape(rows, cols);
        let src = make(src_kind, rows, cols);
        let dst = make(dst_kind, dr, dc);
        let global = global_block::<f64>(5, Rect::new(0, 0, rows, cols));
        let expect = match op {
            GemmOp::NoTrans => global.clone(),
            GemmOp::Trans => global.transpose(),
        };
        let parts = World::run(p, async |ctx| {
            let comm = Comm::world(ctx);
            let mine = src.extract(&global, comm.rank());
            let plan = RankRedistPlan::new(&src, &dst, op, comm.rank());
            redistribute_planned_async(&comm, ctx, &plan, &mine).await
        });
        for (rank, got) in parts.iter().enumerate() {
            let want = dst.extract(&expect, rank);
            prop_assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                prop_assert_eq!(g.max_abs_diff(w), 0.0);
            }
        }
    }

    /// CA3DMM (full Algorithm 1, including both redistributions) equals the
    /// serial reference on arbitrary problems, transposes, and P.
    #[test]
    fn ca3dmm_equals_reference(
        m in 1usize..26,
        n in 1usize..26,
        k in 1usize..26,
        p in 1usize..10,
        ta in proptest::bool::ANY,
        tb in proptest::bool::ANY,
    ) {
        let op_a = if ta { GemmOp::Trans } else { GemmOp::NoTrans };
        let op_b = if tb { GemmOp::Trans } else { GemmOp::NoTrans };
        let (ar, ac) = match op_a { GemmOp::NoTrans => (m, k), GemmOp::Trans => (k, m) };
        let (br, bc) = match op_b { GemmOp::NoTrans => (k, n), GemmOp::Trans => (n, k) };
        let a_stored = global_block::<f64>(9, Rect::new(0, 0, ar, ac));
        let b_stored = global_block::<f64>(10, Rect::new(0, 0, br, bc));
        let la = Layout::one_d_col(ar, ac, p);
        let lb = Layout::one_d_row(br, bc, p);
        let lc = Layout::one_d_col(m, n, p);
        let plan = Plan::build(
            Problem::new(m, n, k, p), &Ca3dmmOptions::default(), Dtype::F64,
            op_a, &la, op_b, &lb, &lc,
        );
        let parts = World::run(p, async |ctx| {
            let world = Comm::world(ctx);
            let me = world.rank();
            plan.multiply_async(ctx, &world, &la.extract(&a_stored, me), &lb.extract(&b_stored, me))
                .await
        });
        let mut c_ref = Mat::zeros(m, n);
        gemm_naive(op_a, op_b, 1.0, &a_stored, &b_stored, 0.0, &mut c_ref);
        assert_gemm_close(&lc.assemble(&parts), &c_ref, k, "proptest ca3dmm");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The blocked, thread-parallel local GEMM agrees with the naive
    /// triple loop for arbitrary shapes, ops, and alpha/beta.
    #[test]
    fn local_gemm_matches_naive(
        m in 1usize..50,
        n in 1usize..50,
        k in 0usize..50,
        ta in proptest::bool::ANY,
        tb in proptest::bool::ANY,
        alpha in -2.0f64..2.0,
        beta in -2.0f64..2.0,
    ) {
        use dense::gemm::gemm;
        let op_a = if ta { GemmOp::Trans } else { GemmOp::NoTrans };
        let op_b = if tb { GemmOp::Trans } else { GemmOp::NoTrans };
        let (ar, ac) = match op_a { GemmOp::NoTrans => (m, k), GemmOp::Trans => (k, m) };
        let (br, bc) = match op_b { GemmOp::NoTrans => (k, n), GemmOp::Trans => (n, k) };
        let a = global_block::<f64>(21, Rect::new(0, 0, ar, ac));
        let b = global_block::<f64>(22, Rect::new(0, 0, br, bc));
        let c0 = global_block::<f64>(23, Rect::new(0, 0, m, n));
        let mut c1 = c0.clone();
        let mut c2 = c0.clone();
        gemm(op_a, op_b, alpha, &a, &b, beta, &mut c1);
        gemm_naive(op_a, op_b, alpha, &a, &b, beta, &mut c2);
        prop_assert!(c1.max_abs_diff(&c2) < 1e-11 * (k.max(1) as f64));
    }
}

/// Pinned regression from `prop_invariants.proptest-regressions` (seed
/// `1356c634…`): redistributing a 1×1 matrix from a `two_d_block` layout on
/// a 1×3 grid into a `one_d_col` layout lost the single element, because
/// the empty-intersection path mishandled ranks whose source rectangle was
/// empty. The local proptest shim does not replay persistence files, so the
/// shrunk case is kept alive here verbatim.
#[test]
fn redistribution_regression_1x1_p3_2d_to_col() {
    let (rows, cols, p) = (1usize, 1usize, 3usize);
    let pr = (1..=p)
        .rev()
        .find(|d| p % d == 0 && d * d <= p)
        .unwrap_or(1);
    let pc = p / pr;
    let src = Layout::two_d_block(rows, cols, pr, pc);
    let dst = Layout::one_d_col(rows, cols, p);
    let global = global_block::<f64>(5, Rect::new(0, 0, rows, cols));
    let parts = World::run(p, async |ctx| {
        let comm = Comm::world(ctx);
        let mine = src.extract(&global, comm.rank());
        let plan = RankRedistPlan::new(&src, &dst, GemmOp::NoTrans, comm.rank());
        redistribute_planned_async(&comm, ctx, &plan, &mine).await
    });
    for (rank, got) in parts.iter().enumerate() {
        let want = dst.extract(&global, rank);
        assert_eq!(got.len(), want.len(), "rank {rank} block count");
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.max_abs_diff(w), 0.0, "rank {rank} data");
        }
    }
}
