//! Cross-crate end-to-end battery: every distributed algorithm in the
//! workspace through one harness — the paper's problem classes plus each
//! algorithm's awkward cases (forced grids, idle ranks, `p = 1`, uneven
//! `k`) versus the serial reference — the pinned per-rank traffic of all
//! six, and the same traffic from each one's virtual-time run.

use baselines::{C25d, Ca3dmmSumma, CosmaLike, Orig3d, SummaPgemm};
use bench::run_seeded;
use ca3dmm::{Ca3dmm, Ca3dmmOptions, Dtype, Pgemm, Plan};
use dense::gemm::{gemm, GemmOp};
use dense::part::Rect;
use dense::random::global_block;
use dense::testing::assert_gemm_close;
use dense::Mat;
use gridopt::{Grid, Problem};
use layout::{multiply_planned, Layout, RankRedistPlan};
use msgpass::{Comm, RunOptions, RunReport, SimOptions, World};
use netmodel::Machine;
use proptest::prelude::*;

/// Every rank's native C block (`None` on idle ranks) and the traced run.
type Run = (Vec<Option<Mat<f64>>>, RunReport);

/// Runs one algorithm on its native layouts, traced, and compares the
/// assembled product with the serial reference. Its compute-free
/// virtual-time run must carry the same traffic: per-phase counts in both
/// directions, the send matrix and the size histograms.
fn run_native(name: &str, alg: &(impl Pgemm + Sync)) -> Run {
    let Problem { m, n, k, p } = *alg.geo().prob();
    let lc = alg.layout_c();
    for l in [&alg.layout_a(), &alg.layout_b(), &lc] {
        l.validate();
    }
    let (blocks, report) = run_seeded(alg, RunOptions::traced());
    let parts: Vec<Vec<Mat<f64>>> = blocks
        .iter()
        .map(|c| c.iter().filter(|m| !m.is_empty()).cloned().collect())
        .collect();
    let a_full = global_block::<f64>(1, Rect::new(0, 0, m, k));
    let b_full = global_block::<f64>(2, Rect::new(0, 0, k, n));
    let mut c_ref = Mat::zeros(m, n);
    let op = GemmOp::NoTrans;
    gemm(op, op, 1.0, &a_full, &b_full, 0.0, &mut c_ref);
    let what = format!("{name} {m}x{n}x{k} p={p}");
    assert_gemm_close(&lc.assemble(&parts), &c_ref, k, &what);
    let shapes_only = SimOptions {
        execute_compute: false,
        ..Default::default()
    };
    let sim = alg.simulate_native(&Machine::uniform(), shapes_only);
    assert_eq!(sim.per_rank, report.per_rank, "{what}: wall vs sim counts");
    assert_eq!(sim.matrix, report.matrix, "{what}: wall vs sim matrix");
    let hist = (&sim.hist_by_algo, &report.hist_by_algo);
    assert_eq!(hist.0, hist.1, "{what}: wall vs sim histograms");
    (blocks, report)
}

type Case<G> = (usize, usize, usize, usize, Option<G>);

fn summa((m, n, k, p, grid): Case<(usize, usize)>) -> Run {
    run_native("summa", &SummaPgemm::new(Problem::new(m, n, k, p), grid))
}

fn ca3dmm_s((m, n, k, p, grid): Case<Grid>) -> Run {
    run_native(
        "ca3dmm-s",
        &Ca3dmmSumma::new(Problem::new(m, n, k, p), grid),
    )
}

fn cosma((m, n, k, p, grid): Case<Grid>) -> Run {
    run_native("cosma", &CosmaLike::new(Problem::new(m, n, k, p), grid))
}

fn orig3d(m: usize, n: usize, k: usize, p: usize) -> Run {
    run_native("orig3d", &Orig3d::new(Problem::new(m, n, k, p)))
}

fn c25d((m, n, k, p, sc): Case<(usize, usize)>) -> Run {
    run_native("c25d", &C25d::new(Problem::new(m, n, k, p), sc))
}

fn ca3dmm((m, n, k, p, grid_override): Case<Grid>) -> Run {
    let opts = Ca3dmmOptions {
        grid_override,
        ..Default::default()
    };
    run_native("ca3dmm", &Ca3dmm::new(Problem::new(m, n, k, p), &opts))
}

/// The paper's four problem classes at test scale, plus degenerate shapes.
const SHAPES: &[(usize, usize, usize)] = &[
    (40, 40, 40), // square
    (6, 6, 200),  // large-K
    (200, 6, 6),  // large-M
    (48, 48, 6),  // flat
    (33, 17, 29), // awkward primes
];

#[test]
fn ca3dmm_native_all_shapes_all_p() {
    for &(m, n, k) in SHAPES {
        for p in [1usize, 4, 7, 12, 16] {
            ca3dmm((m, n, k, p, None));
        }
    }
}

#[test]
fn cosma_like_all_shapes() {
    for &(m, n, k) in SHAPES {
        for p in [1usize, 6, 12, 16] {
            cosma((m, n, k, p, None));
        }
    }
    for case in [
        (16, 16, 16, 8, None),
        (6, 6, 240, 12, None),                     // large-K
        (240, 6, 6, 12, None),                     // large-M
        (48, 48, 4, 12, None),                     // flat
        (24, 24, 24, 12, None),                    // square-ish
        (17, 19, 23, 8, None),                     // uneven dimensions
        (18, 18, 18, 8, Some(Grid::new(2, 2, 2))), // forced cube
        (18, 18, 18, 9, Some(Grid::new(2, 2, 2))), // one idle rank
        (15, 14, 13, 6, Some(Grid::new(3, 2, 1))), // not an eq.-7 grid
        (15, 14, 13, 6, Some(Grid::new(1, 2, 3))), // k-parallel only
    ] {
        cosma(case);
    }
}

#[test]
fn summa_all_shapes() {
    for &(m, n, k) in SHAPES {
        for p in [1usize, 6, 12, 16] {
            summa((m, n, k, p, None));
        }
    }
    for case in [
        (16, 16, 16, 16, None),
        (20, 12, 16, 8, Some((4, 2))), // rectangular grids
        (12, 20, 16, 8, Some((2, 4))),
        (9, 9, 9, 6, Some((2, 3))),
        (17, 13, 11, 7, Some((2, 3))), // uneven, one idle rank
        (5, 5, 40, 4, None),           // skinny k
        (8, 8, 8, 1, None),            // single rank
    ] {
        summa(case);
    }
}

#[test]
fn orig3d_all_shapes() {
    for &(m, n, k) in SHAPES {
        for p in [1usize, 8, 27] {
            orig3d(m, n, k, p);
        }
    }
    orig3d(16, 16, 16, 8); // the 2-cube
    orig3d(13, 17, 19, 27); // uneven dims on the 3-cube
    orig3d(12, 12, 12, 11); // q = 2, three idle ranks
    orig3d(6, 7, 8, 1); // single rank
}

#[test]
fn c25d_all_shapes() {
    for &(m, n, k) in SHAPES {
        for p in [1usize, 8, 16, 18] {
            c25d((m, n, k, p, None));
        }
    }
    for case in [
        (12, 12, 12, 4, Some((2, 1))),  // c = 1 is plain Cannon
        (16, 16, 16, 8, Some((2, 2))),  // two layers
        (16, 20, 24, 32, Some((4, 2))), // 4x4 Cannon grids, two layers
        (16, 16, 32, 64, Some((4, 4))), // four layers
        (13, 17, 19, 8, Some((2, 2))),  // uneven dims with layers
        (18, 18, 18, 11, None),         // auto grid with idle ranks
        (14, 15, 16, 9, None),
    ] {
        c25d(case);
    }
}

#[test]
fn ca3dmm_s_all_shapes() {
    for &(m, n, k) in SHAPES {
        for p in [1usize, 6, 12] {
            ca3dmm_s((m, n, k, p, None));
        }
    }
    for case in [
        (24, 20, 28, 16, None),
        (16, 16, 64, 12, None),
        // 2x3 grids are illegal for Cannon (eq. 7) but fine for SUMMA
        (14, 15, 16, 6, Some(Grid::new(2, 3, 1))),
        (14, 15, 16, 12, Some(Grid::new(2, 3, 2))),
        (12, 12, 12, 5, Some(Grid::new(2, 2, 1))), // one idle rank
    ] {
        ca3dmm_s(case);
    }
}

/// Every algorithm against the same serial reference on one problem.
#[test]
fn algorithms_agree() {
    let (m, n, k, p) = (24, 28, 32, 8);
    ca3dmm((m, n, k, p, None));
    ca3dmm_s((m, n, k, p, None));
    cosma((m, n, k, p, None));
    summa((m, n, k, p, None));
    orig3d(m, n, k, p);
    c25d((m, n, k, p, None));
}

/// Every rank's sent `bytes/msgs` per phase, run-length encoded over
/// consecutive ranks: `phase: 4x1024/2 8x0/0; …`.
fn traffic_signature(report: &RunReport) -> String {
    let t = &report.traffic;
    let p = t.per_rank.len();
    let phases: std::collections::BTreeSet<&str> =
        t.per_rank.iter().flat_map(|m| m.keys().copied()).collect();
    let of_phase = |phase: &str| {
        let sent = |r: usize| (t.phase(r, phase).bytes, t.phase(r, phase).msgs);
        let mut out = format!("{phase}:");
        let mut r = 0;
        while r < p {
            let run = (r..p).take_while(|&q| sent(q) == sent(r)).count();
            out += &format!(" {run}x{}/{}", sent(r).0, sent(r).1);
            r += run;
        }
        out
    };
    phases
        .into_iter()
        .map(of_phase)
        .collect::<Vec<_>>()
        .join("; ")
}

/// A pinned row: label, the run, its [`traffic_signature`].
type Pinned = (&'static str, fn() -> Run, &'static str);

/// Per-rank, per-phase traffic of the six algorithms on a default grid at
/// `p = 12`, forced grids and grids with idle ranks, recorded from the
/// separate implementations before they were re-expressed on
/// `ca3dmm::grid3d`: the five plain-grid algorithms at commit d8cf79e,
/// CA3DMM on its own `GridContext` executor at commit ce5f68f. Then the
/// message columns of `ablation_2d_algo`: the most messages any rank
/// sends under CA3DMM-C and CA3DMM-S on the same grid at p = 16.
#[test]
fn pinned_traffic_of_the_six_separate_implementations() {
    let table: [Pinned; 19] = [
        (
            "ca3dmm p=12",
            || ca3dmm((26, 22, 30, 12, None)),
            "cannon_shift: 1x960/2 1x1480/3 1x1400/3 1x1920/4 1x960/2 1x1480/3 1x1400/3 1x1920/4 \
             1x960/2 1x1480/3 1x1400/3 1x1920/4; reduce_c: 4x704/2 8x792/2",
        ),
        (
            "ca3dmm 2x4x1 (A replicated, c=2)",
            || ca3dmm((13, 17, 19, 8, Some(Grid::new(2, 4, 1)))),
            "cannon_shift: 1x960/2 1x1272/3 1x1112/3 1x1520/4 1x880/2 1x1200/3 1x1112/3 1x1520/4; \
             replicate_ab: 1x280/1 1x240/1 1x280/1 1x240/1 1x280/1 1x240/1 1x224/1 1x192/1",
        ),
        (
            "ca3dmm 6x2x2 p=25 (B replicated, c=3, band order differs from column-major)",
            || ca3dmm((13, 17, 19, 25, Some(Grid::new(6, 2, 2)))),
            "cannon_shift: 1x480/2 1x520/3 1x760/3 1x800/4 1x440/2 1x520/3 1x720/3 1x800/4 \
             1x440/2 1x520/3 1x720/3 1x800/4 1x480/2 1x432/3 1x672/3 1x720/4 1x440/2 1x432/3 \
             1x640/3 1x720/4 1x440/2 1x432/3 1x640/3 1x720/4 1x0/0; reduce_c: 2x72/1 2x64/1 \
             2x72/1 2x64/1 2x72/1 2x64/1 1x144/1 1x72/1 1x128/1 1x64/1 2x72/1 2x64/1 2x72/1 \
             2x64/1 1x0/0; replicate_ab: 2x240/2 2x200/2 6x240/2 2x200/2 1x240/2 1x192/2 1x200/2 \
             1x160/2 1x240/2 1x192/2 1x240/2 1x192/2 1x240/2 1x192/2 1x200/2 1x160/2 1x0/0",
        ),
        (
            "ca3dmm 2x2x4 (reduce only)",
            || ca3dmm((13, 17, 19, 16, Some(Grid::new(2, 2, 4)))),
            "cannon_shift: 1x384/2 1x384/3 1x432/3 1x560/4 1x384/2 1x384/3 1x432/3 1x560/4 \
             1x384/2 1x384/3 1x432/3 1x560/4 1x256/2 1x336/3 1x368/3 1x448/4; reduce_c: 1x360/3 \
             1x288/3 1x320/3 1x256/3 1x360/3 1x288/3 1x320/3 1x256/3 2x360/3 2x320/3 1x432/3 \
             1x360/3 1x384/3 1x320/3",
        ),
        (
            "summa p=12",
            || summa((26, 22, 30, 12, None)),
            "summa_bcast: 1x3312/37 1x3312/40 1x3056/40 1x3056/37 1x3104/37 1x3112/40 1x2848/40 \
             1x2816/37 1x3072/37 1x3080/40 1x2848/40 1x2816/37",
        ),
        (
            "summa 4x2",
            || summa((20, 12, 16, 8, Some((4, 2)))),
            "summa_bcast: 8x1200/21",
        ),
        (
            "summa 2x3 p=7",
            || summa((17, 13, 11, 7, Some((2, 3)))),
            "summa_bcast: 1x1064/16 1x960/16 1x992/18 1x912/18 1x944/16 1x840/16 1x0/0",
        ),
        (
            "ca3dmm-s p=12",
            || ca3dmm_s((26, 22, 30, 12, None)),
            "reduce_c: 4x704/2 8x792/2; summa_bcast: 1x1448/6 2x1440/6 1x1432/6 1x1448/6 \
             2x1440/6 1x1432/6 1x1448/6 2x1440/6 1x1432/6",
        ),
        (
            "ca3dmm-s 3x2x1",
            || ca3dmm_s((15, 14, 13, 6, Some(Grid::new(3, 2, 1)))),
            "summa_bcast: 1x1064/16 1x1048/18 1x1024/16 1x1040/16 1x1024/18 1x1000/16",
        ),
        (
            "ca3dmm-s 2x3x2 p=13",
            || ca3dmm_s((14, 15, 16, 13, Some(Grid::new(2, 3, 2)))),
            "reduce_c: 6x120/1 6x160/1 1x0/0; summa_bcast: 1x648/16 1x640/16 1x664/18 1x656/18 \
             1x608/16 1x600/16 1x648/16 1x640/16 1x664/18 1x656/18 1x608/16 1x600/16 1x0/0",
        ),
        (
            "cosma p=12",
            || cosma((26, 22, 30, 12, None)),
            "reduce_c: 4x704/2 8x792/2; replicate_ab: 12x960/2",
        ),
        (
            "cosma 1x2x3",
            || cosma((15, 14, 13, 6, Some(Grid::new(1, 2, 3)))),
            "reduce_c: 6x560/2; replicate_ab: 1x360/1 5x240/1",
        ),
        (
            "cosma 2x3x2 p=13",
            || cosma((14, 15, 16, 13, Some(Grid::new(2, 3, 2)))),
            "reduce_c: 6x120/1 6x160/1 1x0/0; replicate_ab: 2x440/3 2x496/3 4x440/3 2x496/3 \
             2x440/3 1x0/0",
        ),
        (
            "orig3d p=12",
            || orig3d(26, 22, 30, 12),
            "reduce_c: 4x528/1 4x616/1 4x0/0; replicate_ab: 1x2880/4 1x2216/3 1x2096/3 1x1432/2 \
             1x1448/2 1x2104/3 1x2224/3 1x2880/4 4x0/0",
        ),
        (
            "orig3d p=27",
            || orig3d(13, 17, 19, 27),
            "reduce_c: 1x144/2 2x96/2 1x144/2 2x96/2 1x120/2 2x80/2 6x144/2 3x120/2 1x192/2 \
             2x144/2 1x192/2 2x144/2 1x160/2 2x120/2; replicate_ab: 1x816/8 2x520/6 1x640/6 \
             2x376/4 1x552/6 1x336/4 1x328/4 1x352/4 1x512/6 1x320/4 1x512/6 1x640/8 1x448/6 \
             1x320/4 1x448/6 1x288/4 1x352/4 1x320/4 1x512/6 1x352/4 1x320/4 1x512/6 1x480/6 \
             1x416/6 1x576/8",
        ),
        (
            "orig3d p=9",
            || orig3d(12, 12, 12, 9),
            "reduce_c: 8x144/1 1x0/0; replicate_ab: 1x576/4 2x432/3 2x288/2 2x432/3 1x576/4 \
             1x0/0",
        ),
        (
            "c25d p=12",
            || c25d((26, 22, 30, 12, None)),
            "cannon_shift: 1x0/0 1x1560/1 1x1320/1 2x2880/2 1x1320/1 1x1560/1 5x0/0; reduce_c: \
             4x528/1 4x616/1 4x0/0; replicate_ab: 4x2880/2 8x0/0",
        ),
        (
            "c25d s=2 c=2",
            || c25d((13, 17, 19, 8, Some((2, 2)))),
            "cannon_shift: 1x0/0 1x480/1 1x640/1 1x1008/2 1x1280/2 1x648/1 1x504/1 1x0/0; \
             reduce_c: 2x216/1 2x192/1 1x288/1 1x216/1 1x256/1 1x192/1; replicate_ab: 1x1280/2 \
             1x1128/2 1x1144/2 1x1008/2 4x0/0",
        ),
        (
            "c25d s=4 c=2 p=33",
            || c25d((16, 20, 24, 33, Some((4, 2)))),
            "cannon_shift: 1x432/2 3x624/3 1x672/3 3x864/4 1x672/3 3x864/4 1x672/3 5x864/4 \
             1x672/3 3x864/4 1x672/3 1x864/4 2x624/3 1x432/2 1x624/3 2x864/4 1x672/3 1x864/4 \
             1x0/0; reduce_c: 32x80/1 1x0/0; replicate_ab: 16x432/2 17x0/0",
        ),
    ];
    for (name, run, want) in table {
        assert_eq!(traffic_signature(&run().1), want, "{name}");
    }
    for ((m, n, k), want) in [
        ((240, 240, 240), (6, 22)),
        ((120, 120, 960), (8, 10)),
        ((480, 480, 60), (8, 30)),
    ] {
        let grid = Some(gridopt::ca3dmm_grid(&Problem::new(m, n, k, 16), 0.95).grid);
        let msgs = |run: Run| run.1.max_rank_msgs();
        let got = (
            msgs(ca3dmm((m, n, k, 16, grid))),
            msgs(ca3dmm_s((m, n, k, 16, grid))),
        );
        assert_eq!(got, want, "{m}x{n}x{k}: max msgs CA3DMM-C / CA3DMM-S");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// SUMMA on `(pr, pc)` *is* CA3DMM-S on `Grid(pr, pc, 1)`: bit-equal C
    /// blocks on every rank and an identical send matrix.
    #[test]
    fn summa_is_ca3dmm_s_with_one_k_group(
        m in 1usize..40,
        n in 1usize..40,
        k in 1usize..40,
        pr in 1usize..4,
        pc in 1usize..4,
        idle in 0usize..2,
    ) {
        let p = pr * pc + idle;
        let (c_2d, report_2d) = summa((m, n, k, p, Some((pr, pc))));
        let (c_3d, report_3d) = ca3dmm_s((m, n, k, p, Some(Grid::new(pr, pc, 1))));
        prop_assert_eq!(c_2d, c_3d);
        prop_assert_eq!(&report_2d.traffic.matrix, &report_3d.traffic.matrix);
    }
}

/// Full pipeline with user layouts and every transpose combination, across
/// several user layout kinds — the complete Algorithm 1.
#[test]
fn ca3dmm_full_pipeline_layout_matrix() {
    let (m, n, k, p) = (26, 22, 30, 12);
    for (op_a, op_b) in [
        (GemmOp::NoTrans, GemmOp::NoTrans),
        (GemmOp::Trans, GemmOp::NoTrans),
        (GemmOp::NoTrans, GemmOp::Trans),
        (GemmOp::Trans, GemmOp::Trans),
    ] {
        let (ar, ac) = op_a.apply_shape(m, k);
        let (br, bc) = op_b.apply_shape(k, n);
        let user_layouts_a = [
            Layout::one_d_col(ar, ac, p),
            Layout::one_d_row(ar, ac, p),
            Layout::block_cyclic(ar, ac, 3, 4, 5, 3),
        ];
        let user_layouts_b = [
            Layout::one_d_row(br, bc, p),
            Layout::two_d_block(br, bc, 4, 3),
            Layout::block_cyclic(br, bc, 2, 6, 4, 4),
        ];
        for (la, lb) in user_layouts_a.iter().zip(user_layouts_b.iter()) {
            let lc = Layout::two_d_block(m, n, 3, 4);
            let a_stored = global_block::<f64>(1, Rect::new(0, 0, ar, ac));
            let b_stored = global_block::<f64>(2, Rect::new(0, 0, br, bc));
            let prob = Problem::new(m, n, k, p);
            let opts = Ca3dmmOptions::default();
            let plan = Plan::build(prob, &opts, Dtype::F64, op_a, la, op_b, lb, &lc);
            let parts = World::run(p, async |ctx| {
                let world = Comm::world(ctx);
                let me = world.rank();
                let (a, b) = (la.extract(&a_stored, me), lb.extract(&b_stored, me));
                plan.multiply_async(ctx, &world, &a, &b).await
            });
            let mut c_ref = Mat::zeros(m, n);
            gemm(op_a, op_b, 1.0, &a_stored, &b_stored, 0.0, &mut c_ref);
            assert_gemm_close(
                &lc.assemble(&parts),
                &c_ref,
                k,
                &format!("pipeline {op_a:?}/{op_b:?}"),
            );
        }
    }
}

/// One algorithm behind `layout::multiply_planned`: `op(A)`, `op(B)` and
/// `C` in user layouts (1D rows, block-cyclic, 1D columns), redistribution
/// in and out.
fn run_pipeline(name: &str, alg: &(impl Pgemm + Sync)) {
    let Problem { m, n, k, p } = *alg.geo().prob();
    let (na, nb, nc) = (alg.layout_a(), alg.layout_b(), alg.layout_c());
    for (op_a, op_b) in [
        (GemmOp::Trans, GemmOp::NoTrans),
        (GemmOp::NoTrans, GemmOp::NoTrans),
        (GemmOp::Trans, GemmOp::Trans),
    ] {
        let (ar, ac) = op_a.apply_shape(m, k);
        let (br, bc) = op_b.apply_shape(k, n);
        let a_stored = global_block::<f64>(1, Rect::new(0, 0, ar, ac));
        let b_stored = global_block::<f64>(2, Rect::new(0, 0, br, bc));
        let la = Layout::one_d_row(ar, ac, p);
        let lb = Layout::block_cyclic(br, bc, 3, 4, 4, 5);
        let lc = Layout::one_d_col(m, n, p);
        let parts = World::run(p, async |ctx| {
            let world = Comm::world(ctx);
            let me = world.rank();
            multiply_planned(
                &world,
                ctx,
                (
                    &RankRedistPlan::new(&la, &na, op_a, me),
                    la.extract(&a_stored, me),
                ),
                (
                    &RankRedistPlan::new(&lb, &nb, op_b, me),
                    lb.extract(&b_stored, me),
                ),
                &RankRedistPlan::new(&nc, &lc, GemmOp::NoTrans, me),
                async |a, b| alg.multiply_native_async(ctx, &world, a, b).await,
            )
            .await
        });
        let mut c_ref = Mat::zeros(m, n);
        gemm(op_a, op_b, 1.0, &a_stored, &b_stored, 0.0, &mut c_ref);
        let what = format!("{name} pipeline {op_a:?}/{op_b:?}");
        assert_gemm_close(&lc.assemble(&parts), &c_ref, k, &what);
    }
}

/// Baseline full pipelines (user layouts + redistribution) also match the
/// serial reference — COSMA's "internal matrix redistribution library",
/// ScaLAPACK-style SUMMA conversions, and CA3DMM-S.
#[test]
fn baseline_full_pipelines() {
    let prob = Problem::new(22, 26, 30, 12);
    run_pipeline("cosma", &CosmaLike::new(prob, None));
    run_pipeline("summa", &SummaPgemm::new(prob, None));
    run_pipeline("ca3dmm-s", &Ca3dmmSumma::new(prob, None));
}
