//! Quickstart: the reproduction of the artifact's `example_AB.exe`.
//!
//! The paper's artifact is driven by
//!
//! ```text
//! mpirun -np <nprocs> ./example_AB.exe <M> <N> <K> <transA> <transB>
//!     <validation> <ntest> <dtype> [mp np kp]
//! ```
//!
//! Here ranks are threads, so the process count is a normal argument:
//!
//! ```text
//! cargo run --release --example quickstart -- <nprocs> <M> <N> <K>
//!     [transA transB validation ntest mp np kp]
//! ```
//!
//! With no arguments a small default problem runs. The report mirrors the
//! artifact's: partition info (grid, work cuboid, utilization, comm volume
//! over the eq. 9 lower bound, rank-0 buffer size) and per-phase timings
//! averaged over `ntest` runs, followed by a correctness check against the
//! serial reference. As in the artifact, the input A and B and the output C
//! use a 1D column partitioning.

use ca3dmm::{memory_elements_per_rank, Ca3dmmOptions, Dtype, Plan};
use dense::gemm::{gemm, GemmOp};
use dense::part::Rect;
use dense::random::global_block;
use dense::testing::gemm_tolerance;
use dense::Mat;
use gridopt::{Grid, Problem};
use layout::Layout;
use msgpass::{Comm, World};
use std::time::Instant;

fn arg(args: &[String], i: usize, default: usize) -> usize {
    args.get(i)
        .map(|s| s.parse().expect("numeric argument"))
        .unwrap_or(default)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let nprocs = arg(&args, 0, 8);
    let m = arg(&args, 1, 1000);
    let n = arg(&args, 2, 1000);
    let k = arg(&args, 3, 1000);
    let trans_a = GemmOp::from_flag(arg(&args, 4, 0) as u32);
    let trans_b = GemmOp::from_flag(arg(&args, 5, 0) as u32);
    let validate = arg(&args, 6, 1) != 0;
    let ntest = arg(&args, 7, 3).max(1);
    let grid_override = if args.len() >= 11 {
        Some(Grid::new(
            arg(&args, 8, 0),
            arg(&args, 9, 0),
            arg(&args, 10, 0),
        ))
    } else {
        None
    };

    println!("Test problem size m * n * k : {m} * {n} * {k}");
    println!(
        "Transpose A / B             : {} / {}",
        (trans_a == GemmOp::Trans) as u8,
        (trans_b == GemmOp::Trans) as u8
    );
    println!("Number of tests             : {ntest}");
    println!("Check result correctness    : {}", validate as u8);
    println!("Number of ranks (threads)   : {nprocs}");

    // Stored shapes honour the transpose flags, as in the artifact.
    let (ar, ac) = match trans_a {
        GemmOp::NoTrans => (m, k),
        GemmOp::Trans => (k, m),
    };
    let (br, bc) = match trans_b {
        GemmOp::NoTrans => (k, n),
        GemmOp::Trans => (n, k),
    };
    let a_layout = Layout::one_d_col(ar, ac, nprocs);
    let b_layout = Layout::one_d_col(br, bc, nprocs);
    let c_layout = Layout::one_d_col(m, n, nprocs);

    // Initialization: the grid search and the redistribution programs,
    // built once and reused by every execution.
    let prob = Problem::new(m, n, k, nprocs);
    let opts = Ca3dmmOptions {
        grid_override,
        ..Default::default()
    };
    let plan = Plan::build(
        prob,
        &opts,
        Dtype::F64,
        trans_a,
        &a_layout,
        trans_b,
        &b_layout,
        &c_layout,
    );
    let init_ms = plan.build_secs() * 1e3;
    let st = plan.ca3dmm().stats();
    let grid = st.grid;
    println!("\nCA3DMM partition info:");
    println!(
        "Process grid mp * np * kp   : {} * {} * {}",
        grid.pm, grid.pn, grid.pk
    );
    println!(
        "Work cuboid mb * nb * kb    : {} * {} * {}",
        st.cuboid.0, st.cuboid.1, st.cuboid.2
    );
    println!(
        "Process utilization         : {:.2} %",
        st.utilization * 100.0
    );
    println!("Comm. volume / lower bound  : {:.2}", st.volume_ratio);
    println!(
        "Rank 0 work buffer size     : {:.2} MBytes",
        memory_elements_per_rank(&prob, &grid) * 8.0 / 1048576.0
    );

    let mut totals_ms: Vec<f64> = Vec::with_capacity(ntest);
    let mut phase_ms: std::collections::BTreeMap<String, f64> = Default::default();
    let mut c_result: Option<Mat<f64>> = None;

    for run in 0..ntest {
        let (parts_and_time, report) = World::run_traced(nprocs, async |ctx| {
            let world = Comm::world(ctx);
            let me = world.rank();
            // each rank generates its own pieces of the seeded global matrices
            let a_blocks: Vec<Mat<f64>> = a_layout
                .owned(me)
                .iter()
                .map(|r| global_block(1, *r))
                .collect();
            let b_blocks: Vec<Mat<f64>> = b_layout
                .owned(me)
                .iter()
                .map(|r| global_block(2, *r))
                .collect();
            let t = Instant::now();
            let c = plan.multiply_async(ctx, &world, &a_blocks, &b_blocks).await;
            (c, t.elapsed().as_secs_f64() * 1e3)
        });
        let total = parts_and_time
            .iter()
            .map(|(_, t)| *t)
            .fold(0.0f64, f64::max);
        totals_ms.push(total);
        for ph in report.phases() {
            *phase_ms.entry(ph.clone()).or_insert(0.0) += report.phase_secs_max(&ph) * 1e3;
        }
        if run == 0 && validate {
            let parts: Vec<Vec<Mat<f64>>> = parts_and_time.into_iter().map(|(c, _)| c).collect();
            c_result = Some(c_layout.assemble(&parts));
        }
    }

    let avg = totals_ms.iter().sum::<f64>() / ntest as f64;
    println!("\n================ CA3DMM algorithm engine ================");
    println!("* Initialization            : {init_ms:.2} ms");
    println!("* Number of executions      : {ntest}");
    println!("* Execution time (avg)      : {avg:.2} ms");
    for (label, name) in [
        ("redist", "Redistribute A, B, C"),
        ("replicate_ab", "Allgather A or B  "),
        ("cannon_shift", "2D Cannon         "),
        ("reduce_c", "Reduce-scatter C  "),
    ] {
        println!(
            "* {name}      : {:.2} ms",
            phase_ms.get(label).copied().unwrap_or(0.0) / ntest as f64
        );
    }
    println!("==========================================================");

    if validate {
        let a_stored = global_block::<f64>(1, Rect::new(0, 0, ar, ac));
        let b_stored = global_block::<f64>(2, Rect::new(0, 0, br, bc));
        let mut c_ref = Mat::zeros(m, n);
        gemm(trans_a, trans_b, 1.0, &a_stored, &b_stored, 0.0, &mut c_ref);
        let c_got = c_result.expect("validation requested");
        let tol = gemm_tolerance::<f64>(k) * c_ref.max_abs().max(1.0);
        let diff = c_got.max_abs_diff(&c_ref);
        let errors = if diff <= tol { 0 } else { 1 };
        println!("\nCA3DMM output : {errors} error(s)  (max diff {diff:.3e}, tol {tol:.3e})");
        if errors != 0 {
            std::process::exit(1);
        }
    }
}
