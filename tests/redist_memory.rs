//! Memory guard for the user-layout pipeline: while a caller holds the
//! previous result, one `Plan::multiply_in` may keep at most the inputs,
//! the native `C` and the output `C` alive — no staging copy of `C` in
//! between — and the owning `Plan::multiply_batch` allocates nothing of
//! operand size beyond the operands and the native blocks gathered from
//! them. Peak live heap bytes and large allocations are counted by a
//! `#[global_allocator]`, so the figures are deterministic where `VmHWM`
//! is not. This binary holds exactly one test: a second one would allocate
//! concurrently.

use ca3dmm::{Ca3dmmOptions, Dtype, Plan};
use dense::gemm::GemmOp;
use dense::random::global_block;
use dense::Mat;
use gridopt::Problem;
use layout::Layout;
use msgpass::{Comm, PersistentWorld, RunOptions};
use std::alloc::{GlobalAlloc, Layout as AllocLayout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
/// Allocations of at least `LARGE_MIN` bytes.
static LARGE: AtomicUsize = AtomicUsize::new(0);
static LARGE_MIN: AtomicUsize = AtomicUsize::new(usize::MAX);

/// An allocation grew by `by` bytes to `size`.
fn grew(by: usize, size: usize) {
    let live = LIVE.fetch_add(by, Relaxed) + by;
    PEAK.fetch_max(live, Relaxed);
    if size >= LARGE_MIN.load(Relaxed) {
        LARGE.fetch_add(1, Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to `System`; the counters are
// statistics and touch no memory the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: AllocLayout) -> *mut u8 {
        grew(layout.size(), layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: AllocLayout) -> *mut u8 {
        grew(layout.size(), layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: AllocLayout) {
        LIVE.fetch_sub(layout.size(), Relaxed);
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: AllocLayout, new_size: usize) -> *mut u8 {
        if new_size >= layout.size() {
            grew(new_size - layout.size(), new_size);
        } else {
            LIVE.fetch_sub(layout.size() - new_size, Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const M: usize = 2048;
const N: usize = 2048;
const K: usize = 48;
const P: usize = 8;

fn rank_blocks(layout: &Layout, rank: usize, seed: u64) -> Vec<Mat<f64>> {
    let owned = layout.owned(rank).iter();
    owned.map(|rect| global_block(seed, *rect)).collect()
}

fn user_blocks(layout: &Layout, seed: u64) -> Arc<Vec<Vec<Mat<f64>>>> {
    Arc::new((0..P).map(|r| rank_blocks(layout, r, seed)).collect())
}

#[test]
fn user_layout_multiply_holds_no_staging_copy_of_c() {
    // The benchmark's `flat_userlayout` op: A stored transposed in column
    // blocks, B block-cyclic, C in row blocks.
    let (la, lb, lc) = (
        Layout::one_d_col(K, M, P),
        Layout::block_cyclic(K, N, 2, 4, 32, 32),
        Layout::one_d_row(M, N, P),
    );
    let plan = Arc::new(Plan::build(
        Problem::new(M, N, K, P),
        &Ca3dmmOptions::default(),
        Dtype::F64,
        GemmOp::Trans,
        &la,
        GemmOp::NoTrans,
        &lb,
        &lc,
    ));
    let world = PersistentWorld::new(P);
    let (a, b) = (user_blocks(&la, 1), user_blocks(&lb, 2));
    let opts = RunOptions {
        kernel_threads_per_rank: Some(1),
        ..RunOptions::default()
    };
    let run = || {
        let (plan, a, b) = (Arc::clone(&plan), Arc::clone(&a), Arc::clone(&b));
        let (c, _report) = world
            .run_job(opts, move |ctx| {
                let comm = Comm::world(ctx);
                let me = comm.rank();
                let comms = plan.ca3dmm().comms(ctx, &comm);
                plan.multiply_in(ctx, &comm, &comms, &a[me], &b[me])
            })
            .expect("a rank panicked");
        c
    };

    // The warm-up op leaves behind what later ops reuse (kernel tuning,
    // pack buffers); its result is the first "previous C".
    let mut previous = run();
    let idle = LIVE.load(Relaxed);
    PEAK.store(idle, Relaxed);
    for _ in 0..3 {
        previous = run();
    }
    assert_eq!(
        previous.iter().flatten().map(Mat::len).sum::<usize>(),
        M * N
    );

    let c_bytes = 8 * M * N;
    let input_bytes = 8 * (M * K + K * N);
    let budget = input_bytes + 3 * c_bytes;
    let peak = PEAK.load(Relaxed);
    assert!(
        idle >= input_bytes + c_bytes,
        "inputs and the previous C are live between ops"
    );
    assert!(
        peak <= budget + budget / 10,
        "peak live heap {peak} B exceeds inputs + previous C + native C + output C \
         (= {budget} B) by more than 10 %: a redistribution is staging a copy"
    );
    drop(previous);

    // The owned path, as `ca3dmm-serve` runs it: each rank generates its
    // operand blocks inside the job and hands them over. Tall-skinny
    // operands (1 MiB per rank and matrix) around a 32 KiB `C`, so an
    // allocation of half a block or more is an operand, a native block
    // gathered from operands, or a copy that should not exist.
    let (m, n, k) = (64, 64, 16384);
    let (la, lb, lc) = (
        Layout::one_d_row(m, k, P),
        Layout::one_d_col(k, n, P),
        Layout::one_d_col(m, n, P),
    );
    let plan = Arc::new(Plan::build(
        Problem::new(m, n, k, P),
        &Ca3dmmOptions::default(),
        Dtype::F64,
        GemmOp::NoTrans,
        &la,
        GemmOp::NoTrans,
        &lb,
        &lc,
    ));
    let run_owned = || {
        let plan = Arc::clone(&plan);
        world
            .run_job(opts, move |ctx| {
                let comm = Comm::world(ctx);
                let a = rank_blocks(plan.a_layout(), comm.rank(), 1);
                let b = rank_blocks(plan.b_layout(), comm.rank(), 2);
                plan.multiply_batch(ctx, &comm, vec![(a, b)]).remove(0)
            })
            .expect("a rank panicked");
    };
    run_owned();
    LARGE_MIN.store(8 * m * k / P / 2, Relaxed);
    run_owned();
    LARGE_MIN.store(usize::MAX, Relaxed);
    // per rank: its A and B blocks, and the native A and B blocks
    assert_eq!(
        LARGE.load(Relaxed),
        4 * P,
        "an operand-sized allocation beyond the operands and the gathered native blocks"
    );
}
