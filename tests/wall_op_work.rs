//! The work of one wall-clock op, counted: allocations and zero-filled
//! bytes (`alloc_zeroed`) per op of the two wall workloads' shapes, reduced
//! so the test takes seconds in a debug build. A counting
//! `#[global_allocator]` makes the figures exact, where page faults and
//! `VmHWM` are not.
//!
//! * **flat**: `Plan::multiply_in` of 256 × 256 × 48 on 8 ranks with the
//!   `flat_userlayout` layouts (A stored transposed in column blocks, B
//!   block-cyclic 2 × 4 with 32 × 32 tiles, C in row blocks) and its grid
//!   2 × 4 × 1 (`c = 2`);
//! * **native**: `Ca3dmm::multiply_native_in` of 192³ on 8 ranks, grid
//!   2 × 2 × 2, as `square_native` runs it (sub-communicators built per op).
//!
//! Both run on a warm `PersistentWorld` with one kernel thread per rank.
//! The zero-filled bytes are what a fresh `Mat::zeros` costs: every block
//! the program fills before it writes it. This binary holds exactly one
//! test: a second one would allocate concurrently.

use ca3dmm::{Ca3dmm, Ca3dmmOptions, Dtype, Plan};
use dense::gemm::GemmOp;
use dense::random::global_block;
use dense::Mat;
use gridopt::{Grid, Problem};
use layout::Layout;
use msgpass::{Comm, PersistentWorld, RunOptions};
use std::alloc::{GlobalAlloc, Layout as AllocLayout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

struct Counting;

/// Calls of `alloc`, `alloc_zeroed` and `realloc`.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Bytes `alloc_zeroed` handed out.
static ZEROED: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`; the counters are
// statistics and touch no memory the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: AllocLayout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: AllocLayout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        ZEROED.fetch_add(layout.size() as u64, Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: AllocLayout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: AllocLayout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const P: usize = 8;

/// Pinned per-op figures: `(allocations, zero-filled bytes)`. Each rank's
/// partial `C` is created by its first product; zero-filling it instead
/// adds 8 × 65 536 B (flat) and 8 × 73 728 B (native). What is zero-filled
/// is the 31-slot block of `PersistentWorld::run_job`'s result channel
/// (`std::sync::mpsc`), so it follows the size of a rank's output,
/// `dense::KernelProfile` included.
const FLAT_PER_OP: (u64, u64) = (527, 10_920);
const NATIVE_PER_OP: (u64, u64) = (242, 11_416);
/// Slack on the allocation count: rank threads interleave, so a mailbox
/// may grow on one op and not the next. Zero-filled bytes are exact.
const SLACK: f64 = 0.02;

/// The fewest `(allocations, zero-filled bytes)` any of `ops` runs of `op`
/// needed, after two warm-up runs leave behind what later ops reuse
/// (kernel tuning, pack buffers, mailbox capacity). The minimum, because
/// an op now and then also pays for something lazily grown (≈ 13 KB
/// zero-filled once in a few ops).
fn per_op(ops: usize, mut op: impl FnMut()) -> (u64, u64) {
    op();
    op();
    let counters = || (ALLOCS.load(Relaxed), ZEROED.load(Relaxed));
    let mut fewest = (u64::MAX, u64::MAX);
    for _ in 0..ops {
        let (a0, z0) = counters();
        op();
        let (a1, z1) = counters();
        fewest = (fewest.0.min(a1 - a0), fewest.1.min(z1 - z0));
    }
    fewest
}

fn check(what: &str, (allocs, zeroed): (u64, u64), (pin_allocs, pin_zeroed): (u64, u64)) {
    let near = (allocs as f64 - pin_allocs as f64).abs() <= SLACK * pin_allocs as f64;
    assert!(
        near,
        "{what}: {allocs} allocations per op, pinned at {pin_allocs} ± 2 %"
    );
    assert_eq!(zeroed, pin_zeroed, "{what}: zero-filled bytes per op");
}

#[test]
fn one_wall_op_allocates_a_pinned_amount() {
    let world = PersistentWorld::new(P);
    let opts = RunOptions {
        kernel_threads_per_rank: Some(1),
        ..RunOptions::default()
    };

    let (m, n, k) = (256, 256, 48);
    let (la, lb, lc) = (
        Layout::one_d_col(k, m, P),
        Layout::block_cyclic(k, n, 2, 4, 32, 32),
        Layout::one_d_row(m, n, P),
    );
    let flat_opts = Ca3dmmOptions {
        grid_override: Some(Grid::new(2, 4, 1)),
        ..Ca3dmmOptions::default()
    };
    let plan = Arc::new(Plan::build(
        Problem::new(m, n, k, P),
        &flat_opts,
        Dtype::F64,
        GemmOp::Trans,
        &la,
        GemmOp::NoTrans,
        &lb,
        &lc,
    ));
    let blocks = |layout: &Layout, seed: u64| -> Arc<Vec<Vec<Mat<f64>>>> {
        let rank = |r: usize| {
            layout
                .owned(r)
                .iter()
                .map(|x| global_block(seed, *x))
                .collect()
        };
        Arc::new((0..P).map(rank).collect())
    };
    let (a, b) = (blocks(&la, 1), blocks(&lb, 2));
    let flat = per_op(4, || {
        let (plan, a, b) = (Arc::clone(&plan), Arc::clone(&a), Arc::clone(&b));
        world
            .run_job(opts, move |ctx| {
                let comm = Comm::world(ctx);
                let me = comm.rank();
                let comms = plan.ca3dmm().comms(ctx, &comm);
                plan.multiply_in(ctx, &comm, &comms, &a[me], &b[me])
            })
            .expect("a rank panicked");
    });

    let mm = Arc::new(Ca3dmm::new(
        Problem::new(192, 192, 192, P),
        &Ca3dmmOptions::default(),
    ));
    assert_eq!(*mm.grid_context().grid(), Grid::new(2, 2, 2));
    let native_blocks = |layout: Layout, seed: u64| -> Arc<Vec<Option<Mat<f64>>>> {
        let first = |r: usize| layout.owned(r).first().map(|x| global_block(seed, *x));
        Arc::new((0..P).map(first).collect())
    };
    let gc = mm.grid_context();
    let (a, b) = (
        native_blocks(gc.layout_a(), 3),
        native_blocks(gc.layout_b(), 4),
    );
    let native = per_op(4, || {
        let (mm, a, b) = (Arc::clone(&mm), Arc::clone(&a), Arc::clone(&b));
        world
            .run_job(opts, move |ctx| {
                let world = Comm::world(ctx);
                let me = world.rank();
                let comms = mm.comms(ctx, &world);
                mm.multiply_native_in(ctx, &world, &comms, a[me].clone(), b[me].clone())
            })
            .expect("a rank panicked");
    });

    for (what, (allocs, zeroed)) in [("flat", flat), ("native", native)] {
        eprintln!("{what}: {allocs} allocations, {zeroed} B zero-filled per op");
    }
    check("flat", flat, FLAT_PER_OP);
    check("native", native, NATIVE_PER_OP);
}
