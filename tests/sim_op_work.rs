//! The work of one simulated op, counted: allocations and bytes allocated
//! by one compute-free `simulate_native` of the benchmark's `sim_scale`
//! problem (3072 × 3072 × 6144 on 384 virtual ranks). A counting
//! `#[global_allocator]` makes the figures exact. It counts only on the
//! thread that runs the op: the simulator polls every rank on the calling
//! thread in FIFO order, so the figures are deterministic and equal in
//! debug and release builds. Counted process-wide, about one run in thirty
//! read 4 allocations and 900 B more, made by another thread of the test
//! harness while the op ran.

use ca3dmm::{Ca3dmm, Ca3dmmOptions};
use gridopt::Problem;
use msgpass::SimOptions;
use netmodel::Machine;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

struct Counting;

thread_local! {
    /// Set on the thread that runs the counted op, and only around it, so
    /// the test harness's other threads allocate uncounted. `const`
    /// initialisation needs no allocation and no lazy-init path, so reading
    /// it from inside the allocator cannot recurse.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

/// Calls of `alloc`, `alloc_zeroed` and `realloc`.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Bytes those calls asked for (`realloc`: the new size).
static BYTES: AtomicU64 = AtomicU64::new(0);

fn count(size: usize) {
    // `try_with`: a thread being torn down has no slot left to read.
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(size as u64, Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to `System`; the counters are
// statistics and touch no memory the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Allocations and bytes of one op, and the slack either may drift by.
/// Both grow with any per-rank or per-message allocation added to the
/// simulator, such as a rank scanning the whole world (3 × 384 × 384 B).
/// The column join after each rank's c = 2 replication allocates nothing
/// (`dense::Mat::join_cols`); when it built a slice-offset table of c + 1
/// `usize`s, the op took 384 allocations and 384 × 24 B more.
const ALLOCS_PER_OP: u64 = 25_217;
const BYTES_PER_OP: u64 = 4_141_441;
const SLACK: f64 = 0.02;

#[test]
fn one_simulated_op_allocates_a_pinned_amount() {
    let mm = Ca3dmm::new(
        Problem::new(3072, 3072, 6144, 384),
        &Ca3dmmOptions::default(),
    );
    let machine = Machine::phoenix_cpu();
    let opts = || SimOptions {
        placement: Some(machine.pure_mpi()),
        execute_compute: false,
    };
    // A small warm-up op leaves behind what every later op reuses (the
    // thread's lazily built statics).
    let small = Ca3dmm::new(Problem::new(64, 64, 128, 8), &Ca3dmmOptions::default());
    small.simulate_native(&machine, opts());
    COUNTING.set(true);
    let report = mm.simulate_native(&machine, opts());
    COUNTING.set(false);
    let (allocs, bytes) = (ALLOCS.load(Relaxed), BYTES.load(Relaxed));
    let msgs: u64 = (0..384).map(|r| report.rank_total(r).msgs).sum();
    assert_eq!(msgs, 7488, "the op's schedule changed");
    eprintln!("one simulated op: {allocs} allocations, {bytes} B");
    let near = |got: u64, pin: u64| (got as f64 - pin as f64).abs() <= SLACK * pin as f64;
    assert!(
        near(allocs, ALLOCS_PER_OP),
        "{allocs} allocations per op, pinned at {ALLOCS_PER_OP} ± 2 %"
    );
    assert!(
        near(bytes, BYTES_PER_OP),
        "{bytes} B allocated per op, pinned at {BYTES_PER_OP} ± 2 %"
    );
}
