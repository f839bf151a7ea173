//! The work of one simulated op, counted: allocations, bytes allocated
//! and rank polls of one compute-free `simulate_native` of the benchmark's
//! `sim_scale` problem (3072 × 3072 × 6144 on 384 virtual ranks) and of a
//! c = 192 replication ring. A counting `#[global_allocator]` makes the
//! figures exact. It counts only on the thread that runs the op: the
//! simulator polls every rank on the calling thread in FIFO order, so the
//! figures are deterministic and equal in debug and release builds, and
//! they are pinned exactly. Counted process-wide, about one run in thirty
//! read 4 allocations and 900 B more, made by another thread of the test
//! harness while the op ran; the counters are per thread, so the two
//! tests here may run at once.

use ca3dmm::{Ca3dmm, Ca3dmmOptions};
use gridopt::Problem;
use msgpass::SimOptions;
use netmodel::Machine;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// Set on the thread that runs the counted op, and only around it, so
    /// the test harness's other threads (and the other test) allocate
    /// uncounted. `const` initialisation needs no allocation and no
    /// lazy-init path, so reading these from inside the allocator cannot
    /// recurse.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    /// Calls of `alloc`, `alloc_zeroed` and `realloc` on this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes those calls asked for (`realloc`: the new size).
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(size: usize) {
    // `try_with`: a thread being torn down has no slot left to read.
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCS.set(ALLOCS.get() + 1);
        BYTES.set(BYTES.get() + size as u64);
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

/// What one simulated op costs: allocations, bytes they asked for, and
/// rank polls.
#[derive(Debug, PartialEq, Eq)]
struct Work {
    allocs: u64,
    bytes: u64,
    polls: u64,
}

/// Runs `op` on this thread with the counters on, after one warm-up run
/// that leaves behind what every later op reuses (the thread's lazily
/// built statics).
fn count_op(op: impl Fn() -> msgpass::RunReport) -> (Work, msgpass::RunReport) {
    op();
    let polls = msgpass::sim::polls_on_this_thread();
    COUNTING.set(true);
    let report = op();
    COUNTING.set(false);
    let work = Work {
        allocs: ALLOCS.get(),
        bytes: BYTES.get(),
        polls: msgpass::sim::polls_on_this_thread() - polls,
    };
    (work, report)
}

fn opts(machine: &Machine) -> SimOptions {
    SimOptions {
        placement: Some(machine.pure_mpi()),
        execute_compute: false,
    }
}

/// The benchmark's `sim_scale` op. The figures grow with any per-message
/// or per-rank allocation added to the simulator, such as a rank scanning
/// the whole world (3 × 384 × 384 B). Of the allocations, 7 488 are the
/// payload boxes, one per message (`comm::tests::envelope_stays_eight_words`
/// says why they stay); the rest are O(1) per rank: its future, counters,
/// receive tables and collective scratch, and one member list per group.
/// A rank is polled once at its start and once per send that refills its
/// parked mailbox, so the polls count the schedule's wake-ups.
#[test]
fn one_simulated_op_allocates_a_pinned_amount() {
    let mm = Ca3dmm::new(
        Problem::new(3072, 3072, 6144, 384),
        &Ca3dmmOptions::default(),
    );
    let machine = Machine::phoenix_cpu();
    let (work, report) = count_op(|| mm.simulate_native(&machine, opts(&machine)));
    let msgs: u64 = (0..384).map(|r| report.rank_total(r).msgs).sum();
    assert_eq!(msgs, 7488, "the op's schedule changed");
    eprintln!("one simulated op: {work:?}");
    assert_eq!(
        work,
        Work {
            allocs: ALLOCS_PER_OP,
            bytes: BYTES_PER_OP,
            polls: POLLS_PER_OP,
        }
    );
}

const ALLOCS_PER_OP: u64 = 13_908;
const BYTES_PER_OP: u64 = 2_930_885;
const POLLS_PER_OP: u64 = 1_888;

/// Fig. 3's large-M class at p = 192, CA3DMM, shape-only: a c = 192
/// replication ring, 191 steps on every rank, whose makespan and message
/// count `sim_virtual_time` pins. Its work is O(1) allocations per rank
/// besides one payload box per message, and one poll per wake-up.
#[test]
fn a_c192_ring_allocates_and_polls_a_pinned_amount() {
    let (_, m, n, k) = bench::CPU_CLASSES[2];
    let mm = Ca3dmm::new(Problem::new(m, n, k, 192), &Ca3dmmOptions::default());
    let machine = Machine::phoenix_cpu();
    let (work, report) = count_op(|| mm.simulate_native(&machine, opts(&machine)));
    let msgs: u64 = (0..192).map(|r| report.rank_total(r).msgs).sum();
    assert_eq!(msgs, 36_672, "the ring's schedule changed");
    eprintln!("c = 192 ring: {work:?}");
    assert_eq!(
        work,
        Work {
            allocs: RING_ALLOCS,
            bytes: RING_BYTES,
            polls: RING_POLLS,
        }
    );
}

const RING_ALLOCS: u64 = 39_598;
const RING_BYTES: u64 = 3_615_759;
const RING_POLLS: u64 = 383;
