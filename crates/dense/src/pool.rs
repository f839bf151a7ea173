//! Persistent worker pool for the local GEMM kernel.
//!
//! The pre-packed GEMM spawned fresh OS threads with `std::thread::scope`
//! on *every call* and sized itself to `available_parallelism()` — so a
//! 16-rank `msgpass` run oversubscribed the host 16×. This module replaces
//! that with:
//!
//! * a lazy global pool of parked worker threads (`dense-gemm-N`), spawned
//!   once and reused by every GEMM call in the process;
//! * a *thread cap* resolved per calling thread:
//!   `set_gemm_threads()` (process-wide) > `DENSE_GEMM_THREADS` (env, the
//!   one environment variable this crate reads — a deployment setting) >
//!   `available_parallelism()`, further overridden per rank thread by
//!   [`set_rank_gemm_threads`] — which `msgpass::World::run` sets to
//!   `base / world_size` so P concurrent ranks never ask for more kernel
//!   threads than the machine has cores;
//! * `parallel_chunks` — the fork-join primitive the blocked GEMM builds
//!   its pack and macro-tile phases from: a chunk counter shared between
//!   the submitting thread and `width - 1` pool workers.
//!
//! Work distribution is a chunked queue: a parallel region shares one
//! atomic chunk counter between the submitting thread and the workers, so
//! the submitter always makes progress even when every worker is busy (or
//! when the pool is empty on a 1-core host) — no phase ever *requires* a
//! worker, and no enqueued job ever blocks waiting for another job, so
//! there is no hand-off that can deadlock even when many ranks submit
//! concurrently. `submit` wakes exactly as many workers as it enqueued
//! jobs (counted `notify_one`s, not `notify_all`): waking the whole pool
//! for a two-job region would stampede every parked thread through the
//! queue lock just to go back to sleep — measurable contention when many
//! ranks submit small GEMMs at once.

use crate::prof;
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// One queued unit of pool work: the closure plus (when kernel profiling
/// is capturing) the submitter's capture handle and the enqueue timestamp,
/// so the popping worker can attribute the submit→wake gap.
pub(crate) struct Job {
    run: Box<dyn FnOnce() + Send + 'static>,
    prof: Option<JobProf>,
}

struct JobProf {
    inner: Arc<prof::CaptureInner>,
    enqueue_ns: u64,
}

impl Job {
    /// An unprofiled job (the only kind tests and non-capturing submitters
    /// create).
    pub(crate) fn new(run: impl FnOnce() + Send + 'static) -> Self {
        Job {
            run: Box::new(run),
            prof: None,
        }
    }

    fn profiled(run: impl FnOnce() + Send + 'static, inner: Arc<prof::CaptureInner>) -> Self {
        Job {
            run: Box::new(run),
            prof: Some(JobProf {
                inner,
                enqueue_ns: prof::now_ns(),
            }),
        }
    }
}

struct Shared {
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
}

/// Worker threads spawned so far (they are never torn down).
static WORKERS: AtomicUsize = AtomicUsize::new(0);
/// Process-wide cap from [`set_gemm_threads`]; 0 = unset.
static GLOBAL_CAP: AtomicUsize = AtomicUsize::new(0);

std::thread_local! {
    /// Per-thread cap from [`set_rank_gemm_threads`]; 0 = unset.
    static RANK_CAP: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

fn shared() -> &'static Arc<Shared> {
    static SHARED: OnceLock<Arc<Shared>> = OnceLock::new();
    SHARED.get_or_init(|| {
        Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
        })
    })
}

fn worker_loop(shared: Arc<Shared>) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                queue = shared
                    .available
                    .wait(queue)
                    .unwrap_or_else(|e| e.into_inner());
            }
        };
        let Job { run, prof: jp } = job;
        if let Some(jp) = jp {
            prof::note_wake(&jp.inner, jp.enqueue_ns);
        }
        // A panicking job must not kill the (permanent) worker; the
        // submitter observes the failure through the region's panic flag.
        let _ = std::panic::catch_unwind(AssertUnwindSafe(run));
    }
}

/// Ensures at least `want` workers exist (capped at a sanity bound).
fn ensure_workers(want: usize) {
    const MAX_WORKERS: usize = 256;
    let want = want.min(MAX_WORKERS);
    loop {
        let have = WORKERS.load(Ordering::Acquire);
        if have >= want {
            return;
        }
        if WORKERS
            .compare_exchange(have, have + 1, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            continue;
        }
        let sh = Arc::clone(shared());
        let spawned = std::thread::Builder::new()
            .name(format!("dense-gemm-{have}"))
            .spawn(move || worker_loop(sh))
            .is_ok();
        if !spawned {
            // Could not spawn (resource limits): stop asking for more.
            WORKERS.store(have, Ordering::Release);
            return;
        }
    }
}

/// Enqueues `jobs` for the pool, growing it up to `jobs.len()` workers.
/// Wakes exactly `jobs.len()` parked workers — one `notify_one` per job —
/// instead of `notify_all`, so concurrent small submissions from many rank
/// threads do not stampede the whole pool through the queue lock.
pub(crate) fn submit(jobs: Vec<Job>) {
    if jobs.is_empty() {
        return;
    }
    ensure_workers(jobs.len());
    let sh = shared();
    let mut queue = sh.queue.lock().unwrap_or_else(|e| e.into_inner());
    let n = jobs.len();
    queue.extend(jobs);
    drop(queue);
    // Counted wakeups sized to the job count. Spurious extra notifies (a
    // notified worker may grab two jobs before another wakes) are harmless:
    // a woken worker with an empty queue just re-parks.
    for _ in 0..n {
        sh.available.notify_one();
    }
}

/// Shared state of one [`parallel_chunks`] region.
struct Region {
    /// Next chunk to claim (shared by the caller and the helper jobs).
    next: AtomicUsize,
    /// Total chunks in the region.
    total: usize,
    /// (chunks finished, helper jobs exited) — both guarded together so a
    /// single condvar covers the two completion criteria.
    progress: Mutex<(usize, usize)>,
    done: Condvar,
    /// Set when any chunk body panicked.
    panicked: AtomicBool,
}

impl Region {
    fn bump_finished(&self) {
        let mut p = self.progress.lock().unwrap_or_else(|e| e.into_inner());
        p.0 += 1;
        drop(p);
        self.done.notify_all();
    }

    fn bump_jobs_exited(&self) {
        let mut p = self.progress.lock().unwrap_or_else(|e| e.into_inner());
        p.1 += 1;
        drop(p);
        self.done.notify_all();
    }

    /// Runs the claim loop on the current thread. Every claimed chunk is
    /// counted as finished even if its body panics (the flag records the
    /// failure); claiming stops early once a panic is observed.
    fn claim_loop(&self, body: &(dyn Fn(usize) + Sync)) {
        while !self.panicked.load(Ordering::Relaxed) {
            let chunk = self.next.fetch_add(1, Ordering::Relaxed);
            if chunk >= self.total {
                break;
            }
            let ok = std::panic::catch_unwind(AssertUnwindSafe(|| body(chunk))).is_ok();
            if !ok {
                self.panicked.store(true, Ordering::Relaxed);
            }
            self.bump_finished();
        }
    }
}

/// Runs `body(chunk)` for every `chunk in 0..nchunks`, distributed over the
/// calling thread plus up to `width - 1` pool workers, and returns only
/// once every chunk has completed. This is the fork-join primitive under
/// the blocked GEMM's parallel pack and macro-tile phases.
///
/// Chunks are claimed dynamically from one shared atomic counter — the
/// classic chunk-counter scheme — so the caller always makes progress even
/// if every pool worker is busy with other ranks' regions, and load
/// imbalance between chunks self-schedules. Helper jobs never block inside
/// the region (there are no barriers), so regions from concurrent ranks
/// can interleave on the pool without any risk of deadlock.
///
/// If any chunk body panics (on a worker or on the caller), the region
/// drains safely — remaining participants stop claiming, in-flight bodies
/// finish — and the panic is re-raised on the caller.
///
/// # Safety (internal)
///
/// `body` may borrow the caller's stack (`'a`, not `'static`); the
/// lifetime is erased to hand it to the pool. Soundness rests on the
/// completion protocol, which guarantees no job can touch `body` after
/// this function returns:
///
/// * the normal path returns only after `finished == nchunks`; at that
///   point the counter is exhausted, so a still-queued helper job's first
///   claim fails and it exits without ever invoking `body`;
/// * the panic path (caller's own chunk panicked) poisons the counter and
///   waits for every helper *job* to exit before unwinding;
/// * helper jobs only dereference the erased pointer to invoke `body` for
///   a successfully claimed chunk (`chunk < total`).
pub(crate) fn parallel_chunks<'a>(
    width: usize,
    nchunks: usize,
    body: &(dyn Fn(usize) + Sync + 'a),
) {
    if nchunks == 0 {
        return;
    }
    let width = width.min(nchunks).max(1);
    if width == 1 {
        for chunk in 0..nchunks {
            body(chunk);
        }
        return;
    }

    let region = Arc::new(Region {
        next: AtomicUsize::new(0),
        total: nchunks,
        progress: Mutex::new((0, 0)),
        done: Condvar::new(),
        panicked: AtomicBool::new(false),
    });

    // SAFETY: see the function docs — the completion protocol below keeps
    // `body` alive for as long as any job can possibly invoke it.
    let body_erased: &'static (dyn Fn(usize) + Sync) =
        unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), _>(body) };

    let prof_handle = prof::active_handle();

    let helpers = width - 1;
    let jobs: Vec<Job> = (0..helpers)
        .map(|_| {
            let region = Arc::clone(&region);
            let run = move || {
                region.claim_loop(body_erased);
                region.bump_jobs_exited();
            };
            match &prof_handle {
                Some(h) => Job::profiled(run, Arc::clone(h)),
                None => Job::new(run),
            }
        })
        .collect();
    submit(jobs);

    // The caller participates through the same counter, so the region
    // completes even if no worker ever picks the helper jobs up.
    let caller_result = std::panic::catch_unwind(AssertUnwindSafe(|| region.claim_loop(body)));

    if let Err(payload) = caller_result {
        // `claim_loop` contains each chunk's panic; reaching here means the
        // machinery itself failed. Poison the counter so stale jobs exit at
        // their first claim, then wait for every helper job to leave the
        // region before unwinding frees the borrows behind `body`.
        region.panicked.store(true, Ordering::Relaxed);
        region.next.store(usize::MAX / 2, Ordering::Relaxed);
        let mut p = region.progress.lock().unwrap_or_else(|e| e.into_inner());
        while p.1 < helpers {
            p = region.done.wait(p).unwrap_or_else(|e| e.into_inner());
        }
        drop(p);
        std::panic::resume_unwind(payload);
    }

    // Wait for completion. Normally that is "every chunk finished"; after a
    // body panic the participants stop claiming, so the finished count can
    // stall short of `nchunks` — then the exit condition is "every helper
    // job has left the region" (the caller's own claim loop has already
    // returned), which equally guarantees nobody can still touch `body`.
    // (Helper jobs still queued behind other ranks' work find the counter
    // exhausted and exit without touching `body`; they only hold the Arc'd
    // region.)
    let wait_t0 = prof_handle.as_ref().map(|_| prof::now_ns());
    let mut p = region.progress.lock().unwrap_or_else(|e| e.into_inner());
    loop {
        if p.0 >= nchunks {
            break;
        }
        if region.panicked.load(Ordering::Relaxed) && p.1 >= helpers {
            break;
        }
        p = region.done.wait(p).unwrap_or_else(|e| e.into_inner());
    }
    drop(p);
    if let (Some(h), Some(t0)) = (&prof_handle, wait_t0) {
        prof::note_barrier(h, t0);
    }

    if region.panicked.load(Ordering::Relaxed) {
        panic!("a dense-gemm parallel region chunk panicked");
    }
}

fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn env_cap() -> usize {
    static ENV: OnceLock<usize> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("DENSE_GEMM_THREADS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or(0)
    })
}

/// The process-wide kernel-thread budget *before* any per-rank override:
/// `set_gemm_threads()` if called, else `DENSE_GEMM_THREADS`, else
/// `available_parallelism()`.
pub fn base_gemm_threads() -> usize {
    let explicit = GLOBAL_CAP.load(Ordering::Relaxed);
    if explicit > 0 {
        return explicit;
    }
    let env = env_cap();
    if env > 0 {
        return env;
    }
    hardware_threads()
}

/// Caps the number of kernel threads any single GEMM call may use,
/// process-wide. Overrides `DENSE_GEMM_THREADS`.
pub fn set_gemm_threads(n: usize) {
    GLOBAL_CAP.store(n.max(1), Ordering::Relaxed);
}

/// Sets (or with `None` clears) the kernel-thread cap for GEMM calls made
/// *from the current thread*. This is the per-rank knob: `msgpass`'s
/// `World::run` sets it on every rank thread to
/// `base_gemm_threads() / world_size` (min 1), so the ranks together never
/// request more kernel threads than the base budget. A set rank cap takes
/// precedence over the process-wide value — tests use that to pin exact
/// widths.
pub fn set_rank_gemm_threads(n: Option<usize>) {
    RANK_CAP.with(|c| c.set(n.map_or(0, |n| n.max(1))));
}

/// This thread's cap from [`set_rank_gemm_threads`], if one is set.
pub fn rank_gemm_threads() -> Option<usize> {
    Some(RANK_CAP.with(|c| c.get())).filter(|&n| n > 0)
}

/// The per-rank kernel-thread cap `World::run` should apply for a world of
/// `world_size` ranks: an even split of the base budget, min 1.
pub fn rank_threads_for(world_size: usize) -> usize {
    (base_gemm_threads() / world_size.max(1)).max(1)
}

/// The effective kernel-thread width for a GEMM call on this thread.
pub fn gemm_threads() -> usize {
    let rank = RANK_CAP.with(|c| c.get());
    if rank > 0 {
        rank
    } else {
        base_gemm_threads()
    }
}

/// Number of pool worker threads currently alive (excludes submitters).
pub fn pool_workers() -> usize {
    WORKERS.load(Ordering::Acquire)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn caps_resolve_in_precedence_order() {
        // Thread-local cap wins; clearing it falls back to the base value.
        set_rank_gemm_threads(Some(3));
        assert_eq!(gemm_threads(), 3);
        set_rank_gemm_threads(None);
        assert!(gemm_threads() >= 1);
    }

    #[test]
    fn submitted_jobs_run() {
        let (tx, rx) = mpsc::channel();
        let jobs: Vec<Job> = (0..4)
            .map(|i| {
                let tx = tx.clone();
                Job::new(move || {
                    tx.send(i).unwrap();
                })
            })
            .collect();
        submit(jobs);
        let mut got: Vec<i32> = (0..4).map(|_| rx.recv().unwrap()).collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3]);
        assert!(pool_workers() >= 1);
    }

    #[test]
    fn panicking_job_does_not_kill_workers() {
        submit(vec![Job::new(|| panic!("job panic"))]);
        // The pool must still process subsequent jobs.
        let (tx, rx) = mpsc::channel();
        submit(vec![Job::new(move || {
            tx.send(42u8).unwrap();
        })]);
        assert_eq!(
            rx.recv_timeout(std::time::Duration::from_secs(10)).unwrap(),
            42
        );
    }

    #[test]
    fn parallel_chunks_covers_every_chunk_exactly_once() {
        const N: usize = 97;
        let hits: Vec<AtomicUsize> = (0..N).map(|_| AtomicUsize::new(0)).collect();
        parallel_chunks(4, N, &|chunk| {
            hits[chunk].fetch_add(1, Ordering::Relaxed);
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "chunk {i}");
        }
    }

    #[test]
    fn parallel_chunks_width_one_runs_inline() {
        let before = pool_workers();
        let order = Mutex::new(Vec::new());
        parallel_chunks(1, 5, &|chunk| {
            order.lock().unwrap().push(chunk);
        });
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3, 4]);
        assert_eq!(pool_workers(), before, "width 1 must not grow the pool");
    }

    #[test]
    fn parallel_chunks_propagates_body_panic() {
        let result = std::panic::catch_unwind(|| {
            parallel_chunks(3, 16, &|chunk| {
                if chunk == 7 {
                    panic!("chunk 7 exploded");
                }
            });
        });
        assert!(result.is_err(), "region must re-raise the chunk panic");
        // And the pool must still be serviceable afterwards.
        let ran = AtomicUsize::new(0);
        parallel_chunks(3, 8, &|_| {
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn poisoned_region_drains_and_pool_stays_usable_for_gemm() {
        use crate::gemm::{gemm, gemm_naive, GemmOp};
        use crate::mat::Mat;
        use crate::random::fill_random;

        set_rank_gemm_threads(Some(4));
        // A chunk body panics mid-region: the region must poison, every
        // participant must drain, and the panic must re-surface here.
        let result = std::panic::catch_unwind(|| {
            parallel_chunks(4, 64, &|chunk| {
                if chunk == 13 {
                    panic!("chunk 13 exploded");
                }
                std::thread::yield_now();
            });
        });
        assert!(result.is_err(), "region must re-raise the chunk panic");

        // The drain left no stale jobs claiming into freed stack frames and
        // the workers survived the unwind: the next *multiply* on the same
        // pool must run the full parallel path and stay correct.
        let mut a = Mat::<f64>::zeros(130, 70);
        let mut b = Mat::<f64>::zeros(70, 90);
        let mut c = Mat::<f64>::zeros(130, 90);
        let mut c_ref = Mat::<f64>::zeros(130, 90);
        fill_random(&mut a, 21);
        fill_random(&mut b, 22);
        gemm(GemmOp::NoTrans, GemmOp::NoTrans, 1.0, &a, &b, 0.0, &mut c);
        gemm_naive(
            GemmOp::NoTrans,
            GemmOp::NoTrans,
            1.0,
            &a,
            &b,
            0.0,
            &mut c_ref,
        );
        set_rank_gemm_threads(None);
        assert!(
            c.max_abs_diff(&c_ref) < 1e-10,
            "post-panic multiply is wrong: the pool did not recover"
        );
    }

    #[test]
    fn nested_and_concurrent_regions_complete() {
        // Many submitter threads sharing the pool at once — the scenario
        // the counted notify_one wakeups target (16 ranks, small GEMMs).
        let total = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..16 {
                s.spawn(|| {
                    for _ in 0..8 {
                        parallel_chunks(3, 11, &|_| {
                            total.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 16 * 8 * 11);
    }
}
