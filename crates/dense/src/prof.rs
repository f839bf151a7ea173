//! Kernel-level profiling for the blocked GEMM: per-thread span recording,
//! pool telemetry, and roofline attribution.
//!
//! The message-passing side of this repository can attribute every byte and
//! wait-second (`msgpass::traffic`, `msgpass::trace`); this module gives the
//! compute side the same treatment. Inside a capture, every
//! [`gemm`](crate::gemm::gemm) call records *where its thread-seconds went*:
//!
//! * **exact aggregates** — the pack/compute phase closures bump per-call
//!   atomic nanosecond counters, folded at call end into the capturing
//!   thread's totals. `pack_a + pack_b + compute + idle ≡ width · wall` by
//!   construction (idle is derived as the remainder, clamped at zero), so
//!   the attribution always reconciles with the call's wall time;
//! * **per-thread spans** — each phase interval is also written into a
//!   fixed-capacity lock-free ring buffer owned by the recording thread
//!   (one cache-line-padded slot per thread, [`RING_CAPACITY`] records,
//!   *oldest records overwritten first*). Spans are best-effort: the
//!   profile's `coverage` states what fraction of the exact busy seconds
//!   the retained spans represent, and `dropped_spans` counts the rest.
//!   Spans feed the merged Perfetto trace
//!   (`msgpass::Timeline::to_chrome_json_with_kernel`) and the per-thread
//!   imbalance estimate;
//! * **pool telemetry** — queue-depth high-water at submit, submit→wake
//!   latency per helper job, jobs executed per worker, and the
//!   `parallel_chunks` region count, all attributed to the capture whose
//!   GEMM submitted the work.
//!
//! # Captures
//!
//! Whether a GEMM is profiled is decided in exactly one place: *the calling
//! thread has an open capture*. A rank thread (or a bench) calls
//! [`begin_capture`], runs its GEMMs, and [`end_capture`] returns the
//! aggregated [`KernelProfile`]. Every span and counter is tagged with the
//! capture id, so concurrent ranks profiling on the shared pool do not mix,
//! and a profiled run next to an unprofiled one in the same process cannot
//! affect it. Without an open capture a GEMM call costs one thread-local
//! read (plus one per parallel region) — no timestamps, no ring writes, no
//! allocation.
//!
//! Runs ask for captures through `msgpass::RunOptions::gemm_prof`; its
//! default is [`requested_by_env`], the `DENSE_GEMM_PROF` environment
//! variable (any value but `0`) read once per process.
//!
//! # Roofline
//!
//! The profile compares achieved arithmetic throughput
//! (`flops / compute_secs`, a *per-busy-core* rate) against
//! [`tune::probed_peak_gflops`] — the
//! measured single-core rate of *the dispatched* `mr×nr` register
//! microkernel on L1-resident panels (the profile records which kernel ran,
//! and the peak is probed per kernel, so roofline percentages stay ≤ 100%
//! whichever kernel the dispatcher picked) — and measured pack traffic
//! against the analytic `O(MC·KC + KC·NC)` packed-working-set bound of the
//! five-loop design.

use crate::kernel::{self, KernelKind};
use crate::tune;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Span records each thread's ring can hold; older records are overwritten
/// (the exact aggregate counters are unaffected by truncation).
pub const RING_CAPACITY: usize = 1024;

/// Threads that can ever own a profiling slot (workers + submitters). A
/// thread past the cap still contributes to the exact aggregates; only its
/// spans are dropped (and counted in [`KernelProfile::dropped_spans`]).
pub const MAX_PROFILED_THREADS: usize = 320;

/// Words per ring record: tag (`capture_id << 8 | phase`), t0, t1.
const REC_WORDS: usize = 3;

/// Whether the environment asks for kernel profiling: `DENSE_GEMM_PROF` set
/// to anything but empty or `0`, read once per process. This only seeds the
/// default of run options; recording itself is scoped by captures.
pub fn requested_by_env() -> bool {
    static REQUESTED: OnceLock<bool> = OnceLock::new();
    *REQUESTED
        .get_or_init(|| std::env::var("DENSE_GEMM_PROF").is_ok_and(|v| !v.is_empty() && v != "0"))
}

/// The process-wide instant all span timestamps are nanoseconds since.
/// Exposed so `msgpass` can rebase kernel spans onto a run's own epoch when
/// merging them into the Chrome trace.
pub fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since [`epoch`].
#[inline]
pub(crate) fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// The kernel phase a span or counter is attributed to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum SpanPhase {
    /// Per-thread packing of an `MC×KC` A block (loop 3 prologue).
    PackA = 1,
    /// Cooperative packing of a `KC×NC` B slab (loop 4 prologue).
    PackB = 2,
    /// Macro-tile compute: the `MR×NR` microkernel over one C band.
    Compute = 3,
    /// Pool gap: from job enqueue to the worker popping it.
    Wake = 4,
    /// The submitting thread's wait for region completion.
    Barrier = 5,
}

impl SpanPhase {
    /// Stable lowercase name (used as the Chrome-trace event name).
    pub fn label(self) -> &'static str {
        match self {
            SpanPhase::PackA => "pack_a",
            SpanPhase::PackB => "pack_b",
            SpanPhase::Compute => "compute",
            SpanPhase::Wake => "wake",
            SpanPhase::Barrier => "barrier",
        }
    }

    /// Whether the phase counts toward busy time (pack + compute, as
    /// opposed to the wake/barrier scheduling gaps).
    pub fn is_busy(self) -> bool {
        matches!(
            self,
            SpanPhase::PackA | SpanPhase::PackB | SpanPhase::Compute
        )
    }

    fn from_u8(v: u8) -> Option<Self> {
        match v {
            1 => Some(SpanPhase::PackA),
            2 => Some(SpanPhase::PackB),
            3 => Some(SpanPhase::Compute),
            4 => Some(SpanPhase::Wake),
            5 => Some(SpanPhase::Barrier),
            _ => None,
        }
    }
}

/// One harvested span: `[t0_ns, t1_ns]` since [`epoch`], recorded by the
/// thread owning profiling slot `thread`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ProfSpan {
    /// Process-wide profiling slot of the recording thread.
    pub thread: usize,
    /// Which kernel phase the interval covers.
    pub phase: SpanPhase,
    /// Start, nanoseconds since [`epoch`].
    pub t0_ns: u64,
    /// End, nanoseconds since [`epoch`].
    pub t1_ns: u64,
}

/// One thread's profiling slot: padded to a cache line so the hot `seq` /
/// `jobs` counters of adjacent workers never share one.
#[repr(align(64))]
struct Slot {
    /// Records written by the owning thread (monotone; the ring index is
    /// `seq % RING_CAPACITY`, so old records are overwritten first).
    seq: AtomicU64,
    /// Pool jobs executed by the owning thread (worker telemetry).
    jobs: AtomicU64,
    /// The ring storage, allocated on the slot's first record.
    ring: OnceLock<Box<[AtomicU64]>>,
}

fn slots() -> &'static [Slot] {
    static SLOTS: OnceLock<Vec<Slot>> = OnceLock::new();
    SLOTS.get_or_init(|| {
        (0..MAX_PROFILED_THREADS)
            .map(|_| Slot {
                seq: AtomicU64::new(0),
                jobs: AtomicU64::new(0),
                ring: OnceLock::new(),
            })
            .collect()
    })
}

static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

std::thread_local! {
    /// This thread's slot index; `usize::MAX` = not yet assigned.
    static MY_SLOT: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
}

/// This thread's profiling slot, assigned on first use; `None` once the
/// slot table is exhausted (spans are then dropped, aggregates unaffected).
fn my_slot() -> Option<usize> {
    MY_SLOT.with(|c| {
        let mut s = c.get();
        if s == usize::MAX {
            s = NEXT_SLOT.fetch_add(1, Ordering::Relaxed);
            c.set(s);
        }
        (s < MAX_PROFILED_THREADS).then_some(s)
    })
}

/// Per-capture counters shared (via `Arc`) with the pool jobs and region
/// closures the capture's GEMM calls create.
pub(crate) struct CaptureInner {
    id: u64,
    /// Spans recorded with this capture's tag (whether or not retained).
    span_writes: AtomicU64,
    /// Total enqueue→pop nanoseconds over this capture's helper jobs.
    wake_ns: AtomicU64,
    /// Helper jobs executed for this capture.
    jobs: AtomicU64,
    /// `parallel_chunks` regions submitted by this capture.
    regions: AtomicU64,
    /// Deepest pool queue observed at this capture's submits.
    queue_hwm: AtomicU64,
}

/// Per-GEMM-call counters. The region closures bump these (atomically,
/// since pool workers share them); [`call_end`](Self) folds them into the
/// submitting thread's capture totals.
pub(crate) struct CallProf {
    pub(crate) inner: Arc<CaptureInner>,
    started: Instant,
    pub(crate) pack_a_ns: AtomicU64,
    pub(crate) pack_b_ns: AtomicU64,
    pub(crate) compute_ns: AtomicU64,
    pub(crate) pack_bytes: AtomicU64,
}

#[derive(Clone, Copy, Debug, Default)]
struct Totals {
    gemm_calls: u64,
    flops: f64,
    wall_secs: f64,
    thread_secs: f64,
    pack_a_secs: f64,
    pack_b_secs: f64,
    compute_secs: f64,
    idle_secs: f64,
    pack_bytes: u64,
    pack_bound_bytes: u64,
    max_width: usize,
    elem_bytes: usize,
    /// The microkernel the folded calls dispatched to (last one wins; a
    /// capture normally runs a single kernel).
    kernel: Option<KernelKind>,
}

struct CaptureState {
    inner: Arc<CaptureInner>,
    totals: Totals,
    jobs_at_begin: Vec<u64>,
}

std::thread_local! {
    static CAPTURE: RefCell<Option<CaptureState>> = const { RefCell::new(None) };
}

static NEXT_CAPTURE_ID: AtomicU64 = AtomicU64::new(1);

/// Starts a capture on the calling thread: subsequent [`crate::gemm()`]
/// calls *from this thread* record into it (their pool
/// helper jobs inherit the capture tag). Replaces any capture already
/// active on this thread.
pub fn begin_capture() {
    let _ = epoch(); // pin t = 0 before any span can be recorded
    let id = NEXT_CAPTURE_ID.fetch_add(1, Ordering::Relaxed);
    let jobs_at_begin = slots()
        .iter()
        .map(|s| s.jobs.load(Ordering::Relaxed))
        .collect();
    CAPTURE.with(|c| {
        *c.borrow_mut() = Some(CaptureState {
            inner: Arc::new(CaptureInner {
                id,
                span_writes: AtomicU64::new(0),
                wake_ns: AtomicU64::new(0),
                jobs: AtomicU64::new(0),
                regions: AtomicU64::new(0),
                queue_hwm: AtomicU64::new(0),
            }),
            totals: Totals::default(),
            jobs_at_begin,
        });
    });
}

/// Ends the calling thread's capture and returns its aggregated profile
/// (`None` if no capture was active).
///
/// Memory-order note: every worker write folded here happened before the
/// corresponding `parallel_chunks` returned on this thread (the region's
/// progress mutex provides the happens-before edge), so the relaxed counter
/// loads below observe complete values.
pub fn end_capture() -> Option<KernelProfile> {
    let st = CAPTURE.with(|c| c.borrow_mut().take())?;
    let t = st.totals;
    let inner = &st.inner;

    // Harvest the retained spans carrying this capture's tag. A record is
    // accepted only if its tag word reads identically before and after the
    // payload loads — a concurrent overwrite (by a *different* capture;
    // this capture's own writers are quiescent by now) changes the tag and
    // the record is skipped.
    let mut spans: Vec<ProfSpan> = Vec::new();
    for (slot_idx, slot) in slots().iter().enumerate() {
        let Some(ring) = slot.ring.get() else {
            continue;
        };
        let n = (slot.seq.load(Ordering::Acquire) as usize).min(RING_CAPACITY);
        for rec in 0..n {
            let base = rec * REC_WORDS;
            let tag = ring[base].load(Ordering::Acquire);
            if tag == 0 || tag >> 8 != inner.id {
                continue;
            }
            let t0_ns = ring[base + 1].load(Ordering::Relaxed);
            let t1_ns = ring[base + 2].load(Ordering::Relaxed);
            if ring[base].load(Ordering::Acquire) != tag || t1_ns < t0_ns {
                continue;
            }
            let Some(phase) = SpanPhase::from_u8((tag & 0xff) as u8) else {
                continue;
            };
            spans.push(ProfSpan {
                thread: slot_idx,
                phase,
                t0_ns,
                t1_ns,
            });
        }
    }
    spans.sort_by_key(|s| (s.thread, s.t0_ns, s.t1_ns));

    let busy_secs = t.pack_a_secs + t.pack_b_secs + t.compute_secs;
    let mut per_thread: Vec<(usize, f64)> = Vec::new();
    let mut span_busy = 0.0;
    for s in spans.iter().filter(|s| s.phase.is_busy()) {
        let d = (s.t1_ns - s.t0_ns) as f64 * 1e-9;
        span_busy += d;
        match per_thread.last_mut() {
            Some((thread, acc)) if *thread == s.thread => *acc += d,
            _ => per_thread.push((s.thread, d)),
        }
    }
    let coverage = if busy_secs > 0.0 {
        (span_busy / busy_secs).min(1.0)
    } else {
        1.0
    };
    let imbalance = if per_thread.len() >= 2 {
        let max = per_thread.iter().map(|&(_, d)| d).fold(0.0, f64::max);
        let mean = per_thread.iter().map(|&(_, d)| d).sum::<f64>() / per_thread.len() as f64;
        if mean > 0.0 {
            max / mean
        } else {
            1.0
        }
    } else {
        1.0
    };
    let writes = inner.span_writes.load(Ordering::Relaxed);
    let dropped_spans = writes.saturating_sub(spans.len() as u64);

    let mut jobs_per_worker: Vec<u64> = slots()
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let before = st.jobs_at_begin.get(i).copied().unwrap_or(0);
            s.jobs.load(Ordering::Relaxed).saturating_sub(before)
        })
        .collect();
    while jobs_per_worker.last() == Some(&0) {
        jobs_per_worker.pop();
    }

    Some(KernelProfile {
        gemm_calls: t.gemm_calls,
        flops: t.flops,
        gemm_wall_secs: t.wall_secs,
        thread_secs: t.thread_secs,
        pack_a_secs: t.pack_a_secs,
        pack_b_secs: t.pack_b_secs,
        compute_secs: t.compute_secs,
        idle_secs: t.idle_secs,
        pack_bytes: t.pack_bytes,
        pack_bound_bytes: t.pack_bound_bytes,
        achieved_gflops: if t.compute_secs > 0.0 {
            t.flops / t.compute_secs / 1e9
        } else {
            0.0
        },
        kernel: t.kernel.unwrap_or_else(kernel::gemm_kernel).name(),
        peak_gflops: tune::probed_peak_gflops_for_elem_kind(
            t.elem_bytes,
            t.kernel.unwrap_or_else(kernel::gemm_kernel),
        ),
        max_width: t.max_width,
        imbalance,
        coverage,
        dropped_spans,
        pool: PoolTelemetry {
            queue_depth_hwm: inner.queue_hwm.load(Ordering::Relaxed),
            submit_wake_secs: inner.wake_ns.load(Ordering::Relaxed) as f64 * 1e-9,
            jobs: inner.jobs.load(Ordering::Relaxed),
            regions: inner.regions.load(Ordering::Relaxed),
            jobs_per_worker,
        },
        spans,
    })
}

/// Starts per-call instrumentation: `Some` only when the calling thread has
/// an active capture.
pub(crate) fn call_begin() -> Option<CallProf> {
    Some(CallProf {
        inner: active_handle()?,
        started: Instant::now(),
        pack_a_ns: AtomicU64::new(0),
        pack_b_ns: AtomicU64::new(0),
        compute_ns: AtomicU64::new(0),
        pack_bytes: AtomicU64::new(0),
    })
}

/// Folds one finished GEMM call into the submitting thread's capture.
/// `idle` is derived as `width·wall − busy` (clamped at zero), so the
/// capture's `pack + compute + idle` always reconciles with its summed
/// `width·wall` thread-seconds.
pub(crate) fn call_end(
    cp: CallProf,
    width: usize,
    flops: f64,
    pack_bound_bytes: u64,
    elem_bytes: usize,
    kind: KernelKind,
) {
    let wall = cp.started.elapsed().as_secs_f64();
    let pack_a = cp.pack_a_ns.load(Ordering::Relaxed) as f64 * 1e-9;
    let pack_b = cp.pack_b_ns.load(Ordering::Relaxed) as f64 * 1e-9;
    let compute = cp.compute_ns.load(Ordering::Relaxed) as f64 * 1e-9;
    let thread_secs = width as f64 * wall;
    let idle = (thread_secs - pack_a - pack_b - compute).max(0.0);
    CAPTURE.with(|c| {
        let mut borrow = c.borrow_mut();
        let Some(st) = borrow.as_mut() else { return };
        if st.inner.id != cp.inner.id {
            return; // the capture this call started under has ended
        }
        let t = &mut st.totals;
        t.gemm_calls += 1;
        t.flops += flops;
        t.wall_secs += wall;
        t.thread_secs += thread_secs;
        t.pack_a_secs += pack_a;
        t.pack_b_secs += pack_b;
        t.compute_secs += compute;
        t.idle_secs += idle;
        t.pack_bytes += cp.pack_bytes.load(Ordering::Relaxed);
        t.pack_bound_bytes += pack_bound_bytes;
        t.max_width = t.max_width.max(width);
        t.elem_bytes = elem_bytes;
        t.kernel = Some(kind);
    });
}

/// Writes one span into the recording thread's ring, tagged with the
/// capture. Lock-free and single-writer per slot; the tag is published
/// last (release) so a concurrent harvest never stitches fields from two
/// records together.
pub(crate) fn record_span(inner: &CaptureInner, phase: SpanPhase, t0_ns: u64, t1_ns: u64) {
    inner.span_writes.fetch_add(1, Ordering::Relaxed);
    let Some(slot_idx) = my_slot() else { return };
    let slot = &slots()[slot_idx];
    let ring = slot.ring.get_or_init(|| {
        (0..RING_CAPACITY * REC_WORDS)
            .map(|_| AtomicU64::new(0))
            .collect::<Vec<_>>()
            .into_boxed_slice()
    });
    let seq = slot.seq.load(Ordering::Relaxed);
    let base = (seq as usize % RING_CAPACITY) * REC_WORDS;
    ring[base].store(0, Ordering::Release); // invalidate while fields change
    ring[base + 1].store(t0_ns, Ordering::Relaxed);
    ring[base + 2].store(t1_ns, Ordering::Relaxed);
    ring[base].store((inner.id << 8) | phase as u64, Ordering::Release);
    slot.seq.store(seq + 1, Ordering::Release);
}

/// The calling thread's capture handle, for the pool to tag helper jobs
/// with; `None` when no capture is active.
pub(crate) fn active_handle() -> Option<Arc<CaptureInner>> {
    CAPTURE.with(|c| c.borrow().as_ref().map(|s| Arc::clone(&s.inner)))
}

/// Counts one `parallel_chunks` region against the capture.
pub(crate) fn note_region(inner: &CaptureInner) {
    inner.regions.fetch_add(1, Ordering::Relaxed);
}

/// Records the pool queue depth observed right after a submit.
pub(crate) fn note_queue_depth(inner: &CaptureInner, depth: usize) {
    inner.queue_hwm.fetch_max(depth as u64, Ordering::Relaxed);
}

/// Called by a pool worker when it pops a tagged job: accounts the
/// submit→wake latency, the per-worker job count, and a `Wake` span.
pub(crate) fn note_wake(inner: &CaptureInner, enqueue_ns: u64) {
    let t = now_ns();
    inner
        .wake_ns
        .fetch_add(t.saturating_sub(enqueue_ns), Ordering::Relaxed);
    inner.jobs.fetch_add(1, Ordering::Relaxed);
    if let Some(slot) = my_slot() {
        slots()[slot].jobs.fetch_add(1, Ordering::Relaxed);
    }
    record_span(inner, SpanPhase::Wake, enqueue_ns, t);
}

/// Records a `Barrier` span (the submitter's completion wait) against the
/// capture.
pub(crate) fn note_barrier(inner: &CaptureInner, t0_ns: u64) {
    record_span(inner, SpanPhase::Barrier, t0_ns, now_ns());
}

/// Pool telemetry attributed to one capture (see the module docs;
/// `jobs_per_worker` is a *pool-wide* per-slot delta over the capture
/// window, so concurrent ranks' jobs appear in each other's vectors —
/// it answers "how busy was the shared pool while I ran", not "who worked
/// for me"; `jobs` is the capture-attributed count).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PoolTelemetry {
    /// Deepest pool queue observed at this capture's submits.
    pub queue_depth_hwm: u64,
    /// Total enqueue→pop seconds over this capture's helper jobs.
    pub submit_wake_secs: f64,
    /// Helper jobs executed for this capture.
    pub jobs: u64,
    /// `parallel_chunks` regions this capture submitted to the pool.
    pub regions: u64,
    /// Pool jobs executed per profiling slot over the capture window
    /// (trailing zeros trimmed).
    pub jobs_per_worker: Vec<u64>,
}

/// One capture's aggregated kernel profile.
///
/// The seconds fields are *thread-seconds* summed over every participating
/// thread: `pack_a_secs + pack_b_secs + compute_secs + idle_secs ==
/// thread_secs` (within float rounding), and `thread_secs` is the sum of
/// `width · wall` over the capture's GEMM calls, so dividing by
/// `max_width` recovers a wall-clock-comparable figure when the width was
/// constant.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct KernelProfile {
    /// GEMM calls folded into this capture.
    pub gemm_calls: u64,
    /// Nominal flop count (`Σ 2mnk`) of those calls.
    pub flops: f64,
    /// Summed wall seconds of the calls (as seen by the submitting thread).
    pub gemm_wall_secs: f64,
    /// Summed `width · wall` thread-seconds.
    pub thread_secs: f64,
    /// Thread-seconds packing A blocks.
    pub pack_a_secs: f64,
    /// Thread-seconds cooperatively packing B slabs.
    pub pack_b_secs: f64,
    /// Thread-seconds in the macro-tile microkernel phase.
    pub compute_secs: f64,
    /// Derived remainder: `thread_secs − busy`, clamped at zero — time
    /// participating threads were idle (scheduling gaps, barrier tails).
    pub idle_secs: f64,
    /// Bytes actually written by the pack routines.
    pub pack_bytes: u64,
    /// The analytic `O(MC·KC + KC·NC)` packed-working-set bound summed over
    /// the same calls (full-block sizes; measured traffic must stay ≤ it).
    pub pack_bound_bytes: u64,
    /// `flops / compute_secs / 1e9` — achieved per-busy-core Gflop/s.
    pub achieved_gflops: f64,
    /// Name of the dispatched microkernel the capture's calls ran
    /// (`"portable"` / `"avx2"` / `"avx512"`; the session-selected kernel
    /// when the capture folded no calls).
    pub kernel: &'static str,
    /// The probed single-core microkernel ceiling for the capture's
    /// element size *and kernel* (so `achieved/peak` stays ≤ 1 whichever
    /// kernel the dispatcher picked).
    pub peak_gflops: f64,
    /// Widest thread width any folded call used.
    pub max_width: usize,
    /// Max/mean per-thread busy seconds over the retained spans (1.0 when
    /// at most one thread recorded).
    pub imbalance: f64,
    /// Fraction of the exact busy seconds the retained spans represent
    /// (1.0 = no ring truncation).
    pub coverage: f64,
    /// Spans recorded but not retained (ring overwrite or slot-table
    /// exhaustion).
    pub dropped_spans: u64,
    /// Pool telemetry for the capture window.
    pub pool: PoolTelemetry,
    /// The retained spans, sorted by `(thread, t0)`. Not serialized into
    /// RunReport JSON; they feed the merged Chrome trace.
    pub spans: Vec<ProfSpan>,
}

impl KernelProfile {
    /// Busy thread-seconds (pack + compute).
    pub fn busy_secs(&self) -> f64 {
        self.pack_a_secs + self.pack_b_secs + self.compute_secs
    }

    /// Percentage split `(pack, compute, idle)` of `thread_secs`; zeros
    /// when the capture saw no GEMM.
    pub fn pct_split(&self) -> (f64, f64, f64) {
        if self.thread_secs <= 0.0 {
            return (0.0, 0.0, 0.0);
        }
        let f = 100.0 / self.thread_secs;
        (
            (self.pack_a_secs + self.pack_b_secs) * f,
            self.compute_secs * f,
            self.idle_secs * f,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{gemm, GemmOp};
    use crate::mat::Mat;
    use crate::random::fill_random;

    fn profiled_square(dim: usize, threads: usize) -> KernelProfile {
        let mut a = Mat::<f64>::zeros(dim, dim);
        let mut b = Mat::<f64>::zeros(dim, dim);
        let mut c = Mat::<f64>::zeros(dim, dim);
        fill_random(&mut a, 7);
        fill_random(&mut b, 8);
        crate::pool::set_rank_gemm_threads(Some(threads));
        begin_capture();
        gemm(GemmOp::NoTrans, GemmOp::NoTrans, 1.0, &a, &b, 0.0, &mut c);
        let p = end_capture().expect("capture was active");
        crate::pool::set_rank_gemm_threads(None);
        p
    }

    #[test]
    fn gemm_outside_a_capture_records_nothing() {
        assert!(call_begin().is_none() && active_handle().is_none());
        let mut a = Mat::<f64>::zeros(8, 8);
        let b = Mat::<f64>::zeros(8, 8);
        let mut c = Mat::<f64>::zeros(8, 8);
        fill_random(&mut a, 1);
        gemm(GemmOp::NoTrans, GemmOp::NoTrans, 1.0, &a, &b, 0.0, &mut c);
        assert!(end_capture().is_none(), "no capture was opened");
        // ... and a capture opened afterwards starts from zero.
        begin_capture();
        let p = end_capture().expect("capture was active");
        assert_eq!(p.gemm_calls, 0);
        assert!(p.spans.is_empty());
    }

    #[test]
    fn serial_capture_reconciles_and_covers() {
        let p = profiled_square(96, 1);
        assert_eq!(p.gemm_calls, 1);
        assert_eq!(p.max_width, 1);
        assert_eq!(p.flops, 2.0 * 96.0 * 96.0 * 96.0);
        // The attribution identity: pack + compute + idle == thread_secs.
        let sum = p.pack_a_secs + p.pack_b_secs + p.compute_secs + p.idle_secs;
        assert!(
            (sum - p.thread_secs).abs() <= 0.05 * p.thread_secs + 1e-12,
            "split {sum} vs thread_secs {}",
            p.thread_secs
        );
        // Serial width: thread-seconds are the wall seconds.
        assert!((p.thread_secs - p.gemm_wall_secs).abs() < 1e-9);
        assert!(p.compute_secs > 0.0 && p.pack_a_secs > 0.0 && p.pack_b_secs > 0.0);
        assert!(p.pack_bytes > 0 && p.pack_bytes <= p.pack_bound_bytes);
        assert!(p.achieved_gflops > 0.0);
        assert!(p.peak_gflops > 0.0);
        assert_eq!(p.kernel, crate::kernel::gemm_kernel().name());
        assert!((0.0..=1.0).contains(&p.coverage));
        assert_eq!(p.dropped_spans, 0);
        assert!(p.spans.iter().any(|s| s.phase == SpanPhase::Compute));
        for s in &p.spans {
            assert!(s.t1_ns >= s.t0_ns);
        }
    }

    #[test]
    fn parallel_capture_sees_pool_telemetry() {
        let p = profiled_square(160, 3); // 160³·2 flops clears the cutoff
        assert_eq!(p.max_width, 3);
        assert!(p.pool.regions > 0, "pool regions must be counted");
        // Spans from the helper jobs land on other threads' slots when a
        // worker picks them up; the caller always records at least its own.
        assert!(!p.spans.is_empty());
        let sum = p.pack_a_secs + p.pack_b_secs + p.compute_secs + p.idle_secs;
        assert!((sum - p.thread_secs).abs() <= 0.05 * p.thread_secs + 1e-12);
    }

    #[test]
    fn concurrent_captures_do_not_mix() {
        let handles: Vec<_> = (0..2)
            .map(|i| {
                std::thread::spawn(move || {
                    let p = profiled_square(96 + 32 * i, 2);
                    (96 + 32 * i, p)
                })
            })
            .collect();
        for h in handles {
            let (dim, p) = h.join().expect("capture thread");
            let d = dim as f64;
            assert_eq!(p.flops, 2.0 * d * d * d, "capture mixed in foreign calls");
            assert_eq!(p.gemm_calls, 1);
        }
    }

    #[test]
    fn pct_split_sums_to_hundred() {
        let p = profiled_square(96, 1);
        let (pack, compute, idle) = p.pct_split();
        assert!((pack + compute + idle - 100.0).abs() < 1.0);
    }
}
