//! Kernel-level profiling for the blocked GEMM: span recording,
//! submit→wake latency, and roofline attribution.
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
//! * **spans** — each phase interval is also pushed into the capture's
//!   own bounded span buffer, whichever thread ran the phase. Once the
//!   buffer holds its capacity, later spans are left out: the profile's
//!   `coverage` states what fraction of the exact busy seconds the
//!   retained spans represent. Spans share the trace's clock
//!   (nanoseconds since [`epoch`]) and feed the Chrome trace
//!   (`msgpass::RunReport::to_chrome_json`) and the per-thread imbalance
//!   estimate;
//! * **submit→wake latency** — the enqueue→pop seconds of every pool helper
//!   job, attributed to the capture whose GEMM submitted the work.
//!
//! # Captures
//!
//! Whether a GEMM is profiled is decided in exactly one place: *the calling
//! thread has an open capture*. A rank thread (or a bench) calls
//! [`begin_capture`], runs its GEMMs, and [`end_capture`] returns the
//! aggregated [`KernelProfile`]. Every span and counter goes to its own
//! capture (each pool job carries its capture's handle), so concurrent
//! ranks profiling on the shared pool do not mix, and a profiled run next
//! to an unprofiled one in the same process cannot affect it. Without an
//! open capture a GEMM call costs one thread-local read (plus one per
//! parallel region) — no timestamps, no span writes, no allocation.
//!
//! Runs ask for captures through `msgpass::RunOptions::gemm_prof` (off by
//! default; `fig5_breakdown --prof` turns it on).
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
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Spans one capture retains; later ones are left out (the exact
/// aggregate counters are unaffected, and `coverage` reports the
/// shortfall).
const SPAN_CAPACITY: usize = 1 << 14;

/// The process-wide instant all span timestamps are nanoseconds since —
/// the profiler's and `msgpass`'s trace clock alike, so kernel spans and
/// rank spans line up without rebasing.
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
pub enum SpanPhase {
    /// Per-thread packing of an `MC×KC` A block (loop 3 prologue).
    PackA,
    /// Cooperative packing of a `KC×NC` B slab (loop 4 prologue).
    PackB,
    /// Macro-tile compute: the `MR×NR` microkernel over one C band.
    Compute,
    /// Pool gap: from job enqueue to the worker popping it.
    Wake,
    /// The submitting thread's wait for region completion.
    Barrier,
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
}

/// One recorded span: `[t0_ns, t1_ns]` since [`epoch`], on OS thread
/// `thread`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ProfSpan {
    /// Process-wide id of the recording OS thread (assigned on the
    /// thread's first span).
    pub thread: usize,
    /// Which kernel phase the interval covers.
    pub phase: SpanPhase,
    /// Start, nanoseconds since [`epoch`].
    pub t0_ns: u64,
    /// End, nanoseconds since [`epoch`].
    pub t1_ns: u64,
}

static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);

std::thread_local! {
    /// This OS thread's [`ProfSpan::thread`] id.
    static THREAD_ID: usize = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// Per-capture state shared (via `Arc`) with the pool jobs and region
/// closures the capture's GEMM calls create.
pub(crate) struct CaptureInner {
    /// Total enqueue→pop nanoseconds over this capture's helper jobs.
    wake_ns: AtomicU64,
    /// The capture's retained spans, at most [`SPAN_CAPACITY`].
    spans: Mutex<Vec<ProfSpan>>,
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
    elem_bytes: usize,
    /// The microkernel the folded calls dispatched to (last one wins; a
    /// capture normally runs a single kernel).
    kernel: Option<KernelKind>,
}

struct CaptureState {
    inner: Arc<CaptureInner>,
    totals: Totals,
}

std::thread_local! {
    static CAPTURE: RefCell<Option<CaptureState>> = const { RefCell::new(None) };
}

/// Starts a capture on the calling thread: subsequent [`crate::gemm()`]
/// calls *from this thread* record into it (their pool
/// helper jobs inherit the capture). Replaces any capture already
/// active on this thread.
pub fn begin_capture() {
    let _ = epoch(); // pin t = 0 before any span can be recorded
    CAPTURE.with(|c| {
        *c.borrow_mut() = Some(CaptureState {
            inner: Arc::new(CaptureInner {
                wake_ns: AtomicU64::new(0),
                spans: Mutex::new(Vec::new()),
            }),
            totals: Totals::default(),
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
    let mut spans = std::mem::take(&mut *inner.spans.lock().unwrap_or_else(|e| e.into_inner()));
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
        imbalance,
        coverage,
        submit_wake_secs: inner.wake_ns.load(Ordering::Relaxed) as f64 * 1e-9,
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
        if !Arc::ptr_eq(&st.inner, &cp.inner) {
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
        t.elem_bytes = elem_bytes;
        t.kernel = Some(kind);
    });
}

/// Pushes one span into the capture's buffer, or leaves it out once the
/// buffer is full.
pub(crate) fn record_span(inner: &CaptureInner, phase: SpanPhase, t0_ns: u64, t1_ns: u64) {
    let span = ProfSpan {
        thread: THREAD_ID.with(|&id| id),
        phase,
        t0_ns,
        t1_ns,
    };
    let mut spans = inner.spans.lock().unwrap_or_else(|e| e.into_inner());
    if spans.len() < SPAN_CAPACITY {
        spans.push(span);
    }
}

/// The calling thread's capture handle, for the pool to tag helper jobs
/// with; `None` when no capture is active.
pub(crate) fn active_handle() -> Option<Arc<CaptureInner>> {
    CAPTURE.with(|c| c.borrow().as_ref().map(|s| Arc::clone(&s.inner)))
}

/// Called by a pool worker when it pops a tagged job: accounts the
/// submit→wake latency and a `Wake` span.
pub(crate) fn note_wake(inner: &CaptureInner, enqueue_ns: u64) {
    let t = now_ns();
    inner
        .wake_ns
        .fetch_add(t.saturating_sub(enqueue_ns), Ordering::Relaxed);
    record_span(inner, SpanPhase::Wake, enqueue_ns, t);
}

/// Records a `Barrier` span (the submitter's completion wait) against the
/// capture.
pub(crate) fn note_barrier(inner: &CaptureInner, t0_ns: u64) {
    record_span(inner, SpanPhase::Barrier, t0_ns, now_ns());
}

jsonlite::record! {
    /// One capture's aggregated kernel profile.
    ///
    /// The seconds fields are *thread-seconds* summed over every participating
    /// thread: `pack_a_secs + pack_b_secs + compute_secs + idle_secs ==
    /// thread_secs` (within float rounding), and `thread_secs` is the sum of
    /// `width · wall` over the capture's GEMM calls.
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
        pub kernel: &'static str as KernelName,
        /// The probed single-core microkernel ceiling for the capture's
        /// element size *and kernel* (so `achieved/peak` stays ≤ 1 whichever
        /// kernel the dispatcher picked).
        pub peak_gflops: f64,
        /// Max/mean per-thread busy seconds over the retained spans (1.0 when
        /// at most one thread recorded).
        pub imbalance: f64,
        /// Fraction of the exact busy seconds the retained spans represent
        /// (1.0 = the capture's span buffer never filled).
        pub coverage: f64,
        /// Total enqueue→pop seconds over the capture's pool helper jobs.
        pub submit_wake_secs: f64,
        /// The retained spans, sorted by `(thread, t0)`. Not serialized:
        /// they feed the Chrome trace's kernel tracks.
        pub spans: Vec<ProfSpan> as jsonlite::Skip,
    }
}

/// The [`jsonlite::Codec`] of [`KernelProfile::kernel`]: a name
/// [`KernelKind::parse`] knows, read back as its `'static` spelling.
pub struct KernelName;

impl jsonlite::Codec<&'static str> for KernelName {
    fn write(v: &&'static str) -> Option<jsonlite::Json> {
        Some(jsonlite::Json::Str((*v).to_owned()))
    }

    fn read(v: Option<&jsonlite::Json>, what: &str, key: &str) -> Result<&'static str, String> {
        let name: String = <jsonlite::Required as jsonlite::Codec<_>>::read(v, what, key)?;
        KernelKind::parse(&name)
            .map(KernelKind::name)
            .ok_or_else(|| format!("{what}.{key} {name:?} is not a known microkernel"))
    }
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
        assert!(p.coverage > 1.0 - 1e-9, "no span dropped: {}", p.coverage);
        assert!(p.spans.iter().any(|s| s.phase == SpanPhase::Compute));
        for s in &p.spans {
            assert!(s.t1_ns >= s.t0_ns);
        }
    }

    #[test]
    fn parallel_capture_records_the_pool_regions() {
        let p = profiled_square(160, 3); // 160³·2 flops clears the cutoff
        assert_eq!(p.thread_secs, 3.0 * p.gemm_wall_secs, "width 3");
        assert!(
            p.spans.iter().any(|s| s.phase == SpanPhase::Barrier),
            "the submitter's region waits must be recorded"
        );
        // Spans from the helper jobs carry the worker's thread id when a
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

    /// Spans live in their capture, not in a per-thread table: a thread
    /// that records after hundreds of short-lived threads (a fresh rank
    /// thread per run) keeps its spans.
    #[test]
    fn spans_survive_many_short_lived_threads() {
        // One thread at a time, each joined before the next starts.
        let mut last = None;
        for _ in 0..330 {
            let thread = std::thread::spawn(|| profiled_square(16, 1));
            last = Some(thread.join().expect("capture thread"));
        }
        let p = last.expect("330 threads ran");
        assert!(!p.spans.is_empty(), "the last thread's spans were dropped");
        assert!(p.coverage > 0.0, "coverage {}", p.coverage);
    }

    #[test]
    fn pct_split_sums_to_hundred() {
        let p = profiled_square(96, 1);
        let (pack, compute, idle) = p.pct_split();
        assert!((pack + compute + idle - 100.0).abs() < 1.0);
    }
}
