//! Runtime autotuner for the blocked GEMM's cache-blocking parameters.
//!
//! The five-loop kernel in [`gemm`](mod@crate::gemm) needs three blocking sizes
//! (the BLIS names): `KC` (depth of one packed slab), `MC` (rows of one
//! packed A block) and `NC` (columns of one packed B slab). Good values are
//! a function of the cache hierarchy, so instead of hard-coding one
//! machine's numbers this module probes the caches once at first use and
//! derives the blocking analytically, per element size:
//!
//! * **KC** — one `KC×NR` strip of packed B is streamed through the
//!   microkernel for every `MR`-row strip of the A block, so it should stay
//!   L1-resident: `KC = L1d / 2 / (NR · elem)`, leaving the other half of
//!   L1 for the A panel stream and C tile.
//! * **MC** — the packed `MC×KC` A block is reused across every `NR`-column
//!   strip of the B slab, so it should fill about half of L2:
//!   `MC = L2 / 2 / (KC · elem)`.
//! * **NC** — the packed `KC×NC` B slab is reused across every `MC`-row
//!   block of A, so it should fit in this core's share of L3:
//!   `NC = L3_share / 2 / (KC · elem)`.
//!
//! Cache sizes come from sysfs (`/sys/devices/system/cpu/cpu0/cache`,
//! Linux) with compiled-in fallbacks (32 KiB / 512 KiB / 8 MiB) elsewhere;
//! the L3 share divides the package L3 by the number of CPUs listed in its
//! `shared_cpu_list`. The SIMD register width is probed too
//! (AVX-512 / AVX2 / SSE2 on x86-64) — it drives the microkernel
//! dispatcher ([`kernel`]), whose selected `MR×NR` geometry
//! in turn parameterizes the derivation here: the blocking and the
//! [`probed_peak_gflops`] roofline ceiling are both computed *for the
//! dispatched kernel*, cached per `(element size, kernel)`.
//!
//! The blocking a call uses is the *per-thread* [`set_gemm_blocking`] pin
//! when one is set (tests use it to force boundary configurations without
//! racing other threads), else the derived values, computed once per
//! `(element size, kernel)` and cached in a `OnceLock`.
//!
//! Both sources are normalized: `MC` is rounded to a multiple of `MR`, `NC`
//! to a multiple of `NR` (the *selected kernel's* values for derived
//! blockings, the portable constants for pins — a non-multiple pin still
//! runs correctly, the packers absorb ragged tails), and all three are
//! clamped to sane ranges, so the kernel never sees a degenerate blocking.

use crate::kernel::{self, KernelKind};
use crate::pack::{MR, NR};
use crate::scalar::Scalar;
use std::sync::OnceLock;

/// Cache-blocking parameters for the five-loop GEMM (BLIS naming).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Blocking {
    /// Rows per packed A block (loop 3 step); multiple of `MR`.
    pub mc: usize,
    /// Depth per packed slab (loop 4 step).
    pub kc: usize,
    /// Columns per packed B slab (loop 5 step); multiple of `NR`.
    pub nc: usize,
}

/// The shallowest depth slab a derived blocking uses: `KC` is clamped to at
/// least this on every host. A product shallower than it under-fills the
/// slab, and the microkernel loads and stores each `C` tile once per call
/// whatever the depth, so a caller that can batch thin products along `k`
/// (CA3DMM's §III-F multi-shift) batches them up to this depth.
pub const KC_FLOOR: usize = 64;

/// What the one-shot probe discovered about this machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheInfo {
    /// L1 data cache size in bytes (per core).
    pub l1d: usize,
    /// L2 cache size in bytes (per core).
    pub l2: usize,
    /// This core's *share* of the last-level cache in bytes (package size
    /// divided by the number of CPUs sharing it).
    pub l3_share: usize,
    /// Widest SIMD register in bits (512 / 256 / 128) — the basis of the
    /// microkernel dispatch in [`kernel`].
    pub simd_bits: usize,
}

/// Fallbacks when sysfs is unavailable (non-Linux, sandboxes): a
/// conservative x86-64 baseline.
const FALLBACK: CacheInfo = CacheInfo {
    l1d: 32 * 1024,
    l2: 512 * 1024,
    l3_share: 8 * 1024 * 1024,
    simd_bits: 128,
};

/// The probed cache hierarchy, computed once per process.
pub fn cache_info() -> CacheInfo {
    static INFO: OnceLock<CacheInfo> = OnceLock::new();
    *INFO.get_or_init(|| {
        let (l1d, l2, l3_share) =
            probe_sysfs().unwrap_or((FALLBACK.l1d, FALLBACK.l2, { FALLBACK.l3_share }));
        CacheInfo {
            l1d,
            l2,
            l3_share,
            simd_bits: simd_bits(),
        }
    })
}

/// Widest SIMD register width in bits on this host.
fn simd_bits() -> usize {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return 512;
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return 256;
        }
        128 // SSE2 is baseline on x86-64
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        128
    }
}

/// Parses a sysfs cache `size` string: `"48K"`, `"2048K"`, `"1M"`, plain
/// bytes. Returns `None` on anything unrecognized.
fn parse_size(s: &str) -> Option<usize> {
    let s = s.trim();
    let (digits, mult) = match s.as_bytes().last()? {
        b'K' | b'k' => (&s[..s.len() - 1], 1024),
        b'M' | b'm' => (&s[..s.len() - 1], 1024 * 1024),
        b'G' | b'g' => (&s[..s.len() - 1], 1024 * 1024 * 1024),
        _ => (s, 1),
    };
    digits.parse::<usize>().ok().map(|n| n * mult)
}

/// Counts the CPUs in a sysfs `shared_cpu_list` string (`"0-3,8,10-11"`).
fn count_cpu_list(s: &str) -> Option<usize> {
    let mut count = 0usize;
    for part in s.trim().split(',') {
        if part.is_empty() {
            continue;
        }
        match part.split_once('-') {
            Some((lo, hi)) => {
                let (lo, hi) = (
                    lo.trim().parse::<usize>().ok()?,
                    hi.trim().parse::<usize>().ok()?,
                );
                count += hi.checked_sub(lo)? + 1;
            }
            None => {
                part.trim().parse::<usize>().ok()?;
                count += 1;
            }
        }
    }
    (count > 0).then_some(count)
}

/// Best-effort Linux sysfs probe of (L1d, L2, L3 share) for cpu0. Any
/// missing level falls back individually; `None` only when *nothing* was
/// readable.
fn probe_sysfs() -> Option<(usize, usize, usize)> {
    let base = std::path::Path::new("/sys/devices/system/cpu/cpu0/cache");
    let read = |idx: usize, file: &str| -> Option<String> {
        std::fs::read_to_string(base.join(format!("index{idx}")).join(file)).ok()
    };
    let mut l1d = None;
    let mut l2 = None;
    let mut l3_share = None;
    for idx in 0..8 {
        let Some(level) = read(idx, "level").and_then(|s| s.trim().parse::<u32>().ok()) else {
            break;
        };
        let ty = read(idx, "type").unwrap_or_default();
        let ty = ty.trim();
        let Some(size) = read(idx, "size").and_then(|s| parse_size(&s)) else {
            continue;
        };
        match (level, ty) {
            (1, "Data") | (1, "Unified") => l1d = Some(size),
            (2, _) if ty != "Instruction" => l2 = Some(size),
            (3, _) if ty != "Instruction" => {
                let sharers = read(idx, "shared_cpu_list")
                    .and_then(|s| count_cpu_list(&s))
                    .unwrap_or(1);
                l3_share = Some((size / sharers).max(1));
            }
            _ => {}
        }
    }
    if l1d.is_none() && l2.is_none() && l3_share.is_none() {
        return None;
    }
    Some((
        l1d.unwrap_or(FALLBACK.l1d),
        l2.unwrap_or(FALLBACK.l2),
        // No (or no readable) L3: treat L2 as the last level so NC still
        // bounds the B slab by something real.
        l3_share.unwrap_or_else(|| l2.map_or(FALLBACK.l3_share, |l2| l2 * 8)),
    ))
}

fn round_down_to(multiple: usize, v: usize) -> usize {
    (v / multiple).max(1) * multiple
}

/// The analytic BLIS-style derivation (see the module docs) for elements of
/// `elem` bytes and a kernel with register-block geometry `mr × nr`.
pub fn derive(ci: CacheInfo, elem: usize, mr: usize, nr: usize) -> Blocking {
    // KC: the KC×nr packed-B micro-panel should own about 2/3 of L1d,
    // leaving the rest for the streaming mr×KC A panel and the C tile.
    // (Half-of-L1 is the textbook figure; measured on AVX-512 hosts the
    // larger panel wins a few percent by amortizing loop overhead — 48K L1
    // lands on the classic KC = 256 for the portable f64 geometry.)
    let kc = (ci.l1d * 2 / 3 / (nr * elem)).clamp(KC_FLOOR, 1024);
    let mc = ci.l2 / 2 / (kc * elem);
    let nc = ci.l3_share / 2 / (kc * elem);
    normalize_for(Blocking { mc, kc, nc }, mr, nr)
}

/// Rounds `mc`/`nc` to multiples of the given register-block geometry and
/// clamps everything to sane ranges, so the kernel never sees a zero or
/// pathological blocking.
pub fn normalize_for(b: Blocking, mr: usize, nr: usize) -> Blocking {
    Blocking {
        mc: round_down_to(mr, b.mc.clamp(mr, 1024)),
        kc: b.kc.clamp(8, 1024),
        nc: round_down_to(nr, b.nc.clamp(nr, 8192)),
    }
}

/// [`normalize_for`] with the portable geometry — applied to pins, which
/// are kernel-agnostic.
/// A blocking that is not a multiple of the *selected* kernel's `mr`/`nr`
/// still runs correctly: the packers zero-pad ragged tails.
pub fn normalize(b: Blocking) -> Blocking {
    normalize_for(b, MR, NR)
}

std::thread_local! {
    /// Per-thread pin from [`set_gemm_blocking`]; `None` = unset.
    static THREAD_BLOCKING: std::cell::Cell<Option<Blocking>> =
        const { std::cell::Cell::new(None) };
}

/// Pins (or with `None` clears) the blocking used by GEMM calls made *from
/// the current thread*. Takes precedence over the derived values.
/// Thread-local on purpose: concurrently running tests and rank threads can
/// pin different configurations without racing; pin it on the thread that
/// *calls* [`gemm`](crate::gemm::gemm) (the blocking is resolved at the
/// call site, before work fans out to the pool).
pub fn set_gemm_blocking(b: Option<Blocking>) {
    THREAD_BLOCKING.with(|c| c.set(b.map(normalize)));
}

/// Derived blocking for `elem`-byte elements under kernel `kind`, computed
/// once per `(size, kernel)` pair.
fn derived(elem: usize, kind: KernelKind) -> Blocking {
    static CELLS: [[OnceLock<Blocking>; 3]; 2] = [
        [const { OnceLock::new() }; 3],
        [const { OnceLock::new() }; 3],
    ];
    let ei = usize::from(elem != 4);
    *CELLS[ei][kind.index()].get_or_init(|| {
        let (mr, nr) = kind.geom(elem);
        derive(cache_info(), elem, mr, nr)
    })
}

/// The blocking a GEMM call dispatching to `kind` will use: the
/// [`set_gemm_blocking`] pin, else the value derived and cached for
/// `(element size, kind)`.
pub fn blocking_for<T: Scalar>(kind: KernelKind) -> Blocking {
    THREAD_BLOCKING
        .with(|c| c.get())
        .unwrap_or_else(|| derived(std::mem::size_of::<T>(), kind))
}

/// [`blocking_for`] resolved against the currently selected kernel — what
/// the next GEMM call from this thread will use.
pub fn blocking<T: Scalar>() -> Blocking {
    blocking_for::<T>(kernel::gemm_kernel_for::<T>())
}

/// Measures this core's peak arithmetic rate in Gflop/s by timing the
/// *actual* register microkernel the dispatcher selected — at the selected
/// kernel's own `MR×NR` geometry, on L1-resident packed panels — the
/// roofline ceiling [`prof`](crate::prof) reports achieved GEMM throughput
/// against. Probing the dispatched kernel (not the portable fallback)
/// keeps the dashboard's `peak%` honest: a SIMD kernel measured against a
/// portable ceiling would read far above 100%. This is deliberately a
/// single-core figure: the profile's achieved rate is per-busy-core too,
/// so the two are directly comparable.
///
/// Probed once per `(element size, kernel)` — the kernel is part of the
/// cache key — and cached.
pub fn probed_peak_gflops<T: Scalar>() -> f64 {
    probed_peak_gflops_for::<T>(kernel::gemm_kernel_for::<T>())
}

/// [`probed_peak_gflops`] for an explicit kernel (must be
/// [`available`](KernelKind::available)).
pub fn probed_peak_gflops_for<T: Scalar>(kind: KernelKind) -> f64 {
    static CELLS: [[OnceLock<f64>; 3]; 2] = [
        [const { OnceLock::new() }; 3],
        [const { OnceLock::new() }; 3],
    ];
    let elem = std::mem::size_of::<T>();
    if elem != 4 && elem != 8 {
        return probe_peak::<T>(KernelKind::Portable);
    }
    let ei = usize::from(elem != 4);
    *CELLS[ei][kind.index()].get_or_init(|| probe_peak::<T>(kind))
}

/// By-size dispatch for callers that erased the scalar type (the profiler
/// stores only the element width); 0.0 for widths no kernel uses.
pub(crate) fn probed_peak_gflops_for_elem_kind(elem: usize, kind: KernelKind) -> f64 {
    match elem {
        4 => probed_peak_gflops_for::<f32>(kind),
        8 => probed_peak_gflops_for::<f64>(kind),
        _ => 0.0,
    }
}

fn probe_peak<T: Scalar>(kind: KernelKind) -> f64 {
    assert!(kind.available(), "cannot probe unavailable kernel {kind:?}");
    const KK: usize = 128; // panel depth: KC-like, comfortably L1-resident
    let (mr, nr) = kind.geom(std::mem::size_of::<T>());
    let mut x = T::ONE;
    let apanel: Vec<T> = (0..KK * mr)
        .map(|_| {
            // Mildly varied values so no multiply folds to a constant.
            x += T::ONE;
            x
        })
        .collect();
    let bpanel: Vec<T> = (0..KK * nr).rev().map(|v| T::from_f64(v as f64)).collect();
    let mut acc = vec![T::ZERO; mr * nr];
    let flops_per_pass = (2 * mr * nr * KK) as f64;
    // Calibrate the rep count until one timed pass lasts ≥ 1 ms, then keep
    // the best (least-interrupted) of three measured passes.
    let mut reps = 64usize;
    loop {
        let t0 = std::time::Instant::now();
        for _ in 0..reps {
            kernel::microkernel_tile(kind, &apanel, &bpanel, KK, T::ONE, &mut acc);
            std::hint::black_box(&mut acc);
        }
        if t0.elapsed().as_secs_f64() >= 1e-3 || reps >= (1 << 22) {
            break;
        }
        reps *= 2;
    }
    let mut best = 0.0f64;
    for _ in 0..3 {
        let t0 = std::time::Instant::now();
        for _ in 0..reps {
            kernel::microkernel_tile(kind, &apanel, &bpanel, KK, T::ONE, &mut acc);
            std::hint::black_box(&mut acc);
        }
        best = best.max(flops_per_pass * reps as f64 / t0.elapsed().as_secs_f64() / 1e9);
    }
    best.max(f64::MIN_POSITIVE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_size_suffixes() {
        assert_eq!(parse_size("48K"), Some(48 * 1024));
        assert_eq!(parse_size("2048K\n"), Some(2048 * 1024));
        assert_eq!(parse_size("1M"), Some(1024 * 1024));
        assert_eq!(parse_size("4096"), Some(4096));
        assert_eq!(parse_size("zonk"), None);
        assert_eq!(parse_size(""), None);
    }

    #[test]
    fn cpu_list_counting() {
        assert_eq!(count_cpu_list("0"), Some(1));
        assert_eq!(count_cpu_list("0-3"), Some(4));
        assert_eq!(count_cpu_list("0-3,8,10-11"), Some(7));
        assert_eq!(count_cpu_list(""), None);
        assert_eq!(count_cpu_list("3-1"), None); // inverted range
        assert_eq!(count_cpu_list("a-b"), None);
    }

    #[test]
    fn derive_is_cache_monotone_and_normalized() {
        let small = CacheInfo {
            l1d: 16 * 1024,
            l2: 256 * 1024,
            l3_share: 2 * 1024 * 1024,
            simd_bits: 128,
        };
        let big = CacheInfo {
            l1d: 64 * 1024,
            l2: 2 * 1024 * 1024,
            l3_share: 32 * 1024 * 1024,
            simd_bits: 512,
        };
        for elem in [4usize, 8] {
            let bs = derive(small, elem, MR, NR);
            let bb = derive(big, elem, MR, NR);
            assert!(bb.kc >= bs.kc, "{elem}: kc not monotone");
            assert!(bb.mc >= bs.mc, "{elem}: mc not monotone");
            assert!(bb.nc >= bs.nc, "{elem}: nc not monotone");
            for b in [bs, bb] {
                assert_eq!(b.mc % MR, 0);
                assert_eq!(b.nc % NR, 0);
                assert!(b.kc >= 8 && b.kc <= 1024);
                // The KC bound is what keeps packed slabs strictly smaller
                // than a full-matrix pack for k > 1024 (2048^3 case).
                assert!(b.mc <= 1024 && b.nc <= 8192);
            }
        }
        // Smaller elements fit more per line: f32 blocking >= f64 blocking.
        assert!(derive(big, 4, MR, NR).kc >= derive(big, 8, MR, NR).kc);
    }

    #[test]
    fn thread_pin_overrides_and_clears() {
        let pin = Blocking {
            mc: 8,
            kc: 8,
            nc: 32,
        };
        set_gemm_blocking(Some(pin));
        assert_eq!(blocking::<f64>(), pin);
        assert_eq!(blocking::<f32>(), pin);
        set_gemm_blocking(None);
        let b = blocking::<f64>();
        assert!(b.kc >= 8, "cleared pin must fall back to the derived value");
    }

    #[test]
    fn derive_follows_kernel_geometry() {
        let ci = CacheInfo {
            l1d: 48 * 1024,
            l2: 1024 * 1024,
            l3_share: 8 * 1024 * 1024,
            simd_bits: 512,
        };
        for kind in KernelKind::ALL {
            for elem in [4usize, 8] {
                let (mr, nr) = kind.geom(elem);
                let b = derive(ci, elem, mr, nr);
                assert_eq!(b.mc % mr, 0, "{kind:?}/{elem}: mc {} vs mr {mr}", b.mc);
                assert_eq!(b.nc % nr, 0, "{kind:?}/{elem}: nc {} vs nr {nr}", b.nc);
                // A wider NR streams a wider B panel through L1, so KC may
                // only shrink relative to a narrower geometry.
                let portable = derive(ci, elem, MR, NR);
                assert!(b.kc <= portable.kc || nr <= NR, "{kind:?}/{elem}");
            }
        }
    }

    #[test]
    fn peak_probe_is_cached_per_kernel() {
        // The selected kernel's probe: must be positive and stable across
        // calls (cached).
        let p1 = probed_peak_gflops::<f64>();
        let p2 = probed_peak_gflops::<f64>();
        assert!(p1 > 0.0);
        assert_eq!(p1, p2);
        // An explicitly keyed probe for the portable kernel works on any
        // host and is cached under its own key.
        let pp = probed_peak_gflops_for::<f64>(KernelKind::Portable);
        assert!(pp > 0.0);
        assert_eq!(pp, probed_peak_gflops_for::<f64>(KernelKind::Portable));
    }

    #[test]
    fn probe_runs_without_panicking() {
        // Whatever the host, the probe must produce a usable hierarchy.
        let ci = cache_info();
        assert!(ci.l1d >= 4 * 1024);
        assert!(ci.l2 >= ci.l1d);
        assert!(matches!(ci.simd_bits, 128 | 256 | 512));
    }
}
