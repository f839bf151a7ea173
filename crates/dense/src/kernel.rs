//! Architecture-specialized register microkernels with runtime dispatch.
//!
//! The five-loop GEMM in [`gemm`](mod@crate::gemm) spends essentially all of
//! its arithmetic inside one `MR×NR` register block. This module provides
//! that block in several flavors and picks one at runtime:
//!
//! | kernel     | f64 `MR×NR` | f32 `MR×NR` | discipline      | requires            |
//! |------------|-------------|-------------|-----------------|---------------------|
//! | `portable` | 4×16        | 4×16        | mul + add       | nothing (fallback)  |
//! | `avx2`     | 4×12        | 6×16        | fused (FMA)     | AVX2 + FMA          |
//! | `avx512`   | 8×16        | 12×32       | fused (FMA)     | AVX-512F, rustc ≥ 1.89 |
//!
//! The `avx2`/`avx512` kernels are written directly against
//! `core::arch::x86_64` intrinsics with `#[target_feature]`; the tile
//! shapes are chosen to fill (but not spill) the architectural register
//! file: the `avx2` f64 tile is a 4×3 grid of `ymm` accumulators plus
//! three B loads and one A broadcast — exactly 16 `ymm` registers — and
//! the `avx512` f32 tile widens `MR` to 12 (24 `zmm` accumulators out of
//! 32) because 16-lane vectors starve a narrow tile of A reuse.
//!
//! # Selection
//!
//! [`gemm_kernel`] resolves, in precedence order:
//!
//! 1. a *per-thread* pin from [`set_gemm_kernel`] (tests/benches compare
//!    kernels without racing each other);
//! 2. the `DENSE_GEMM_KERNEL=portable|avx2|avx512` environment variable,
//!    read once (malformed or unsupported values warn once and fall
//!    through);
//! 3. the widest kernel the host supports, derived from
//!    [`tune::cache_info`](crate::tune::cache_info)'s SIMD probe — probed
//!    once per process.
//!
//! The selected kernel's geometry parameterizes packing
//! ([`pack`](crate::pack)), blocking derivation and the roofline peak
//! probe ([`tune`](crate::tune)), and is recorded by the profiler
//! ([`prof`](crate::prof)) and every report that carries GEMM numbers.
//!
//! # Determinism contract
//!
//! *Within one kernel*, every `C` element is accumulated in the same order
//! regardless of thread width (the order depends only on the `KC` slab
//! sequence and the in-slab `l` order — see [`gemm`](mod@crate::gemm)), so
//! results are bitwise identical across widths *per kernel*. Different
//! kernels are **not** bitwise identical to each other: the SIMD kernels
//! use fused multiply-add (one rounding per term instead of two), so
//! cross-kernel agreement is ulp-bounded, not exact. Artifacts therefore
//! record which kernel produced them.

use crate::scalar::Scalar;
use std::any::TypeId;
use std::sync::OnceLock;

/// Largest `MR` over every kernel geometry.
pub const MAX_MR: usize = 12;
/// Largest `NR` over every kernel geometry.
pub const MAX_NR: usize = 32;
/// Largest `MR·NR` accumulator tile over every kernel geometry (the
/// stack-buffer bound the macro-kernel allocates once per call).
pub const MAX_ACC: usize = 384;

/// One register-microkernel implementation (see the module table).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// The generic `Scalar` loop (autovectorized, separate mul + add).
    Portable,
    /// `core::arch::x86_64` AVX2+FMA intrinsics.
    Avx2,
    /// AVX-512F intrinsics with a wider-MR f32 tile. Only compiled on
    /// rustc ≥ 1.89 (AVX-512 intrinsics stabilization); otherwise never
    /// offered.
    Avx512,
}

impl KernelKind {
    /// Every kind, widest last (selection order is the reverse).
    pub const ALL: [KernelKind; 3] = [KernelKind::Portable, KernelKind::Avx2, KernelKind::Avx512];

    /// Stable lowercase name — the `DENSE_GEMM_KERNEL` vocabulary and what
    /// reports/benches record.
    pub fn name(self) -> &'static str {
        match self {
            KernelKind::Portable => "portable",
            KernelKind::Avx2 => "avx2",
            KernelKind::Avx512 => "avx512",
        }
    }

    /// Parses a [`name`](Self::name); `None` on anything else.
    pub fn parse(s: &str) -> Option<KernelKind> {
        match s.trim() {
            "portable" => Some(KernelKind::Portable),
            "avx2" => Some(KernelKind::Avx2),
            "avx512" => Some(KernelKind::Avx512),
            _ => None,
        }
    }

    /// Dense index for per-kernel caches (`0..ALL.len()`).
    pub(crate) fn index(self) -> usize {
        match self {
            KernelKind::Portable => 0,
            KernelKind::Avx2 => 1,
            KernelKind::Avx512 => 2,
        }
    }

    /// Whether this host (and this compiler) can run the kernel.
    pub fn available(self) -> bool {
        match self {
            KernelKind::Portable => true,
            KernelKind::Avx2 => {
                #[cfg(target_arch = "x86_64")]
                {
                    std::arch::is_x86_feature_detected!("avx2")
                        && std::arch::is_x86_feature_detected!("fma")
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    false
                }
            }
            KernelKind::Avx512 => {
                #[cfg(all(target_arch = "x86_64", dense_avx512))]
                {
                    std::arch::is_x86_feature_detected!("avx512f")
                }
                #[cfg(not(all(target_arch = "x86_64", dense_avx512)))]
                {
                    false
                }
            }
        }
    }

    /// Whether the kernel contracts `a*b + c` into a fused multiply-add
    /// (one rounding per term). Kernels that disagree here are equivalent
    /// only up to an ulp bound, never bitwise.
    pub fn fused_mul_add(self) -> bool {
        !matches!(self, KernelKind::Portable)
    }

    /// The `(MR, NR)` register-block geometry for `elem`-byte scalars.
    pub fn geom(self, elem: usize) -> (usize, usize) {
        match (self, elem) {
            (KernelKind::Portable, _) => (crate::pack::MR, crate::pack::NR),
            (KernelKind::Avx2, 8) => (4, 12),
            (KernelKind::Avx2, _) => (6, 16),
            (KernelKind::Avx512, 8) => (8, 16),
            (KernelKind::Avx512, _) => (12, 32),
        }
    }
}

std::thread_local! {
    /// Per-thread pin from [`set_gemm_kernel`]; `None` = unset.
    static THREAD_KERNEL: std::cell::Cell<Option<KernelKind>> =
        const { std::cell::Cell::new(None) };
}

/// Pins (or with `None` clears) the microkernel used by GEMM calls made
/// *from the current thread* — resolved at the call site, before work fans
/// out to the pool, exactly like [`crate::tune::set_gemm_blocking`]. Takes precedence over
/// `DENSE_GEMM_KERNEL` and the probed default.
///
/// # Panics
/// If the requested kernel is not [`available`](KernelKind::available) on
/// this host — a pinned-but-unrunnable kernel is a programming error, not
/// a fallback situation (the env var, by contrast, warns and falls back).
pub fn set_gemm_kernel(k: Option<KernelKind>) {
    if let Some(k) = k {
        assert!(
            k.available(),
            "set_gemm_kernel({:?}): kernel unavailable on this host",
            k
        );
    }
    THREAD_KERNEL.with(|c| c.set(k));
}

/// The `DENSE_GEMM_KERNEL` override, read and validated once. Malformed or
/// unavailable values are reported to stderr once and ignored.
fn env_kernel() -> Option<KernelKind> {
    static ENV: OnceLock<Option<KernelKind>> = OnceLock::new();
    *ENV.get_or_init(|| {
        let raw = std::env::var("DENSE_GEMM_KERNEL").ok()?;
        match KernelKind::parse(&raw) {
            Some(k) if k.available() => Some(k),
            Some(k) => {
                eprintln!(
                    "dense: DENSE_GEMM_KERNEL={} requested but unavailable on this host; \
                     using the probed default",
                    k.name()
                );
                None
            }
            None => {
                eprintln!(
                    "dense: ignoring malformed DENSE_GEMM_KERNEL={raw:?} \
                     (expected portable|avx2|avx512)"
                );
                None
            }
        }
    })
}

/// The widest available kernel, chosen once per process from
/// [`tune::cache_info`](crate::tune::cache_info)'s SIMD width probe.
fn auto_kernel() -> KernelKind {
    static AUTO: OnceLock<KernelKind> = OnceLock::new();
    *AUTO.get_or_init(|| {
        let bits = crate::tune::cache_info().simd_bits;
        if bits >= 512 && KernelKind::Avx512.available() {
            KernelKind::Avx512
        } else if bits >= 256 && KernelKind::Avx2.available() {
            KernelKind::Avx2
        } else {
            KernelKind::Portable
        }
    })
}

/// The microkernel the next GEMM call from this thread will dispatch to:
/// [`set_gemm_kernel`] pin > `DENSE_GEMM_KERNEL` > probed default.
pub fn gemm_kernel() -> KernelKind {
    if let Some(k) = THREAD_KERNEL.with(|c| c.get()) {
        return k;
    }
    env_kernel().unwrap_or_else(auto_kernel)
}

/// [`gemm_kernel`] guarded by scalar type: the intrinsics kernels exist
/// only for `f32`/`f64`, so any other `Scalar` falls back to the portable
/// kernel (and the portable geometry) regardless of selection.
pub(crate) fn gemm_kernel_for<T: Scalar>() -> KernelKind {
    if TypeId::of::<T>() == TypeId::of::<f64>() || TypeId::of::<T>() == TypeId::of::<f32>() {
        gemm_kernel()
    } else {
        KernelKind::Portable
    }
}

/// Runs kernel `kind` over one packed A panel (`kk·MR`, `l`-major) and one
/// packed B panel (`kk·NR`, `l`-major), accumulating into the row-major
/// `MR×NR` tile at `acc[..mr*nr]`:
/// `acc[i*nr + j] += Σ_l apanel[l*mr + i] · bpanel[l*nr + j]`.
///
/// `kind` must be [`available`](KernelKind::available) — the selection
/// layer guarantees this — and the panels must carry `kind`'s geometry for
/// this scalar type.
#[inline]
pub(crate) fn microkernel<T: Scalar>(
    kind: KernelKind,
    apanel: &[T],
    bpanel: &[T],
    kk: usize,
    acc: &mut [T],
) {
    let (mr, nr) = kind.geom(std::mem::size_of::<T>());
    debug_assert!(apanel.len() >= kk * mr && bpanel.len() >= kk * nr);
    debug_assert!(acc.len() >= mr * nr);
    let is_f64 = TypeId::of::<T>() == TypeId::of::<f64>();
    match kind {
        KernelKind::Portable => microkernel_portable(apanel, bpanel, acc),
        #[cfg(target_arch = "x86_64")]
        KernelKind::Avx2 => {
            // SAFETY: selection guarantees AVX2+FMA are present;
            // `gemm_kernel_for` guarantees T is exactly f64 or f32, so the
            // pointer casts reinterpret same-layout slices; panel/acc sizes
            // were checked against this kernel's geometry above.
            unsafe {
                if is_f64 {
                    mk_avx2_f64(
                        apanel.as_ptr().cast(),
                        bpanel.as_ptr().cast(),
                        kk,
                        acc.as_mut_ptr().cast(),
                    );
                } else {
                    mk_avx2_f32(
                        apanel.as_ptr().cast(),
                        bpanel.as_ptr().cast(),
                        kk,
                        acc.as_mut_ptr().cast(),
                    );
                }
            }
        }
        #[cfg(all(target_arch = "x86_64", dense_avx512))]
        KernelKind::Avx512 => {
            // SAFETY: as for Avx2, with AVX-512F guaranteed by selection.
            unsafe {
                if is_f64 {
                    mk_avx512_f64(
                        apanel.as_ptr().cast(),
                        bpanel.as_ptr().cast(),
                        kk,
                        acc.as_mut_ptr().cast(),
                    );
                } else {
                    mk_avx512_f32(
                        apanel.as_ptr().cast(),
                        bpanel.as_ptr().cast(),
                        kk,
                        acc.as_mut_ptr().cast(),
                    );
                }
            }
        }
        #[cfg(not(all(target_arch = "x86_64", dense_avx512)))]
        #[allow(unreachable_patterns)]
        _ => unreachable!("selected kernel {:?} is not compiled in", kind),
    }
}

/// The portable fallback: the pre-dispatch generic register block,
/// bit-identical to what every prior release computed. Separate multiply
/// and add (no contraction: Rust never fuses float ops implicitly), `l`
/// ascending, rows outer — the summation-order contract every kernel
/// honors.
fn microkernel_portable<T: Scalar>(apanel: &[T], bpanel: &[T], acc: &mut [T]) {
    use crate::pack::{MR, NR};
    for (al, bl) in apanel.chunks_exact(MR).zip(bpanel.chunks_exact(NR)) {
        let bl: &[T; NR] = bl.try_into().expect("B panel is NR-aligned");
        for (i, &ai) in al.iter().enumerate() {
            let row = &mut acc[i * NR..(i + 1) * NR];
            for (c, &b) in row.iter_mut().zip(bl) {
                *c += ai * b;
            }
        }
    }
}

/// AVX2+FMA f64 kernel, 4×12 tile: a 4×3 grid of `ymm` accumulators (12)
/// plus three B loads and one A broadcast fills the 16-register `ymm` file
/// exactly.
///
/// # Safety
/// AVX2 and FMA must be available. `ap`/`bp` must hold `kk·4` / `kk·12`
/// `l`-major packed elements; `acc` a writable row-major 4×12 tile.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn mk_avx2_f64(ap: *const f64, bp: *const f64, kk: usize, acc: *mut f64) {
    use core::arch::x86_64::*;
    let mut c = [[_mm256_setzero_pd(); 3]; 4];
    for (i, row) in c.iter_mut().enumerate() {
        for (j, r) in row.iter_mut().enumerate() {
            *r = _mm256_loadu_pd(acc.add(i * 12 + j * 4));
        }
    }
    for l in 0..kk {
        let b0 = _mm256_loadu_pd(bp.add(l * 12));
        let b1 = _mm256_loadu_pd(bp.add(l * 12 + 4));
        let b2 = _mm256_loadu_pd(bp.add(l * 12 + 8));
        for (i, row) in c.iter_mut().enumerate() {
            let a = _mm256_set1_pd(*ap.add(l * 4 + i));
            row[0] = _mm256_fmadd_pd(a, b0, row[0]);
            row[1] = _mm256_fmadd_pd(a, b1, row[1]);
            row[2] = _mm256_fmadd_pd(a, b2, row[2]);
        }
    }
    for (i, row) in c.iter().enumerate() {
        for (j, r) in row.iter().enumerate() {
            _mm256_storeu_pd(acc.add(i * 12 + j * 4), *r);
        }
    }
}

/// AVX2+FMA f32 kernel, 6×16 tile: a 6×2 grid of `ymm` accumulators (12)
/// plus two B loads and one A broadcast — 15 of 16 `ymm` registers.
///
/// # Safety
/// As [`mk_avx2_f64`], with `kk·6` / `kk·16` panels and a 6×16 tile.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn mk_avx2_f32(ap: *const f32, bp: *const f32, kk: usize, acc: *mut f32) {
    use core::arch::x86_64::*;
    let mut c = [[_mm256_setzero_ps(); 2]; 6];
    for (i, row) in c.iter_mut().enumerate() {
        for (j, r) in row.iter_mut().enumerate() {
            *r = _mm256_loadu_ps(acc.add(i * 16 + j * 8));
        }
    }
    for l in 0..kk {
        let b0 = _mm256_loadu_ps(bp.add(l * 16));
        let b1 = _mm256_loadu_ps(bp.add(l * 16 + 8));
        for (i, row) in c.iter_mut().enumerate() {
            let a = _mm256_set1_ps(*ap.add(l * 6 + i));
            row[0] = _mm256_fmadd_ps(a, b0, row[0]);
            row[1] = _mm256_fmadd_ps(a, b1, row[1]);
        }
    }
    for (i, row) in c.iter().enumerate() {
        for (j, r) in row.iter().enumerate() {
            _mm256_storeu_ps(acc.add(i * 16 + j * 8), *r);
        }
    }
}

/// AVX-512F f64 kernel, 8×16 tile: an 8×2 grid of `zmm` accumulators (16
/// of 32) plus two B loads and one A broadcast.
///
/// # Safety
/// AVX-512F must be available; `kk·8` / `kk·16` panels, 8×16 tile.
#[cfg(all(target_arch = "x86_64", dense_avx512))]
#[target_feature(enable = "avx512f")]
// The AVX-512 intrinsics stabilized in 1.89 > MSRV, but this whole fn only
// compiles under `dense_avx512`, which build.rs emits on rustc >= 1.89.
#[allow(clippy::incompatible_msrv)]
unsafe fn mk_avx512_f64(ap: *const f64, bp: *const f64, kk: usize, acc: *mut f64) {
    use core::arch::x86_64::*;
    let mut c = [[_mm512_setzero_pd(); 2]; 8];
    for (i, row) in c.iter_mut().enumerate() {
        for (j, r) in row.iter_mut().enumerate() {
            *r = _mm512_loadu_pd(acc.add(i * 16 + j * 8));
        }
    }
    for l in 0..kk {
        let b0 = _mm512_loadu_pd(bp.add(l * 16));
        let b1 = _mm512_loadu_pd(bp.add(l * 16 + 8));
        for (i, row) in c.iter_mut().enumerate() {
            let a = _mm512_set1_pd(*ap.add(l * 8 + i));
            row[0] = _mm512_fmadd_pd(a, b0, row[0]);
            row[1] = _mm512_fmadd_pd(a, b1, row[1]);
        }
    }
    for (i, row) in c.iter().enumerate() {
        for (j, r) in row.iter().enumerate() {
            _mm512_storeu_pd(acc.add(i * 16 + j * 8), *r);
        }
    }
}

/// AVX-512F f32 kernel, 12×32 tile — the wider-MR f32 path: a 12×2 grid of
/// `zmm` accumulators (24 of 32) plus two B loads and one A broadcast.
/// 16-lane vectors make NR cheap and A reuse the scarce resource, so MR
/// grows instead.
///
/// # Safety
/// AVX-512F must be available; `kk·12` / `kk·32` panels, 12×32 tile.
#[cfg(all(target_arch = "x86_64", dense_avx512))]
#[target_feature(enable = "avx512f")]
// Same MSRV story as mk_avx512_f64: gated on rustc >= 1.89 by build.rs.
#[allow(clippy::incompatible_msrv)]
unsafe fn mk_avx512_f32(ap: *const f32, bp: *const f32, kk: usize, acc: *mut f32) {
    use core::arch::x86_64::*;
    let mut c = [[_mm512_setzero_ps(); 2]; 12];
    for (i, row) in c.iter_mut().enumerate() {
        for (j, r) in row.iter_mut().enumerate() {
            *r = _mm512_loadu_ps(acc.add(i * 32 + j * 16));
        }
    }
    for l in 0..kk {
        let b0 = _mm512_loadu_ps(bp.add(l * 32));
        let b1 = _mm512_loadu_ps(bp.add(l * 32 + 16));
        for (i, row) in c.iter_mut().enumerate() {
            let a = _mm512_set1_ps(*ap.add(l * 12 + i));
            row[0] = _mm512_fmadd_ps(a, b0, row[0]);
            row[1] = _mm512_fmadd_ps(a, b1, row[1]);
        }
    }
    for (i, row) in c.iter().enumerate() {
        for (j, r) in row.iter().enumerate() {
            _mm512_storeu_ps(acc.add(i * 32 + j * 16), *r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_parse_round_trip() {
        for k in KernelKind::ALL {
            assert_eq!(KernelKind::parse(k.name()), Some(k));
        }
        assert_eq!(KernelKind::parse("zonk"), None);
        assert_eq!(KernelKind::parse(" avx2 "), Some(KernelKind::Avx2));
    }

    #[test]
    fn geometries_fit_the_declared_bounds() {
        for k in KernelKind::ALL {
            for elem in [4usize, 8] {
                let (mr, nr) = k.geom(elem);
                assert!((1..=MAX_MR).contains(&mr), "{k:?}/{elem}: mr {mr}");
                assert!((1..=MAX_NR).contains(&nr), "{k:?}/{elem}: nr {nr}");
                assert!(mr * nr <= MAX_ACC, "{k:?}/{elem}: tile {}", mr * nr);
            }
        }
        // The fallback geometry is the pack-module constant pair.
        assert_eq!(
            KernelKind::Portable.geom(8),
            (crate::pack::MR, crate::pack::NR)
        );
    }

    #[test]
    fn selection_yields_an_available_kernel() {
        let k = gemm_kernel();
        assert!(k.available(), "selected {k:?} must be runnable");
        assert!(KernelKind::Portable.available());
    }

    #[test]
    fn thread_pin_overrides_and_clears() {
        set_gemm_kernel(Some(KernelKind::Portable));
        assert_eq!(gemm_kernel(), KernelKind::Portable);
        set_gemm_kernel(None);
        assert!(gemm_kernel().available());
    }

    /// Every available kernel must compute the same tile as a scalar
    /// reference, up to an FMA-rounding ulp bound (exact for `portable`).
    #[test]
    fn microkernels_match_scalar_reference() {
        fn check<T: Scalar>(kind: KernelKind, tol: f64) {
            let elem = std::mem::size_of::<T>();
            let (mr, nr) = kind.geom(elem);
            let kk = 17;
            let apanel: Vec<T> = (0..kk * mr)
                .map(|v| T::from_f64(((v * 37 + 11) % 23) as f64 / 23.0 - 0.5))
                .collect();
            let bpanel: Vec<T> = (0..kk * nr)
                .map(|v| T::from_f64(((v * 29 + 5) % 19) as f64 / 19.0 - 0.5))
                .collect();
            // A non-zero starting tile so the accumulate-in-place load path
            // is exercised too.
            let mut acc: Vec<T> = (0..mr * nr)
                .map(|v| T::from_f64((v % 7) as f64 * 0.125))
                .collect();
            let start = acc.clone();
            microkernel(kind, &apanel, &bpanel, kk, &mut acc);
            for i in 0..mr {
                for j in 0..nr {
                    let mut want = start[i * nr + j].to_f64();
                    for l in 0..kk {
                        want += apanel[l * mr + i].to_f64() * bpanel[l * nr + j].to_f64();
                    }
                    let got = acc[i * nr + j].to_f64();
                    assert!(
                        (got - want).abs() <= tol,
                        "{kind:?} ({mr}x{nr}) at ({i},{j}): {got} vs {want}"
                    );
                }
            }
        }
        for kind in KernelKind::ALL {
            if !kind.available() {
                continue;
            }
            // f64 reference is computed in f64: FMA-vs-separate rounding
            // differs by ≤ kk ulps of the running sum (|sum| < ~5 here).
            check::<f64>(kind, 1e-13);
            check::<f32>(kind, 1e-4);
        }
    }
}
