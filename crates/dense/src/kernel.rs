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
//! [`gemm_kernel`] is the *per-thread* pin from [`set_gemm_kernel`] when
//! one is set (tests and the bench's head-to-head entries compare kernels
//! without racing each other), else the widest kernel the host supports,
//! derived from [`tune::cache_info`](crate::tune::cache_info)'s SIMD
//! probe — probed once per process.
//!
//! # Epilogue
//!
//! Every kernel writes its tile of `C` itself: the accumulators start from
//! zero, and after the depth loop `beta` is applied once per element — a
//! store for `beta = 0`, one add for `beta = 1`, a separate multiply then
//! add for anything else. The GEMM hands full tiles the `C` pointer and
//! edge tiles a stack tile it then clips ([`gemm`](mod@crate::gemm)).
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

    /// Stable lowercase name — what reports and benches record.
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
/// out to the pool, exactly like [`crate::tune::set_gemm_blocking`]. Takes
/// precedence over the probed default.
///
/// # Panics
/// If the requested kernel is not [`available`](KernelKind::available) on
/// this host — a pinned-but-unrunnable kernel is a programming error, not
/// a fallback situation.
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
/// the [`set_gemm_kernel`] pin, else the probed default.
pub fn gemm_kernel() -> KernelKind {
    THREAD_KERNEL.with(|c| c.get()).unwrap_or_else(auto_kernel)
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
/// packed B panel (`kk·NR`, `l`-major) and writes the `MR×NR` tile of `C`
/// at `c` (row pitch `ldc`) directly from the accumulators:
/// `C[i][j] = beta·C[i][j] + Σ_l apanel[l*mr + i] · bpanel[l*nr + j]`.
///
/// The accumulators start from zero and the epilogue applies `beta` once:
/// a plain store for `beta = 0` (`C` is never read, so it may be
/// uninitialised), one add for `beta = 1`, and a separate multiply then
/// add — never a fused one — for any other value. A tile written straight
/// into `C` therefore has the same bits as one written into a stack tile
/// with `beta = 0` and folded into `C` by [`store_row`], and `C` is touched
/// once per element.
///
/// `kind` must be [`available`](KernelKind::available) — the selection
/// layer guarantees this — and the panels must carry `kind`'s geometry for
/// this scalar type.
///
/// # Safety
/// `c` must address an `MR×NR` tile of `kind`'s geometry with row pitch
/// `ldc ≥ NR`: valid for writes, valid and initialised for reads when
/// `beta ≠ 0`, and not accessed through any other reference meanwhile.
#[inline]
pub(crate) unsafe fn microkernel<T: Scalar>(
    kind: KernelKind,
    apanel: &[T],
    bpanel: &[T],
    kk: usize,
    beta: T,
    c: *mut T,
    ldc: usize,
) {
    let (mr, nr) = kind.geom(std::mem::size_of::<T>());
    debug_assert!(apanel.len() >= kk * mr && bpanel.len() >= kk * nr);
    debug_assert!(ldc >= nr);
    let is_f64 = TypeId::of::<T>() == TypeId::of::<f64>();
    let (ap, bp) = (apanel.as_ptr(), bpanel.as_ptr());
    // SAFETY (all arms): the caller's tile contract above; selection
    // guarantees the kernel's CPU features; `gemm_kernel_for` guarantees T
    // is exactly f64 or f32 for the intrinsics kernels, so the pointer
    // casts reinterpret same-layout data and the beta conversion is exact.
    match kind {
        KernelKind::Portable => unsafe { microkernel_portable(apanel, bpanel, beta, c, ldc) },
        #[cfg(target_arch = "x86_64")]
        KernelKind::Avx2 => unsafe {
            if is_f64 {
                mk_avx2_f64(ap.cast(), bp.cast(), kk, beta.to_f64(), c.cast(), ldc);
            } else {
                mk_avx2_f32(
                    ap.cast(),
                    bp.cast(),
                    kk,
                    beta.to_f64() as f32,
                    c.cast(),
                    ldc,
                );
            }
        },
        #[cfg(all(target_arch = "x86_64", dense_avx512))]
        KernelKind::Avx512 => unsafe {
            if is_f64 {
                mk_avx512_f64(ap.cast(), bp.cast(), kk, beta.to_f64(), c.cast(), ldc);
            } else {
                mk_avx512_f32(
                    ap.cast(),
                    bp.cast(),
                    kk,
                    beta.to_f64() as f32,
                    c.cast(),
                    ldc,
                );
            }
        },
        #[cfg(not(all(target_arch = "x86_64", dense_avx512)))]
        #[allow(unreachable_patterns)]
        _ => unreachable!("selected kernel {:?} is not compiled in", kind),
    }
}

/// [`microkernel`] into a packed `MR×NR` tile (row pitch `NR`): the
/// edge-tile path, the peak probe and the tests.
///
/// # Panics
/// If `tile` is shorter than `MR·NR`.
pub(crate) fn microkernel_tile<T: Scalar>(
    kind: KernelKind,
    apanel: &[T],
    bpanel: &[T],
    kk: usize,
    beta: T,
    tile: &mut [T],
) {
    let (mr, nr) = kind.geom(std::mem::size_of::<T>());
    assert!(
        tile.len() >= mr * nr,
        "tile holds {} < {mr}x{nr}",
        tile.len()
    );
    // SAFETY: `tile` is an exclusively borrowed, initialised MR×NR block
    // with pitch NR.
    unsafe { microkernel(kind, apanel, bpanel, kk, beta, tile.as_mut_ptr(), nr) }
}

/// Writes `beta·C + src` over the `src.len()` elements of `C` at `dst`:
/// a plain store for `beta = 0` (`C` is not read), one add for `beta = 1`,
/// a separate multiply then add otherwise — the epilogue of the portable
/// kernel and the clipped store of edge tiles.
///
/// # Safety
/// `dst` must be valid for `src.len()` writes, and for reads of
/// initialised elements when `beta ≠ 0`.
#[inline(always)]
pub(crate) unsafe fn store_row<T: Scalar>(beta: T, dst: *mut T, src: &[T]) {
    // SAFETY: every offset is below src.len(); the caller's contract.
    unsafe {
        if beta == T::ZERO {
            for (j, &s) in src.iter().enumerate() {
                dst.add(j).write(s);
            }
        } else if beta == T::ONE {
            for (j, &s) in src.iter().enumerate() {
                *dst.add(j) += s;
            }
        } else {
            for (j, &s) in src.iter().enumerate() {
                let d = dst.add(j);
                *d = beta * *d + s;
            }
        }
    }
}

/// The portable fallback: the generic register block. Separate multiply
/// and add (no contraction: Rust never fuses float ops implicitly), `l`
/// ascending, rows outer — the summation-order contract every kernel
/// honors.
///
/// # Safety
/// As [`microkernel`], for the portable `MR×NR` geometry.
unsafe fn microkernel_portable<T: Scalar>(
    apanel: &[T],
    bpanel: &[T],
    beta: T,
    c: *mut T,
    ldc: usize,
) {
    use crate::pack::{MR, NR};
    let mut acc = [[T::ZERO; NR]; MR];
    for (al, bl) in apanel.chunks_exact(MR).zip(bpanel.chunks_exact(NR)) {
        let bl: &[T; NR] = bl.try_into().expect("B panel is NR-aligned");
        for (row, &ai) in acc.iter_mut().zip(al) {
            for (c, &b) in row.iter_mut().zip(bl) {
                *c += ai * b;
            }
        }
    }
    for (i, row) in acc.iter().enumerate() {
        // SAFETY: row i of the caller's MR×NR tile.
        unsafe { store_row(beta, c.add(i * ldc), row) };
    }
}

/// The fused epilogue of an intrinsics kernel: writes the register tile
/// `$acc` (`[[vector; cols]; rows]`, `$lanes` per vector) over the `C`
/// tile at `$c` with row pitch `$ldc` — store for `beta = 0`, load + add +
/// store for `beta = 1`, load + mul + add + store otherwise.
#[cfg(target_arch = "x86_64")]
macro_rules! epilogue {
    ($acc:ident, $c:ident, $ldc:ident, $beta:ident, $lanes:literal,
     $load:ident, $store:ident, $add:ident, $mul:ident, $set1:ident) => {
        if $beta == 0.0 {
            for (i, row) in $acc.iter().enumerate() {
                for (j, r) in row.iter().enumerate() {
                    $store($c.add(i * $ldc + j * $lanes), *r);
                }
            }
        } else if $beta == 1.0 {
            for (i, row) in $acc.iter().enumerate() {
                for (j, r) in row.iter().enumerate() {
                    let p = $c.add(i * $ldc + j * $lanes);
                    $store(p, $add($load(p), *r));
                }
            }
        } else {
            let scale = $set1($beta);
            for (i, row) in $acc.iter().enumerate() {
                for (j, r) in row.iter().enumerate() {
                    let p = $c.add(i * $ldc + j * $lanes);
                    $store(p, $add($mul(scale, $load(p)), *r));
                }
            }
        }
    };
}

/// AVX2+FMA f64 kernel, 4×12 tile: a 4×3 grid of `ymm` accumulators (12)
/// plus three B loads and one A broadcast fills the 16-register `ymm` file
/// exactly.
///
/// # Safety
/// AVX2 and FMA must be available. `ap`/`bp` must hold `kk·4` / `kk·12`
/// `l`-major packed elements; `c` must address a 4×12 tile with row pitch
/// `ldc` under [`microkernel`]'s contract.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn mk_avx2_f64(
    ap: *const f64,
    bp: *const f64,
    kk: usize,
    beta: f64,
    c: *mut f64,
    ldc: usize,
) {
    use core::arch::x86_64::*;
    let mut acc = [[_mm256_setzero_pd(); 3]; 4];
    for l in 0..kk {
        let b0 = _mm256_loadu_pd(bp.add(l * 12));
        let b1 = _mm256_loadu_pd(bp.add(l * 12 + 4));
        let b2 = _mm256_loadu_pd(bp.add(l * 12 + 8));
        for (i, row) in acc.iter_mut().enumerate() {
            let a = _mm256_set1_pd(*ap.add(l * 4 + i));
            row[0] = _mm256_fmadd_pd(a, b0, row[0]);
            row[1] = _mm256_fmadd_pd(a, b1, row[1]);
            row[2] = _mm256_fmadd_pd(a, b2, row[2]);
        }
    }
    epilogue!(
        acc,
        c,
        ldc,
        beta,
        4,
        _mm256_loadu_pd,
        _mm256_storeu_pd,
        _mm256_add_pd,
        _mm256_mul_pd,
        _mm256_set1_pd
    );
}

/// AVX2+FMA f32 kernel, 6×16 tile: a 6×2 grid of `ymm` accumulators (12)
/// plus two B loads and one A broadcast — 15 of 16 `ymm` registers.
///
/// # Safety
/// As [`mk_avx2_f64`], with `kk·6` / `kk·16` panels and a 6×16 tile.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn mk_avx2_f32(
    ap: *const f32,
    bp: *const f32,
    kk: usize,
    beta: f32,
    c: *mut f32,
    ldc: usize,
) {
    use core::arch::x86_64::*;
    let mut acc = [[_mm256_setzero_ps(); 2]; 6];
    for l in 0..kk {
        let b0 = _mm256_loadu_ps(bp.add(l * 16));
        let b1 = _mm256_loadu_ps(bp.add(l * 16 + 8));
        for (i, row) in acc.iter_mut().enumerate() {
            let a = _mm256_set1_ps(*ap.add(l * 6 + i));
            row[0] = _mm256_fmadd_ps(a, b0, row[0]);
            row[1] = _mm256_fmadd_ps(a, b1, row[1]);
        }
    }
    epilogue!(
        acc,
        c,
        ldc,
        beta,
        8,
        _mm256_loadu_ps,
        _mm256_storeu_ps,
        _mm256_add_ps,
        _mm256_mul_ps,
        _mm256_set1_ps
    );
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
unsafe fn mk_avx512_f64(
    ap: *const f64,
    bp: *const f64,
    kk: usize,
    beta: f64,
    c: *mut f64,
    ldc: usize,
) {
    use core::arch::x86_64::*;
    let mut acc = [[_mm512_setzero_pd(); 2]; 8];
    for l in 0..kk {
        let b0 = _mm512_loadu_pd(bp.add(l * 16));
        let b1 = _mm512_loadu_pd(bp.add(l * 16 + 8));
        for (i, row) in acc.iter_mut().enumerate() {
            let a = _mm512_set1_pd(*ap.add(l * 8 + i));
            row[0] = _mm512_fmadd_pd(a, b0, row[0]);
            row[1] = _mm512_fmadd_pd(a, b1, row[1]);
        }
    }
    epilogue!(
        acc,
        c,
        ldc,
        beta,
        8,
        _mm512_loadu_pd,
        _mm512_storeu_pd,
        _mm512_add_pd,
        _mm512_mul_pd,
        _mm512_set1_pd
    );
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
unsafe fn mk_avx512_f32(
    ap: *const f32,
    bp: *const f32,
    kk: usize,
    beta: f32,
    c: *mut f32,
    ldc: usize,
) {
    use core::arch::x86_64::*;
    let mut acc = [[_mm512_setzero_ps(); 2]; 12];
    for l in 0..kk {
        let b0 = _mm512_loadu_ps(bp.add(l * 32));
        let b1 = _mm512_loadu_ps(bp.add(l * 32 + 16));
        for (i, row) in acc.iter_mut().enumerate() {
            let a = _mm512_set1_ps(*ap.add(l * 12 + i));
            row[0] = _mm512_fmadd_ps(a, b0, row[0]);
            row[1] = _mm512_fmadd_ps(a, b1, row[1]);
        }
    }
    epilogue!(
        acc,
        c,
        ldc,
        beta,
        16,
        _mm512_loadu_ps,
        _mm512_storeu_ps,
        _mm512_add_ps,
        _mm512_mul_ps,
        _mm512_set1_ps
    );
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
    /// reference, up to an FMA-rounding ulp bound (exact for `portable`),
    /// under each epilogue: store (`beta = 0`), add (`1`), scale (`0.7`).
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
            // A non-zero starting tile so the epilogue's load path is
            // exercised too.
            let start: Vec<T> = (0..mr * nr)
                .map(|v| T::from_f64((v % 7) as f64 * 0.125))
                .collect();
            for beta in [0.0, 1.0, 0.7] {
                let mut acc = start.clone();
                microkernel_tile(kind, &apanel, &bpanel, kk, T::from_f64(beta), &mut acc);
                for i in 0..mr {
                    for j in 0..nr {
                        let mut want = beta * start[i * nr + j].to_f64();
                        for l in 0..kk {
                            want += apanel[l * mr + i].to_f64() * bpanel[l * nr + j].to_f64();
                        }
                        let got = acc[i * nr + j].to_f64();
                        assert!(
                            (got - want).abs() <= tol,
                            "{kind:?} ({mr}x{nr}) beta {beta} at ({i},{j}): {got} vs {want}"
                        );
                    }
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
