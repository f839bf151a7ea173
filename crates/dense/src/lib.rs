//! Dense matrix substrate for the CA3DMM reproduction.
//!
//! This crate provides everything the distributed algorithms need from a
//! *local* linear-algebra library (the role Intel MKL plays in the paper's
//! artifact):
//!
//! * [`Mat`] — an owned, row-major dense matrix over any [`Scalar`]
//!   (`f32`/`f64`), with block read/write views;
//! * [`scalar`] — the element abstraction: [`Scalar`], the compile-time
//!   wire size [`WireElem::WIRE_BYTES`] every message payload is sized by,
//!   and [`Shape64`], the zero-sized stand-in for `f64` (0 bytes stored, 8
//!   on the wire) that compute-free simulation runs the same generic code
//!   over;
//! * [`gemm`](mod@gemm) — a packed, register-blocked local matrix
//!   multiplication `C = alpha * op(A) * op(B) + beta * C` parallelized over
//!   the persistent [`pool`] worker threads, its k-split form
//!   ([`gemm::gemm_ksplit`]: one product of operands that arrive in pieces
//!   along `k`, packed straight from the pieces), plus a naive reference
//!   kernel ([`gemm::gemm_naive`]) used to validate it;
//! * [`kernel`] — the runtime-dispatched `mr×nr` register microkernels:
//!   a portable fallback plus AVX2+FMA and AVX-512 intrinsics kernels
//!   (wider `MR` on the f32 AVX-512 path), selected once per process from
//!   the CPUID probe (pinned per thread by [`kernel::set_gemm_kernel`]);
//! * [`pack`] — operand packing into microkernel panels (where transposes
//!   and `alpha` are absorbed; panel geometry follows the dispatched
//!   kernel);
//! * [`tune`] — the one-shot runtime autotuner that derives the KC/MC/NC
//!   cache blocking from sysfs cache topology *per kernel geometry*
//!   (pinned per thread by [`tune::set_gemm_blocking`]) and probes each
//!   kernel's single-core peak for the roofline;
//! * [`pool`] — the lazy global worker pool and the kernel-thread knobs
//!   (`DENSE_GEMM_THREADS`, [`pool::set_gemm_threads`], and the per-rank cap
//!   `msgpass::World::run` applies via [`pool::set_rank_gemm_threads`]);
//! * [`prof`] — kernel-level observability: a span buffer owned by each
//!   capture plus the pool's submit→wake latency, aggregated per capture
//!   into a [`prof::KernelProfile`] with a roofline summary (records only
//!   inside a [`prof::begin_capture`] … [`prof::end_capture`] window);
//! * [`part`] — block-partition arithmetic: [`part::split_even`] (the
//!   paper's ⌈d/p⌉ / ⌊d/p⌋ partitioning), [`part::Rect`] rectangle algebra
//!   used by the redistribution subroutine;
//! * [`linalg`] — small serial kernels (Cholesky, triangular inverse)
//!   for the driver applications;
//! * [`random`] — seeded random fills so every distributed test is
//!   reproducible;
//! * [`testing`] — tolerance helpers for comparing distributed results to
//!   serial references.

pub mod gemm;
pub mod kernel;
pub mod linalg;
pub mod mat;
pub mod pack;
pub mod part;
pub mod pool;
pub mod prof;
pub mod random;
pub mod scalar;
pub mod testing;
pub mod tune;

pub use gemm::{gemm, gemm_ksplit, gemm_ksplit_new, gemm_naive, GemmOp};
pub use kernel::{gemm_kernel, set_gemm_kernel, KernelKind};
pub use mat::{add_slice, Mat};
pub use part::{split_even, Rect};
pub use pool::{gemm_threads, set_gemm_threads};
pub use prof::{KernelProfile, ProfSpan};
pub use scalar::{Scalar, Shape64, WireElem};
pub use tune::{probed_peak_gflops, probed_peak_gflops_for, set_gemm_blocking, Blocking};
