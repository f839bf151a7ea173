//! Every PGEMM algorithm of the paper's unified view (§III-A/C) except
//! CA3DMM itself: [`SummaPgemm`] (SUMMA \[14\]), [`Ca3dmmSumma`] (CA3DMM-S,
//! §III-E), [`CosmaLike`] (COSMA as §III-C describes its source),
//! [`Orig3d`] (original 3D \[15\]) and [`C25d`] (2.5D \[16\] as in CTF
//! \[24\]). Each is a grid rule, an initial placement and the closure that
//! turns its initial blocks into a partial `C`, on the geometry and native
//! driver it shares with CA3DMM — `ca3dmm::grid3d`, where the table of all
//! six lives.
//!
//! All five validate against the serial reference and pin their traffic in
//! the workspace's `tests/e2e_all_algorithms.rs`. [`CosmaLike`] and
//! [`C25d`] — the two baselines of Fig. 3 — also build a
//! [`netmodel::Schedule`] for paper-scale cost evaluation (the 2.5D one
//! includes the cyclic-layout conversion CTF always performs, the paper's
//! explanation for CTF's weaker results in §IV-A).

pub mod c25d;
pub mod cosma;
pub mod orig3d;
pub mod summa;

pub use c25d::C25d;
pub use cosma::CosmaLike;
pub use orig3d::Orig3d;
pub use summa::{Ca3dmmSumma, SummaPgemm};

use dense::{gemm, GemmOp, Mat, Scalar};
use msgpass::RankCtx;

/// The single local product of the algorithms that replicate whole blocks:
/// `A(m_i, k_kt) · B(k_kt, n_j)` under phase `local_gemm`.
fn local_gemm<T: Scalar>(ctx: &RankCtx, a: &Mat<T>, b: &Mat<T>) -> Mat<T> {
    ctx.set_phase("local_gemm");
    let mut c = Mat::zeros(a.rows(), b.cols());
    let op = GemmOp::NoTrans;
    gemm(op, op, T::ONE, a, b, T::ZERO, &mut c);
    c
}
