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

/// Bytes per element the [`CosmaLike`] and [`C25d`] schedules price: `f64`,
/// the element type of every paper experiment.
const ELEM_BYTES: f64 = 8.0;
