//! Every PGEMM algorithm of the paper's unified view (§III-A/C) except
//! CA3DMM itself: partition the `m × n × k` cuboid over a `pm × pn × pk`
//! grid, complete each position's A and B blocks, run a 2D step, and
//! reduce-scatter the `pk` partial results of each C block. That procedure
//! is written once, in the crate-private `grid3d` module (`Grid3d`: the
//! column-major geometry and the native driver); an algorithm is a grid
//! rule, an initial placement and the closure that turns its initial
//! blocks into a partial `C`:
//!
//! | algorithm | grid rule | initial A / B placement | replication | inner 2D step | reduce |
//! |---|---|---|---|---|---|
//! | [`SummaPgemm`] (SUMMA \[14\]) | `gridopt::summa_grid`: `pr × pc × 1` | one copy: column slice `j` of `A(m_i, k)`, row slice `i` of `B(k, n_j)` — the 2D block distribution | none | SUMMA panel broadcasts, stationary C | none (`pk = 1`) |
//! | [`Ca3dmmSumma`] (CA3DMM-S, §III-E) | `gridopt::cosma_grid` (no eq. 7) | the same slices inside k-task group `kt`'s k-range | none | SUMMA per k-task group | reduce-scatter over `pk` |
//! | [`CosmaLike`] (COSMA as §III-C describes its source) | `gridopt::cosma_grid` | the same slices | allgather of A along the row, of B along the column | one local GEMM | reduce-scatter over `pk` |
//! | [`Orig3d`] (original 3D \[15\]) | `gridopt::cube_grid`: `q × q × q` | `A(m_i, k_l)` on `j = l`, `B(k_l, n_j)` on `i = l` | one broadcast of A along the row, one of B along the column | one local GEMM | reduce-scatter over `q` layers |
//! | [`C25d`] (2.5D \[16\] as in CTF \[24\]) | `s × s × c`, `c ∣ s`, least eq.-4 surface | 2D blocks of the `s × s` grid on layer 0 | broadcast along the `c` layers | `s/c` Cannon steps from offset `l·s/c` | reduce-scatter over `c` layers |
//! | `ca3dmm::Ca3dmm` | `gridopt::ca3dmm_grid` (eq. 7) | `1/c` slice of the replicated operand's Cannon block | allgather over `c` Cannon groups | Cannon, `s = min(pm, pn)` | reduce-scatter over `pk` |
//!
//! All five validate against the serial reference and pin their traffic in
//! the workspace's `tests/e2e_all_algorithms.rs`. [`CosmaLike`] and
//! [`C25d`] — the two baselines of Fig. 3 — also build a
//! [`netmodel::Schedule`] for paper-scale cost evaluation (the 2.5D one
//! includes the cyclic-layout conversion CTF always performs, the paper's
//! explanation for CTF's weaker results in §IV-A).

pub mod c25d;
pub mod cosma;
mod grid3d;
pub mod orig3d;
pub mod summa;

pub use c25d::C25d;
pub use cosma::CosmaLike;
pub use orig3d::Orig3d;
pub use summa::{Ca3dmmSumma, SummaPgemm};
