//! CA3DMM: Communication-Avoiding 3D Matrix Multiplication.
//!
//! This crate is the paper's primary contribution (Huang & Chow, SC 2022),
//! implemented in full:
//!
//! 1. **Grid selection** (Algorithm 1 step 1) — delegated to the `gridopt`
//!    crate: minimize eq. 4 under eq. 5/7, maximizing utilization (eq. 6).
//! 2. **Process organization** (steps 2–3) — [`grid3d::Grid3d`], the
//!    `pm × pn × pk` geometry and native driver CA3DMM shares with the five
//!    baselines (the paper's unified view; the algorithm table lives
//!    there), and [`GridContext`], CA3DMM's placement on it: `pk` k-task
//!    groups, each split into `c = max(pm,pn)/min(pm,pn)` Cannon groups of
//!    `s²` contiguous ranks, `s = min(pm,pn)`; surplus ranks stay idle
//!    outside redistribution (paper Example 3).
//! 3. **Redistribution** (steps 4, 8) — via the `layout` crate: user
//!    layouts ⇄ CA3DMM-native layouts, with `op(A)`/`op(B)` transposes
//!    folded into the conversion.
//! 4. **Replication** (step 5) — [`replicate`]: when `c > 1`, each Cannon
//!    block of the replicated operand initially exists as `c` slices across
//!    the Cannon groups of a k-task group and is completed by an allgather.
//! 5. **Cannon's algorithm** (step 6) — [`cannon`]: initial skew +
//!    `s − 1` circular shifts with uneven block sizes supported.
//! 6. **Reduction** (step 7) — [`reduce`]: reduce-scatter of the `pk`
//!    partial results of each C block into row strips.
//!
//! [`exec::Ca3dmm`] orchestrates a real distributed run on the `msgpass`
//! runtime; [`model`] builds the equivalent [`netmodel::Schedule`] and the
//! eq. 11 memory estimate for paper-scale cost evaluation. The CA3DMM-S
//! ablation variant (§III-E, SUMMA inside the k-task groups) lives with
//! the other plain-grid algorithms, in `baselines::summa`.
//!
//! # Fidelity note (replication layout)
//!
//! For `c > 1` the normative text of §III-B says each process initially
//! stores a `1/c` sub-block of its (skew-free) Cannon block of the
//! replicated matrix, completed by an allgather over the `c` peer processes
//! holding the same block — which is what we implement, and which yields
//! exactly the eq. 11 memory `c·mk/P` and the eq. 10 latency `log₂(c)`.
//! The prose of Example 1 instead describes whole row-strips of `A` being
//! replicated; that variant would store `s·(c·mk/P)` per rank, conflicting
//! with eq. 11, so we follow the normative text.

pub mod cannon;
pub mod diff;
pub mod exec;
pub mod grid3d;
pub mod grid_ctx;
pub mod model;
pub mod plan;
pub mod reduce;
pub mod replicate;

pub use cannon::{cannon_multi_shift, charged_gemm};
pub use diff::{
    diff_model_vs_measured, diff_phase_rows, model_phase_label, ModelDiffReport, PhaseDiff,
};
pub use exec::{Ca3dmm, Ca3dmmOptions, RunStats};
pub use grid_ctx::{GridContext, RankCoord};
pub use model::{ca3dmm_schedule, memory_elements_per_rank, ModelConfig};
pub use msgpass::collectives::Collectives;
pub use plan::{Dtype, Plan, PlanKey};
