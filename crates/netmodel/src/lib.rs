//! The machine model: how paper-scale experiments are costed.
//!
//! The paper's §III-D analyses CA3DMM in the α–β (latency–bandwidth) model
//! with butterfly-collective costs (its reference \[27\]):
//!
//! ```text
//! T_allgather(n, P)      = α·log₂(P)         + β·n·(P−1)/P
//! T_broadcast(n, P)      = α·(log₂(P)+P−1)   + 2β·n·(P−1)/P
//! T_reduce_scatter(n, P) = α·(P−1)           + β·n·(P−1)/P
//! ```
//!
//! This crate makes that model executable. A distributed algorithm exposes a
//! [`Schedule`] — the ordered list of communication/computation phases one
//! (maximally loaded) rank performs — and the evaluator prices it on a
//! [`Machine`] description. The same schedule structure is executed with
//! real data by the `msgpass` runtime at small process counts, and the test
//! suite asserts that the *measured* per-rank byte volume equals the
//! schedule's predicted volume; that agreement is what licenses evaluating
//! the schedules at the paper's 192–3072-core scale.
//!
//! The machine description ([`Machine`]) captures the features the paper's
//! evaluation hinges on: node structure (intra- vs inter-node links,
//! per-node injection bandwidth shared by the ranks of a node — the pure-MPI
//! vs MPI+OpenMP effect of Fig. 4), a local-GEMM rate (MKL's role), the
//! single-rank NIC-saturation fraction, and the MVAPICH2 reduce-scatter
//! degradation threshold the paper observes in §IV-C.

pub mod eval;
pub mod machine;
pub mod schedule;

pub use eval::{CostReport, PhaseCost};
pub use machine::{Machine, Placement};
pub use schedule::{NetGroup, Phase, Schedule};
