//! Distributed matrix layouts and redistribution.
//!
//! The paper's Algorithm 1 begins and ends with redistribution steps
//! (steps 4 and 8): the user hands CA3DMM matrices in *their* distribution
//! (1D, 2D, block-cyclic, …), CA3DMM converts them to its native internal
//! distribution, and converts the final `C` back. §III-F: "The matrix
//! redistribution subroutine … simply packs and unpacks matrix blocks and
//! exchanges data using `MPI_Neighbor_alltoallv`." Here the exchange ships
//! shared handles on the source blocks, charged as the packed bytes, and
//! each receiver copies its elements once (see [`redist`]).
//!
//! A [`Layout`] assigns every element of a global matrix to exactly one rank
//! as a list of rectangles per rank. A [`RankRedistPlan`] is one rank's
//! program for moving data between any two layouts over the same
//! communicator — rectangle intersections computed once — and
//! [`redistribute_planned_async`] runs it as a neighbour all-to-all,
//! optionally applying a transpose on the way (this is how CA3DMM
//! "utilizes the redistribution steps of A and B for computing
//! `C = op(A) × op(B)`"). [`multiply_planned`] wraps a native-layout
//! multiply in the two redistribution steps.

pub mod dist;
pub mod redist;

pub use dist::Layout;
pub use redist::{
    multiply_planned, redistribute_planned, redistribute_planned_async, RankRedistPlan, RedistPlan,
};
