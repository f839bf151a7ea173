//! A message-passing runtime: the MPI substitute for the CA3DMM
//! reproduction.
//!
//! The paper's artifact is an MPI program. This crate provides the subset of
//! MPI the paper's Algorithm 1 needs, implemented from scratch:
//!
//! * a rank program is an async closure. [`World::run`] runs it on each of
//!   `P` scoped threads — the moral equivalent of `mpirun -np P`;
//!   [`World::simulate`] runs it as `P` tasks on the calling thread under
//!   virtual time ([`sim`]). A rank yields only where it waits for a
//!   message;
//! * [`Comm`] is a communicator: an ordered group of world ranks with its
//!   own isolated tag space, split into sub-communicators by
//!   [`Comm::group`] (`MPI_Comm_create_group`: each member names its own
//!   group) or [`Comm::subgroup`] (every member passes the whole partition);
//! * point-to-point [`Comm::send`] / [`Comm::recv`] with `(source, tag)`
//!   matching and out-of-order buffering, plus [`Comm::sendrecv`] (the
//!   primitive behind Cannon's circular shifts) and §III-F's
//!   [`Comm::isend`] / [`Comm::irecv`] / [`RecvReq::wait`]. There is one
//!   receive path: a blocking `recv` is a posted receive completed at
//!   once, so `wait`'s loop is the only place a rank blocks;
//! * collectives built *algorithmically* on point-to-point, the way MPICH
//!   builds them (Thakur, Rabenseifner & Gropp — the paper's reference
//!   \[27\]): binomial-tree and large-message broadcast, ring allgatherv,
//!   ring reduce-scatter, Rabenseifner allreduce, sparse (neighbour)
//!   alltoallv, dissemination barrier. The two rings are each written
//!   once, over node blocks: the flat ring is the case where every rank is
//!   its own node; [`collectives::Collectives::Hier`] runs them over the
//!   nodes of a virtual-time run's placement (a wall-clock run is one node);
//! * [`traffic`]: every rank counts — in counters it owns, handed to the
//!   report when it exits — the bytes and messages it sends *and
//!   receives*, per named phase; a sender also fills its row of the
//!   rank×rank communication matrix and the log2 message-size histogram of
//!   the collective algorithm in scope, and a receiver its per-phase
//!   wait-time attribution (seconds blocked in `recv`). This is what lets the test suite assert that the *measured*
//!   communication volume of an algorithm equals the volume its analytic
//!   cost model predicts — the validation that licenses using the model at
//!   paper-scale process counts.
//! * [`report`]: one summary of a finished run. [`RunReport::summary`]
//!   aggregates it once — phase rows, totals, matrix, histograms, waits,
//!   the critical path, the sim block and the kernel profiles — into a
//!   [`RunReportDoc`], whose `to_json` is the only writer of the versioned
//!   JSON artifact and whose `parse` is the only reader; plus a text
//!   dashboard and the one report-vs-report comparison, the exact/ratio
//!   [`report::gate`] the root tests hold the committed references to.
//! * [`trace`]: structured event tracing. A traced run
//!   ([`World::run_traced`]) records a span for every phase region,
//!   point-to-point send/recv, and collective (with its algorithm name and
//!   payload size); each rank closes its spans in place, nested and in
//!   begin order, and the report moves them into a [`Timeline`]:
//!   exportable, with a profiled run's kernel spans on the same clock, as
//!   Chrome-trace JSON ([`RunReport::to_chrome_json`], view in Perfetto),
//!   and the source of a traced run's critical-path
//!   communication seconds. With tracing off ([`World::run`]) every hook is
//!   a single untaken branch.
//!
//! # Semantics
//!
//! Sends are *eager* (buffered, never block — an `isend` leaves nothing to
//! wait on), so `sendrecv` pairs and shift patterns cannot deadlock. Collectives must be invoked in the same order
//! by every member of a communicator, exactly as in MPI. A panic on any rank
//! propagates out of [`World::run`] and fails the test; a simulation also
//! fails, instead of hanging, on a deadlock or an unreceived message.
//!
//! This crate has no external dependencies (the channel underneath the
//! mailboxes is its own `chan` module); it builds offline. Every wall-clock
//! rank thread — of a run or of a [`PersistentWorld`] — gets one fixed
//! 1 MiB stack.

pub(crate) mod chan;
pub mod collectives;
pub mod comm;
pub mod metrics;
pub mod persist;
pub mod report;
pub mod sim;
pub mod trace;
pub mod traffic;
pub mod world;

pub use comm::{Comm, Payload, RecvReq, ReduceElem};
pub use dense::WireElem;
pub use metrics::{CellCounts, CommMatrix, SizeHistogram};
pub use persist::{JobPanic, PersistentWorld};
pub use report::RunReportDoc;
pub use sim::{SimInfo, SimOptions};
pub use trace::{Span, SpanKind, Timeline};
pub use traffic::{PhaseCounts, TrafficReport};
pub use world::{RankCtx, RunOptions, RunReport, World};
