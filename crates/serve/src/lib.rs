//! `ca3dmm-serve`: PGEMM as a service.
//!
//! A long-running daemon wrapping the CA3DMM stack: it keeps a persistent
//! [`msgpass::PersistentWorld`] (rank threads spawned once, reused across
//! requests) and a warmed kernel pool, speaks an NDJSON request protocol,
//! caches solved [`ca3dmm::Plan`]s (grid solution + redistribution
//! programs) under an LRU policy. See `DESIGN.md` §11 for the protocol and
//! scheduling.
//!
//! Module map:
//! * [`protocol`] — request parsing/validation and the error envelope;
//!   total (never panics) because it runs before anything touches a world.
//! * [`cache`] — the LRU [`cache::PlanCache`] with hit/miss/eviction
//!   counters.
//! * [`engine`] — one persistent `p`-rank world per concurrency slot;
//!   executes plans and checksums results.
//! * [`scheduler`] — the queue + dispatcher threads: one request per job,
//!   kernel-thread budgeting, drain on shutdown.
//! * [`stats`] — request counters and per-shape latency histograms for the
//!   `stats` endpoint.
//! * [`server`] — stdio/TCP/Unix transports feeding the scheduler.

pub mod cache;
pub mod engine;
pub mod protocol;
pub mod scheduler;
pub mod server;
pub mod stats;

pub use cache::{CacheStats, PlanCache};
pub use engine::{BatchOutcome, Engine, ItemResult};
pub use protocol::{Limits, MultiplyRequest, ProtoError, Request};
pub use scheduler::{channel_sink, ResponseSink, Scheduler, SchedulerConfig};
pub use server::{run, Listen, Server, ServerConfig};
pub use stats::{LatencyHist, ServerStats};
