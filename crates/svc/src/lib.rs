//! Simulation-as-a-service: an in-process job server over the engine
//! contract.
//!
//! The paper's production setting is a shared machine whose scheduler
//! feeds many independent runs through the same binary. This crate is
//! that operational layer for this repository: a deterministic, bounded
//! job queue ([`queue::JobQueue`]), a worker pool ([`server::Server`])
//! that drives jobs through the *same* engine entry points the CLI uses
//! (`Population::step` for shared-memory jobs, `cluster::dist` for
//! distributed jobs), per-job streaming of generation records, and a
//! final [`job::Receipt`] whose core is the run manifest plus the
//! deterministic `state_digest`.
//!
//! The contract (docs/SERVICE.md) in one paragraph:
//!
//! - **Admission is typed.** [`queue::JobQueue::admit`] either accepts a
//!   [`job::JobRequest`] or returns an [`job::AdmitError`] saying exactly
//!   why (queue full, duplicate id, invalid request). Nothing is dropped
//!   silently.
//! - **Receipts are deterministic.** A job's receipt carries the FNV-1a
//!   `state_digest` over the final `(assignments, features)` state
//!   ([`evo_core::record::state_digest`]). Same request + same seed ⇒
//!   bit-identical digest, regardless of worker count, pauses, retries,
//!   or which faults were injected and recovered from. Wall-clock fields
//!   in the embedded manifest are the only nondeterministic part and are
//!   zeroed by this crate (svc never reads a clock — see
//!   docs/STATIC_ANALYSIS.md's wall-clock rule, which this crate is
//!   subject to).
//! - **Lifecycle is checkpoint-based.** Pause parks a job behind the
//!   engine's own [`evo_core::record::Checkpoint`]; resume re-enqueues
//!   it; a distributed job that comes back
//!   [`cluster::dist::DistError::Degraded`] is automatically re-enqueued
//!   from its degraded checkpoint under the retry rule
//!   ([`cluster::faults::FaultPlan::spent`]) while its retry budget lasts.
//!
//! Observability: the server increments the process-global
//! `jobs_accepted` / `jobs_rejected` / `jobs_completed` / `jobs_retried`
//! counters (`obs`, docs/OBSERVABILITY.md).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod family;
pub mod job;
pub mod queue;
pub mod server;
pub mod spool;

pub use family::{Distributed, Family};
pub use job::{AdmitError, Backend, JobRequest, JobStatus, Priority, Receipt, SpatialJobSpec};
pub use queue::JobQueue;
pub use server::{Server, ServerConfig};
pub use spool::Spool;

/// Version of the service's JSON surfaces ([`job::JobRequest`] lines and
/// [`job::Receipt`] files). Bump on any backwards-incompatible change and
/// update docs/SERVICE.md.
pub const SVC_SCHEMA_VERSION: u32 = 1;
