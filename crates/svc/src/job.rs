//! Job vocabulary: requests, lifecycle states, admission errors, receipts.
//!
//! A [`JobRequest`] is one line of the service's line-delimited JSON input
//! (`evogame-cli serve`); a [`Receipt`] is the JSON file the spool holds
//! as proof of completion. Both schemas are versioned by
//! [`crate::SVC_SCHEMA_VERSION`] and documented in docs/SERVICE.md.

use cluster::faults::FaultPlan;
use evo_core::fixation::FixationSpec;
use evo_core::params::Params;
use evo_core::spatial::{InitPattern, SpatialParams};
use serde::{Deserialize, Serialize};

/// Queue lane. High-priority jobs are always dispatched before normal
/// ones; within a lane, order is strict FIFO. Two lanes keep dispatch
/// order a pure function of the submission sequence — no timestamps, no
/// aging heuristics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Priority {
    /// Jumps ahead of every queued [`Priority::Normal`] job.
    High,
    /// The default lane.
    #[default]
    Normal,
}

/// Which engine executes the job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Backend {
    /// Shared-memory engine (`evo_core::Population`), generation by
    /// generation — pausable at any generation boundary.
    #[default]
    Shared,
    /// Virtual-cluster distributed engine (`cluster::dist`) with this
    /// many ranks (≥ 2). Runs to completion or degradation; supports
    /// fault injection and degraded-run retry, not mid-run pause.
    Distributed {
        /// Rank count, including the rank-0 Nature Agent.
        ranks: usize,
    },
}

/// What a spatial job runs: lattice parameters plus grid seeding
/// (docs/GRAPH.md). One spec fully determines the trajectory on either
/// backend — shared and rank-sharded runs of the same spec produce the
/// identical receipt digest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpatialJobSpec {
    /// Lattice parameters, seed and generation target included.
    pub params: SpatialParams,
    /// Initial grid seeding.
    pub init: InitPattern,
}

/// One job submission. Only `id` and `params` (or `spatial`) are
/// required; everything else defaults to the plain shared-memory run the
/// CLI's `run` subcommand would do.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobRequest {
    /// Unique job id — the spool directory name and the dedup key.
    /// Restricted to `[A-Za-z0-9._-]` so it is path-safe.
    pub id: String,
    /// Full engine parameters, seed included. Determinism of the receipt
    /// rests on these alone. Ignored (and defaulted) when `spatial` is
    /// set.
    #[serde(default)]
    pub params: Params,
    /// Run a lattice job instead of a well-mixed one. `backend` selects
    /// the engine exactly as for well-mixed jobs: [`Backend::Shared`] is
    /// the generation-loop [`evo_core::spatial::SpatialPopulation`]
    /// (pausable), [`Backend::Distributed`] the row-sharded
    /// `cluster::dist::graph` runner (retryable on degradation).
    #[serde(default)]
    pub spatial: Option<SpatialJobSpec>,
    /// Run a fixation-probability batch instead (docs/FIXATION.md):
    /// independent mutant-invasion replicates to absorption. `backend`
    /// selects the engine as for the other families: [`Backend::Shared`]
    /// runs the batch replicate by replicate (pausable at replicate
    /// boundaries), [`Backend::Distributed`] shards replicates across
    /// ranks (`cluster::dist::fixation`, retryable on degradation).
    /// Mutually exclusive with `spatial`; `params` is ignored (the spec
    /// carries its own).
    #[serde(default)]
    pub fixation: Option<FixationSpec>,
    /// Queue lane.
    #[serde(default)]
    pub priority: Priority,
    /// Executing engine.
    #[serde(default)]
    pub backend: Backend,
    /// Evaluate fitness only in pairwise-comparison generations
    /// (`FitnessPolicy::OnDemand`) instead of every generation.
    #[serde(default)]
    pub on_demand: bool,
    /// Checkpoint interval in generations. For shared jobs this is how
    /// often the job's spool checkpoint is refreshed; distributed jobs
    /// pass it through as `DistConfig::checkpoint_every`. Pause
    /// responsiveness does not depend on it (shared jobs check for pause
    /// every generation).
    #[serde(default)]
    pub checkpoint_every: Option<u64>,
    /// How many automatic re-enqueues a degraded distributed run is
    /// allowed (each under [`cluster::faults::FaultPlan::spent`]). `0`
    /// means a degraded outcome is immediately terminal
    /// ([`JobStatus::Failed`]).
    #[serde(default)]
    pub retry_budget: u32,
    /// Deterministic fault schedule, distributed backend only. A request
    /// with a non-empty plan and [`Backend::Shared`] is rejected as
    /// [`AdmitError::Invalid`].
    #[serde(default)]
    pub faults: FaultPlan,
}

impl JobRequest {
    /// A plain shared-memory request with all knobs at their defaults.
    pub fn new(id: impl Into<String>, params: Params) -> Self {
        JobRequest {
            id: id.into(),
            params,
            spatial: None,
            fixation: None,
            priority: Priority::Normal,
            backend: Backend::Shared,
            on_demand: false,
            checkpoint_every: None,
            retry_budget: 0,
            faults: FaultPlan::default(),
        }
    }

    /// A shared-memory spatial request with all other knobs defaulted.
    pub fn new_spatial(id: impl Into<String>, params: SpatialParams, init: InitPattern) -> Self {
        JobRequest {
            spatial: Some(SpatialJobSpec { params, init }),
            ..JobRequest::new(id, Params::default())
        }
    }

    /// A shared-memory fixation request with all other knobs defaulted.
    pub fn new_fixation(id: impl Into<String>, spec: FixationSpec) -> Self {
        JobRequest {
            fixation: Some(spec),
            ..JobRequest::new(id, Params::default())
        }
    }
}

/// Why a request was not queued. Serialisable so the CLI can spool the
/// rejection next to accepted jobs' statuses.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AdmitError {
    /// The bounded queue is at capacity — backpressure, resubmit later.
    /// `depth` is the configured bound that was hit.
    QueueFull {
        /// The configured queue bound.
        depth: usize,
    },
    /// A job with this id was already admitted (queued, running, or
    /// finished) — ids are unique for the server's lifetime.
    DuplicateId {
        /// The offending id.
        id: String,
    },
    /// The request failed validation before touching the queue.
    Invalid {
        /// Human-readable reason.
        reason: String,
    },
}

impl std::fmt::Display for AdmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmitError::QueueFull { depth } => {
                write!(f, "queue full (bound {depth}); resubmit later")
            }
            AdmitError::DuplicateId { id } => write!(f, "duplicate job id {id:?}"),
            AdmitError::Invalid { reason } => write!(f, "invalid request: {reason}"),
        }
    }
}

impl std::error::Error for AdmitError {}

/// Where a job is in its lifecycle. The legal transitions are:
///
/// ```text
/// Queued ──► Running ──► Completed
///   ▲           │  │
///   │ resume    │  └────► Failed           (error, or budget exhausted)
///   │           ▼
///   └──────── Paused     (operator pause, checkpoint taken)
///
/// Running ──► Queued     (degraded distributed run, retry budget left)
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JobStatus {
    /// Admitted, waiting for a worker.
    Queued,
    /// A worker is executing it.
    Running,
    /// Parked behind a checkpoint by [`crate::Server::pause`];
    /// [`crate::Server::resume`] re-enqueues it.
    Paused {
        /// Generation the checkpoint was taken at (the generation the
        /// job will resume from). `0` if the job was paused before its
        /// first generation.
        generation: u64,
    },
    /// Finished; the receipt is available.
    Completed {
        /// Hex rendering of the deterministic final-state digest (also
        /// in the receipt).
        state_digest: String,
        /// Degraded-run retries it took to get here.
        retries: u32,
    },
    /// Terminal failure: engine error, or a degraded run with no retry
    /// budget left.
    Failed {
        /// What went wrong.
        reason: String,
        /// Retries consumed before giving up.
        retries: u32,
    },
}

impl JobStatus {
    /// `true` for [`JobStatus::Completed`] and [`JobStatus::Failed`] —
    /// states a job never leaves.
    pub fn is_terminal(&self) -> bool {
        matches!(self, JobStatus::Completed { .. } | JobStatus::Failed { .. })
    }
}

/// Proof of completion: the deterministic core (`state_digest`, final
/// generation, retry count) plus the full run manifest. Spooled as
/// `<spool>/<job id>/receipt.json`.
///
/// Determinism contract: every field except `manifest` is a pure function
/// of the request. Inside `manifest`, wall-clock fields are zeroed (svc
/// never reads a clock) but counter deltas are process-global and may
/// vary with co-scheduled jobs — compare `state_digest`, not manifests,
/// when checking reproducibility (docs/SERVICE.md).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Receipt {
    /// [`crate::SVC_SCHEMA_VERSION`] at write time.
    pub schema_version: u32,
    /// The job this receipt settles.
    pub job_id: String,
    /// The run's seed (duplicated from the params for cheap indexing).
    pub seed: u64,
    /// Generations executed.
    pub generations: u64,
    /// Degraded-run retries consumed.
    pub retries: u32,
    /// Hex FNV-1a over the final `(assignments, features)` state
    /// ([`evo_core::record::state_digest`]) — the field reproducibility
    /// checks compare.
    pub state_digest: String,
    /// The run manifest (schema in docs/OBSERVABILITY.md).
    pub manifest: obs::RunManifest,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_minimal_json_defaults_every_knob() {
        let json = format!(
            "{{\"id\":\"j1\",\"params\":{}}}",
            serde_json::to_string(&Params::default()).unwrap()
        );
        let req: JobRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(req.id, "j1");
        assert_eq!(req.priority, Priority::Normal);
        assert_eq!(req.backend, Backend::Shared);
        assert!(!req.on_demand);
        assert_eq!(req.checkpoint_every, None);
        assert_eq!(req.retry_budget, 0);
        assert!(req.faults.kills.is_empty());
        assert_eq!(req, JobRequest::new("j1", Params::default()));
    }

    #[test]
    fn request_roundtrips_with_distributed_backend() {
        let mut req = JobRequest::new("dist-1", Params::default());
        req.backend = Backend::Distributed { ranks: 4 };
        req.priority = Priority::High;
        req.retry_budget = 2;
        let json = serde_json::to_string(&req).unwrap();
        let back: JobRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn status_terminality() {
        assert!(!JobStatus::Queued.is_terminal());
        assert!(!JobStatus::Running.is_terminal());
        assert!(!JobStatus::Paused { generation: 3 }.is_terminal());
        assert!(JobStatus::Completed {
            state_digest: "0".into(),
            retries: 0
        }
        .is_terminal());
        assert!(JobStatus::Failed {
            reason: "x".into(),
            retries: 1
        }
        .is_terminal());
    }

    #[test]
    fn admit_error_messages_name_the_cause() {
        assert!(AdmitError::QueueFull { depth: 8 }.to_string().contains("8"));
        assert!(AdmitError::DuplicateId { id: "a".into() }
            .to_string()
            .contains("a"));
        assert!(AdmitError::Invalid {
            reason: "bad".into()
        }
        .to_string()
        .contains("bad"));
    }
}
