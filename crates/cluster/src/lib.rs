//! Simulated message-passing cluster — the substrate standing in for the
//! paper's IBM Blue Gene/L & /P machines and their MPI runtime (§V).
//!
//! The paper maps the algorithm onto Blue Gene as: one node is the Nature
//! Agent; all other nodes hold agents from multiple SSets; collectives
//! (`MPI_Bcast`) carry pair selections and strategy updates, and
//! non-blocking point-to-point messages along the torus return fitnesses.
//! Rust MPI bindings being immature, this crate re-creates that execution
//! model in-process:
//!
//! - [`comm`] — virtual ranks as OS threads with typed mailboxes and
//!   ordered point-to-point channels (the MPI stand-in), including failure
//!   injection for robustness tests.
//! - [`collective`] — broadcast / reduce / gather / barrier implemented *on
//!   top of* point-to-point sends through binomial trees, so the
//!   communication pattern of §V-B is actually exercised, message by
//!   message.
//! - [`topology`] — the 3-D torus interconnect geometry: rank ↔ coordinate
//!   maps, hop counts, partition shapes, and the mapping dilation that
//!   penalises non-power-of-two partitions (§VI-D).
//! - [`dist`] — the distributed engine: rank 0 is the Nature Agent, compute
//!   ranks own blocks of SSets, and a generation proceeds exactly as in
//!   §V-A/B. Produces trajectories identical to the shared-memory
//!   [`evo_core::population::Population`].
//! - [`faults`] — deterministic fault injection: a seeded [`faults::FaultPlan`]
//!   schedules rank kills and message drop/delay/duplicate from a dedicated
//!   RNG stream, so fault schedules never perturb evolution streams
//!   (`docs/FAULT_TOLERANCE.md`).
//! - [`perf`] — an analytic LogGP-style performance model, calibrated
//!   against the paper's published runtimes and against locally measured
//!   game-kernel costs, used to regenerate the scaling tables and figures
//!   at Blue Gene scale (up to 262,144 processors).

#![forbid(unsafe_code)]

pub mod collective;
pub mod comm;
pub mod dist;
pub mod faults;
pub mod perf;
pub mod simtime;
pub mod topology;

/// Convenience re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::collective::{Collective, Messenger};
    pub use crate::comm::{ClusterError, Comm, Envelope, Rank, Tag, VirtualCluster};
    pub use crate::dist::graph::{
        run_spatial_distributed, SpatialDegradedRun, SpatialDistConfig, SpatialOutcome,
    };
    pub use crate::dist::{DegradedRun, DistConfig, DistError, DistOutcome};
    pub use crate::faults::{FaultAction, FaultPlan, MessageFault, MessageFaults, RankKill};
    pub use crate::perf::{MachineProfile, PerfModel, Workload};
    pub use crate::simtime::{run_timed, NetCosts, TimedComm};
    pub use crate::topology::{CollectiveTree, Torus3D};
}

pub use comm::{Comm, Rank, Tag, VirtualCluster};
pub use topology::Torus3D;
