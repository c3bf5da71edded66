//! Evolutionary game dynamics engine — the primary contribution of the
//! SC 2012 paper *"Massively Parallel Model of Evolutionary Game Dynamics"*.
//!
//! The model has three entities (paper §IV):
//!
//! - **Agents** play two-player Iterated Prisoner's Dilemma games (provided
//!   by the [`ipd`] crate).
//! - **Strategy Sets (SSets)** group agents that share a strategy; within a
//!   generation every SSet's strategy is evaluated against every strategy in
//!   the population, with games partitioned across the SSet's agents
//!   ([`sset`]).
//! - A **Nature Agent** drives population dynamics: pairwise-comparison
//!   learning through the Fermi rule ([`fermi`]) and random strategy
//!   mutation ([`nature`]).
//!
//! The generation transition itself lives in [`engine`] — one
//! plan/provide/apply core (docs/ENGINE_CORE.md) that every backend drives.
//! [`population::Population`] ties it to shared memory, with *game
//! dynamics* (fitness evaluation, [`fitness`]) running either sequentially
//! or data-parallel via rayon — both produce bit-identical results thanks
//! to counter-based RNG streams ([`rngstream`]).
//!
//! # Quick example
//!
//! ```
//! use evo_core::prelude::*;
//!
//! let params = Params {
//!     mem_steps: 1,
//!     num_ssets: 32,
//!     generations: 200,
//!     seed: 7,
//!     ..Params::default()
//! };
//! let mut pop = Population::new(params).unwrap();
//! let stats = pop.run_to_end();
//! assert_eq!(stats.generations, 200);
//! ```

#![forbid(unsafe_code)]

pub mod engine;
pub mod fermi;
pub mod fixation;
pub mod graph;
pub mod fitness;
pub mod nature;
pub mod params;
pub mod paycache;
pub mod pool;
pub mod population;
pub mod record;
pub mod replicator;
pub mod rngstream;
pub mod spatial;
pub mod sset;

/// Convenience re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::engine::{
        EvalScope, FitnessNeed, FitnessProvider, FitnessView, GenDecision, GenDelta, GenPlan,
        Provided, RuleDecision,
    };
    pub use crate::fermi::fermi_probability;
    pub use crate::fitness::{ExecMode, FitnessPolicy, GameKernel};
    pub use crate::fixation::{
        Absorption, FixationBatch, FixationCheckpoint, FixationError, FixationMatrix,
        FixationOutcome, FixationSpec, FixationTournament, ReplicateResult,
    };
    pub use crate::graph::{GraphScope, Lattice};
    pub use crate::nature::{Event, NatureAgent};
    pub use crate::params::{Params, ParamsError, StrategyKind, UpdateRule};
    pub use crate::paycache::{PayoffCache, PayoffKind};
    pub use crate::pool::{StratId, StrategyPool};
    pub use crate::population::Population;
    pub use crate::record::RunStats;
    pub use crate::replicator::{payoff_matrix, Replicator};
    pub use crate::record::{Checkpoint, CheckpointError, GenerationRecord, PopulationSnapshot};
    pub use crate::spatial::{
        InitPattern, LatticeProvider, Neighborhood, SpatialCheckpoint, SpatialParams,
        SpatialPopulation, SpatialUpdate,
    };
    pub use crate::sset::{agents_required, opponents_for_agent, SSetLayout};
}

pub use params::{Params, ParamsError, StrategyKind};
pub use population::Population;
pub use record::RunStats;
