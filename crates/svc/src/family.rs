//! The family seam: what the job lifecycle needs from a workload family.
//!
//! [`crate::server`] writes each lifecycle step once — the shared-memory
//! step loop, the distributed attempt, pause, retry, receipt — generic
//! over [`Family`], which the three engines implement: [`Population`]
//! (well-mixed), [`SpatialPopulation`] (lattice, docs/GRAPH.md) and
//! [`FixationBatch`] (fixation probability, docs/FIXATION.md). What stays
//! per family is only what genuinely differs: how a run is built from its
//! spec, what one step is, which checkpoint type snapshots it, and which
//! `cluster::dist` runner shards it.

use crate::job::{JobRequest, SpatialJobSpec};
use cluster::dist::fixation::{run_fixation_distributed, FixationDistConfig};
use cluster::dist::graph::{run_spatial_distributed, SpatialDistConfig};
use cluster::dist::{run_distributed, DistConfig, DistError};
use cluster::faults::FaultPlan;
use evo_core::fitness::FitnessPolicy;
use evo_core::fixation::{FixationBatch, FixationCheckpoint, FixationSpec};
use evo_core::population::Population;
use evo_core::record::{state_digest, Checkpoint, GenerationRecord};
use evo_core::spatial::{SpatialCheckpoint, SpatialPopulation};
use serde::{Deserialize, Serialize, Value};

/// What a completed distributed attempt hands the lifecycle.
pub(crate) struct Distributed {
    /// Progress units executed in total (the receipt's `generations`).
    pub generations: u64,
    /// The deterministic final-state digest.
    pub digest: u64,
    /// Records not streamed yet: rank 0's fold for lattice runs, one per
    /// replicate for fixation batches, none for well-mixed runs.
    pub records: Vec<GenerationRecord>,
    /// Rank 0's per-generation wall times (well-mixed runs with the obs
    /// timing layer on; empty otherwise).
    pub generation_ns: Vec<u64>,
}

/// One workload family, as the job lifecycle sees it. `Self` is the live
/// shared-memory run.
pub(crate) trait Family: Sized {
    /// The part of a [`JobRequest`] that defines the run.
    type Spec;
    /// The family's restartable snapshot.
    type Checkpoint: Serialize + Deserialize;
    /// How a failure reason names a degraded distributed attempt.
    const DEGRADED: &'static str;

    /// The run's parameters (as the receipt manifest embeds them) and seed.
    fn identity(spec: &Self::Spec) -> (Value, u64);
    /// Progress units `checkpoint` holds — where a resume picks up.
    fn resume_point(checkpoint: &Self::Checkpoint) -> u64;

    /// Build the shared-memory run: fresh from `spec`, or restored.
    fn start(spec: &Self::Spec, resume: Option<Self::Checkpoint>) -> Result<Self, String>;
    /// Progress units completed so far (generations; replicates).
    fn progress(&self) -> u64;
    /// Run one progress unit — the pause granularity — and return its
    /// record; `None` once the run has reached its target.
    fn step(&mut self) -> Option<GenerationRecord>;
    /// Snapshot the run at the current unit boundary.
    fn checkpoint(&self) -> Self::Checkpoint;
    /// The deterministic final-state digest.
    fn digest(&self) -> u64;
    /// The receipt manifest of a finished shared-memory run. svc reads no
    /// clock (docs/STATIC_ANALYSIS.md wall-clock rule): elapsed is reported
    /// as 0; cost attribution lives in the counter deltas and span timings.
    fn manifest(&self, spec: &Self::Spec, baseline: &obs::CounterSnapshot) -> obs::RunManifest {
        let (params, seed) = Self::identity(spec);
        obs::RunManifest::capture(params, seed, 1, self.progress(), 0.0, baseline, &[])
    }

    /// Run the job on the family's `cluster::dist` runner, to completion
    /// or typed degradation.
    fn distribute(
        spec: &Self::Spec,
        ranks: usize,
        faults: FaultPlan,
        checkpoint_every: Option<u64>,
        resume: Option<Self::Checkpoint>,
    ) -> Result<Distributed, DistError<Self::Checkpoint>>;
}

/// Well-mixed jobs: the spec is the request itself (`params` plus
/// `on_demand`); one step is one generation.
impl Family for Population {
    type Spec = JobRequest;
    type Checkpoint = Checkpoint;
    const DEGRADED: &'static str = "degraded run";

    fn identity(spec: &JobRequest) -> (Value, u64) {
        (spec.params.to_value(), spec.params.seed)
    }

    fn resume_point(checkpoint: &Checkpoint) -> u64 {
        checkpoint.generation
    }

    fn start(spec: &JobRequest, resume: Option<Checkpoint>) -> Result<Self, String> {
        let mut pop = match resume {
            Some(cp) => Population::restore(cp).map_err(|e| e.to_string()),
            None => Population::new(spec.params.clone()).map_err(|e| e.to_string()),
        }?;
        if spec.on_demand {
            pop.fitness_policy = FitnessPolicy::OnDemand;
        }
        Ok(pop)
    }

    fn progress(&self) -> u64 {
        self.generation()
    }

    fn step(&mut self) -> Option<GenerationRecord> {
        (self.generation() < self.params().generations).then(|| Population::step(self))
    }

    fn checkpoint(&self) -> Checkpoint {
        Population::checkpoint(self)
    }

    fn digest(&self) -> u64 {
        state_digest(&self.assignments(), &self.snapshot().features)
    }

    /// The population's own manifest: its construction-time baseline, the
    /// rayon thread count, and its per-generation timings.
    fn manifest(&self, _: &JobRequest, _: &obs::CounterSnapshot) -> obs::RunManifest {
        Population::manifest(self, 0.0)
    }

    fn distribute(
        spec: &JobRequest,
        ranks: usize,
        faults: FaultPlan,
        checkpoint_every: Option<u64>,
        resume: Option<Checkpoint>,
    ) -> Result<Distributed, DistError<Checkpoint>> {
        let policy = if spec.on_demand {
            FitnessPolicy::OnDemand
        } else {
            FitnessPolicy::EveryGeneration
        };
        let mut cfg = DistConfig::new(spec.params.clone(), ranks, policy);
        cfg.checkpoint_every = checkpoint_every;
        cfg.resume = resume;
        cfg.faults = faults;
        let out = run_distributed(&cfg)?;
        Ok(Distributed {
            generations: out.stats.generations,
            digest: state_digest(&out.assignments, &out.features),
            records: Vec::new(),
            generation_ns: out.generation_ns,
        })
    }
}

/// Lattice jobs: one step is one generation; the distributed runner
/// delivers rank 0's record fold.
impl Family for SpatialPopulation {
    type Spec = SpatialJobSpec;
    type Checkpoint = SpatialCheckpoint;
    const DEGRADED: &'static str = "degraded spatial run";

    fn identity(spec: &SpatialJobSpec) -> (Value, u64) {
        (spec.params.to_value(), spec.params.seed)
    }

    fn resume_point(checkpoint: &SpatialCheckpoint) -> u64 {
        checkpoint.generation
    }

    fn start(spec: &SpatialJobSpec, resume: Option<SpatialCheckpoint>) -> Result<Self, String> {
        match resume {
            Some(cp) => SpatialPopulation::restore(cp).map_err(|e| e.to_string()),
            None => Ok(SpatialPopulation::new(spec.params.clone(), spec.init.clone())),
        }
    }

    fn progress(&self) -> u64 {
        self.generation()
    }

    fn step(&mut self) -> Option<GenerationRecord> {
        (self.generation() < self.params().generations).then(|| SpatialPopulation::step(self))
    }

    fn checkpoint(&self) -> SpatialCheckpoint {
        SpatialPopulation::checkpoint(self)
    }

    fn digest(&self) -> u64 {
        let snap = self.snapshot();
        state_digest(&snap.assignments, &snap.features)
    }

    fn distribute(
        spec: &SpatialJobSpec,
        ranks: usize,
        faults: FaultPlan,
        checkpoint_every: Option<u64>,
        resume: Option<SpatialCheckpoint>,
    ) -> Result<Distributed, DistError<SpatialCheckpoint>> {
        let mut cfg = SpatialDistConfig::new(spec.params.clone(), spec.init.clone(), ranks);
        cfg.checkpoint_every = checkpoint_every;
        cfg.resume = resume;
        cfg.faults = faults;
        let out = run_spatial_distributed(&cfg)?;
        Ok(Distributed {
            generations: out.stats.generations,
            digest: state_digest(&out.grid, &out.features),
            records: out.records,
            generation_ns: Vec::new(),
        })
    }
}

/// Fixation batches: one step is one replicate, so progress — pause
/// boundaries, checkpoint cadence, the receipt's `generations` — counts
/// *replicates*, and the digest is
/// [`evo_core::fixation::FixationOutcome::digest`].
impl Family for FixationBatch {
    type Spec = FixationSpec;
    type Checkpoint = FixationCheckpoint;
    const DEGRADED: &'static str = "degraded fixation batch";

    fn identity(spec: &FixationSpec) -> (Value, u64) {
        (spec.params.to_value(), spec.params.seed)
    }

    fn resume_point(checkpoint: &FixationCheckpoint) -> u64 {
        checkpoint.completed.len() as u64
    }

    fn start(spec: &FixationSpec, resume: Option<FixationCheckpoint>) -> Result<Self, String> {
        match resume {
            Some(cp) => FixationBatch::resume(cp),
            None => FixationBatch::new(spec.clone()),
        }
        .map_err(|e| e.to_string())
    }

    fn progress(&self) -> u64 {
        self.completed().len() as u64
    }

    fn step(&mut self) -> Option<GenerationRecord> {
        self.run_step().map(|result| result.to_record())
    }

    fn checkpoint(&self) -> FixationCheckpoint {
        FixationBatch::checkpoint(self)
    }

    fn digest(&self) -> u64 {
        self.outcome().digest()
    }

    fn distribute(
        spec: &FixationSpec,
        ranks: usize,
        faults: FaultPlan,
        checkpoint_every: Option<u64>,
        resume: Option<FixationCheckpoint>,
    ) -> Result<Distributed, DistError<FixationCheckpoint>> {
        let mut cfg = FixationDistConfig::new(spec.clone(), ranks);
        // The request-level interval is in u64 like the generation
        // engines'; a fixation batch never exceeds u32 replicates.
        cfg.checkpoint_every = checkpoint_every.map(|n| u32::try_from(n).unwrap_or(u32::MAX));
        cfg.resume = resume;
        cfg.faults = faults;
        let out = run_fixation_distributed(&cfg)?;
        Ok(Distributed {
            generations: out.outcome.results.len() as u64,
            digest: out.outcome.digest(),
            records: out.outcome.records(),
            generation_ns: Vec::new(),
        })
    }
}
