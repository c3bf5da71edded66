//! The family seam: what a front-end needs from a workload family.
//!
//! A family is one [`Family`] impl on top of its `cluster::dist` protocol:
//! [`Population`] (well-mixed), [`SpatialPopulation`] (lattice,
//! docs/GRAPH.md) and [`FixationBatch`] (fixation probability,
//! docs/FIXATION.md). Both front-ends are written once over it — the job
//! lifecycle in [`crate::server`] (step loop, distributed attempt, pause,
//! retry, receipt) and the CLI's engine subcommands (flags, checkpoint
//! files, exit codes). What stays per family is only what genuinely
//! differs: how a run is built from its spec, what one step is, which
//! checkpoint type snapshots it, and which `cluster::dist` runner shards it.

use crate::job::{JobRequest, SpatialJobSpec};
use cluster::dist::fixation::{run_fixation_distributed, FixationDistConfig, FixationDistOutcome};
use cluster::dist::graph::{run_spatial_distributed, SpatialDistConfig, SpatialOutcome};
use cluster::dist::{run_distributed, DistConfig, DistError, DistOutcome};
use cluster::faults::FaultPlan;
use evo_core::fitness::FitnessPolicy;
use evo_core::fixation::{
    FixationBatch, FixationCheckpoint, FixationSpec, FIXATION_CHECKPOINT_SCHEMA_VERSION,
};
use evo_core::params::Params;
use evo_core::population::Population;
use evo_core::record::{state_digest, Checkpoint, GenerationRecord};
use evo_core::spatial::{SpatialCheckpoint, SpatialPopulation};
use serde::{Deserialize, Serialize, Value};

/// What a completed distributed attempt hands a front-end.
#[derive(Debug)]
pub struct Distributed<F: Family> {
    /// Progress units executed in total (the receipt's `generations`).
    pub units: u64,
    /// The deterministic final-state digest.
    pub digest: u64,
    /// Records not streamed yet: rank 0's fold for lattice runs, one per
    /// replicate for fixation batches, none for well-mixed runs.
    pub records: Vec<GenerationRecord>,
    /// Rank 0's per-generation wall times (well-mixed runs with the obs
    /// timing layer on; empty otherwise).
    pub generation_ns: Vec<u64>,
    /// The checkpoint the attempt leaves behind: the runner's latest
    /// periodic snapshot — or, for a fixation batch, the finished batch
    /// itself, which is its own complete checkpoint.
    pub checkpoint: Option<F::Checkpoint>,
    /// The rest of the runner's own outcome, for front-ends that report
    /// more than the digest.
    pub outcome: F::Outcome,
}

/// One workload family, as a front-end sees it. `Self` is the live
/// shared-memory run.
pub trait Family: Sized {
    /// What defines a run.
    type Spec;
    /// The family's restartable snapshot.
    type Checkpoint: Serialize + Deserialize + std::fmt::Debug;
    /// What the family's `cluster::dist` runner returns.
    type Outcome: std::fmt::Debug;
    /// What messages call a run of this family…
    const RUN: &'static str;
    /// …its progress unit…
    const UNIT: &'static str;
    /// …and its checkpoint.
    const KIND: &'static str;

    /// Check `spec` before any engine code sees it. The reason names the
    /// part that failed, as admission reports it.
    fn validate(spec: &Self::Spec) -> Result<(), String>;
    /// The run's parameters (as a manifest embeds them) and seed.
    fn identity(spec: &Self::Spec) -> (Value, u64);
    /// Progress units the run is asked for.
    fn target(spec: &Self::Spec) -> u64;
    /// The spec that resumes `checkpoint`: the checkpoint's own parameters
    /// (they carry the seed and the target) replace `spec`'s; what a
    /// checkpoint does not hold — the fitness policy, a lattice's seeding
    /// (spent after generation 0) — is kept.
    fn resuming(spec: Self::Spec, checkpoint: &Self::Checkpoint) -> Self::Spec;
    /// Progress units `checkpoint` holds — where a resume picks up.
    fn resume_point(checkpoint: &Self::Checkpoint) -> u64;

    /// Build the shared-memory run: fresh from `spec`, or restored.
    fn start(spec: &Self::Spec, resume: Option<Self::Checkpoint>) -> Result<Self, String>;
    /// Progress units completed so far (generations; replicates).
    fn progress(&self) -> u64;
    /// Run one progress unit — the pause and checkpoint granularity — and
    /// return its record; `None` once the run has reached its target.
    fn step(&mut self) -> Option<GenerationRecord>;
    /// Run every remaining unit at once, for a front-end that observes
    /// nothing in between, and return the run's records. The default steps;
    /// a family overrides it where finishing at once is faster than unit by
    /// unit.
    fn run_to_end(&mut self) -> Vec<GenerationRecord> {
        std::iter::from_fn(|| self.step()).collect()
    }
    /// Snapshot the run at the current unit boundary.
    fn checkpoint(&self) -> Self::Checkpoint;
    /// The deterministic final-state digest.
    fn digest(&self) -> u64;
    /// The manifest of a finished shared-memory run, counters as deltas
    /// against `baseline`.
    fn manifest(
        &self,
        spec: &Self::Spec,
        baseline: &obs::CounterSnapshot,
        elapsed_seconds: f64,
    ) -> obs::RunManifest {
        let (params, seed) = Self::identity(spec);
        obs::RunManifest::capture(params, seed, 1, self.progress(), elapsed_seconds, baseline, &[])
    }

    /// Run the job on the family's `cluster::dist` runner, to completion
    /// or typed degradation.
    fn distribute(
        spec: &Self::Spec,
        ranks: usize,
        faults: FaultPlan,
        checkpoint_every: Option<u64>,
        resume: Option<Self::Checkpoint>,
    ) -> Result<Distributed<Self>, DistError<Self::Checkpoint>>;
}

/// The family a [`JobRequest`] runs, with its spec — the one place a
/// request is mapped to its [`Family`] (admission and the worker loop both
/// go through it).
pub(crate) enum Selected<'a> {
    /// `params` + `on_demand`: a [`Population`] job.
    WellMixed((Params, FitnessPolicy)),
    /// `spatial`: a [`SpatialPopulation`] job.
    Lattice(&'a SpatialJobSpec),
    /// `fixation`: a [`FixationBatch`] job.
    Fixation(&'a FixationSpec),
}

impl<'a> Selected<'a> {
    pub(crate) fn of(request: &'a JobRequest) -> Result<Self, String> {
        match (&request.fixation, &request.spatial) {
            (Some(_), Some(_)) => {
                Err("a job runs one family: spatial or fixation, not both".into())
            }
            (Some(spec), None) => Ok(Selected::Fixation(spec)),
            (None, Some(spec)) => Ok(Selected::Lattice(spec)),
            (None, None) => {
                let policy = if request.on_demand {
                    FitnessPolicy::OnDemand
                } else {
                    FitnessPolicy::EveryGeneration
                };
                Ok(Selected::WellMixed((request.params.clone(), policy)))
            }
        }
    }

    pub(crate) fn validate(&self) -> Result<(), String> {
        match self {
            Selected::WellMixed(spec) => Population::validate(spec),
            Selected::Lattice(spec) => SpatialPopulation::validate(spec),
            Selected::Fixation(spec) => FixationBatch::validate(spec),
        }
    }
}

/// Well-mixed runs: the spec is the engine parameters plus when fitness is
/// evaluated; one step is one generation.
impl Family for Population {
    type Spec = (Params, FitnessPolicy);
    type Checkpoint = Checkpoint;
    type Outcome = DistOutcome;
    const RUN: &'static str = "run";
    const UNIT: &'static str = "generation";
    const KIND: &'static str = "checkpoint";

    fn validate((params, _): &Self::Spec) -> Result<(), String> {
        params.validate().map(|_| ()).map_err(|e| format!("params: {e}"))
    }

    fn identity((params, _): &Self::Spec) -> (Value, u64) {
        (params.to_value(), params.seed)
    }

    fn target((params, _): &Self::Spec) -> u64 {
        params.generations
    }

    fn resuming((_, policy): Self::Spec, checkpoint: &Checkpoint) -> Self::Spec {
        (checkpoint.params.clone(), policy)
    }

    fn resume_point(checkpoint: &Checkpoint) -> u64 {
        checkpoint.generation
    }

    fn start((params, policy): &Self::Spec, resume: Option<Checkpoint>) -> Result<Self, String> {
        let mut pop = match resume {
            Some(cp) => Population::restore(cp).map_err(|e| e.to_string()),
            None => Population::new(params.clone()).map_err(|e| e.to_string()),
        }?;
        pop.fitness_policy = *policy;
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
    fn manifest(&self, _: &Self::Spec, _: &obs::CounterSnapshot, elapsed_seconds: f64) -> obs::RunManifest {
        Population::manifest(self, elapsed_seconds)
    }

    fn distribute(
        (params, policy): &Self::Spec,
        ranks: usize,
        faults: FaultPlan,
        checkpoint_every: Option<u64>,
        resume: Option<Checkpoint>,
    ) -> Result<Distributed<Self>, DistError<Checkpoint>> {
        let mut cfg = DistConfig::new(params.clone(), ranks, *policy);
        cfg.checkpoint_every = checkpoint_every;
        cfg.resume = resume;
        cfg.faults = faults;
        let mut out = run_distributed(&cfg)?;
        Ok(Distributed {
            units: out.stats.generations,
            digest: state_digest(&out.assignments, &out.features),
            records: Vec::new(),
            generation_ns: std::mem::take(&mut out.generation_ns),
            checkpoint: out.checkpoint.take(),
            outcome: out,
        })
    }
}

/// Lattice runs: one step is one generation; the distributed runner
/// delivers rank 0's record fold.
impl Family for SpatialPopulation {
    type Spec = SpatialJobSpec;
    type Checkpoint = SpatialCheckpoint;
    type Outcome = SpatialOutcome;
    const RUN: &'static str = "spatial run";
    const UNIT: &'static str = "generation";
    const KIND: &'static str = "spatial checkpoint";

    fn validate(spec: &SpatialJobSpec) -> Result<(), String> {
        spec.params.validate().map_err(|e| format!("spatial params: {e}"))?;
        spec.init.validate(&spec.params).map_err(|e| format!("spatial init: {e}"))
    }

    fn identity(spec: &SpatialJobSpec) -> (Value, u64) {
        (spec.params.to_value(), spec.params.seed)
    }

    fn target(spec: &SpatialJobSpec) -> u64 {
        spec.params.generations
    }

    fn resuming(spec: SpatialJobSpec, checkpoint: &SpatialCheckpoint) -> SpatialJobSpec {
        SpatialJobSpec {
            params: checkpoint.params.clone(),
            ..spec
        }
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
    ) -> Result<Distributed<Self>, DistError<SpatialCheckpoint>> {
        let mut cfg = SpatialDistConfig::new(spec.params.clone(), spec.init.clone(), ranks);
        cfg.checkpoint_every = checkpoint_every;
        cfg.resume = resume;
        cfg.faults = faults;
        let mut out = run_spatial_distributed(&cfg)?;
        Ok(Distributed {
            units: out.stats.generations,
            digest: state_digest(&out.grid, &out.features),
            records: std::mem::take(&mut out.records),
            generation_ns: Vec::new(),
            checkpoint: out.checkpoint.take(),
            outcome: out,
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
    type Outcome = FixationDistOutcome;
    const RUN: &'static str = "fixation batch";
    const UNIT: &'static str = "replicate";
    const KIND: &'static str = "fixation checkpoint";

    fn validate(spec: &FixationSpec) -> Result<(), String> {
        spec.validate().map(|_| ()).map_err(|e| format!("fixation spec: {e}"))
    }

    fn identity(spec: &FixationSpec) -> (Value, u64) {
        (spec.params.to_value(), spec.params.seed)
    }

    fn target(spec: &FixationSpec) -> u64 {
        u64::from(spec.replicates)
    }

    fn resuming(_: FixationSpec, checkpoint: &FixationCheckpoint) -> FixationSpec {
        checkpoint.spec.clone()
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

    /// [`FixationBatch::run`]: the pending replicates fanned out over
    /// rayon. A batch's records are a function of its results, so the
    /// replicates a resume checkpoint already held are among them.
    fn run_to_end(&mut self) -> Vec<GenerationRecord> {
        self.run().records()
    }

    fn checkpoint(&self) -> FixationCheckpoint {
        FixationBatch::checkpoint(self)
    }

    fn digest(&self) -> u64 {
        self.outcome().digest()
    }

    /// `checkpoint_every` is not read: the finished batch is its own
    /// complete checkpoint, and a degraded one always carries every
    /// replicate it received.
    fn distribute(
        spec: &FixationSpec,
        ranks: usize,
        faults: FaultPlan,
        _checkpoint_every: Option<u64>,
        resume: Option<FixationCheckpoint>,
    ) -> Result<Distributed<Self>, DistError<FixationCheckpoint>> {
        let mut cfg = FixationDistConfig::new(spec.clone(), ranks);
        cfg.resume = resume;
        cfg.faults = faults;
        let out = run_fixation_distributed(&cfg)?;
        Ok(Distributed {
            units: out.outcome.results.len() as u64,
            digest: out.outcome.digest(),
            records: out.outcome.records(),
            generation_ns: Vec::new(),
            checkpoint: Some(FixationCheckpoint {
                schema_version: FIXATION_CHECKPOINT_SCHEMA_VERSION,
                spec: cfg.spec,
                completed: out.outcome.results.clone(),
            }),
            outcome: out,
        })
    }
}
