//! Fixation-probability workloads: resident-vs-mutant invasion batches
//! and round-robin tournaments (docs/FIXATION.md).
//!
//! The Moran-process study this family reproduces asks one question many
//! times: seed a single mutant strategy into an otherwise uniform resident
//! population, run the ordinary engine contract with mutation switched
//! off, and record whether the mutant's lineage **fixes** (takes every
//! SSet), goes **extinct**, or is **censored** by the generation cap —
//! plus the time to absorption. A [`FixationBatch`] fans `R` independent
//! replicates of one resident/mutant pair; a [`FixationTournament`]
//! expands "all memory-≤m strategies" into the full pairwise fixation
//! matrix.
//!
//! # Replicate RNG-stream contract
//!
//! Replicate `r` of a batch runs the engine under its own derived seed:
//! the first `u64` drawn from `stream(batch_seed, Domain::Fixation, r, 0)`
//! ([`replicate_seed`]). A replicate is therefore a **pure function of
//! `(spec, r)`** — independent of thread count, rank sharding, completion
//! order, or which replicates ran before it — which is what makes shared
//! and distributed batches bit-identical and resume trivially exact. This
//! module is the sole owner of [`Domain::Fixation`] (enforced by detlint's
//! rng-domain rule).
//!
//! # How a replicate steps
//!
//! A replicate runs the engine's own phases over a two-strategy
//! population: every generation is [`engine::plan`] → the replicate's
//! fitness provider → [`engine::apply`], what
//! [`crate::population::Population::step`] runs, with mutation off and
//! fitness evaluated every generation. It skips only a general
//! population's bookkeeping: no census, no record, no counter baseline.
//!
//! # Payoff-cache reuse
//!
//! Every replicate interns the resident as `StratId` 0 and the mutant as
//! id 1, so all of a batch's replicates may share one [`PayoffCache`].
//! When both strategies are pure and the game noiseless, a replicate needs
//! only the pair's four payoffs, π_rr, π_rm, π_mr and π_mm. It probes them
//! once, in its first generation: four probes, a miss played and inserted.
//! Every later generation's fitness follows from the mutant count, to the
//! bit what the deduplicating evaluator would give, and its four probes
//! count as the hits they would be. A shared cache thus spares every
//! replicate after the first its four games. Any other pair (a mixed
//! strategy, or noise) plays the paper's full schedule every generation,
//! uncached. Cost-only, as always: trajectories are bit-identical with the
//! cache shared, private, cold or warm.
//!
//! A replicate's RNG streams and cache probes are tallied on its thread and
//! reach `obs` when it ends, one write each; the totals are those of one
//! write per stream and per evaluation.
//!
//! ```
//! use evo_core::fixation::{Absorption, FixationBatch, FixationSpec};
//! use evo_core::params::{Params, UpdateRule};
//! use ipd::state::StateSpace;
//! use ipd::strategy::Strategy;
//!
//! let space = StateSpace::new(0).unwrap();
//! let mut params = Params { mem_steps: 0, num_ssets: 4, generations: 80,
//!     seed: 7, pc_rate: 1.0, mutation_rate: 0.0, rule: UpdateRule::Moran,
//!     ..Params::default() };
//! params.game.rounds = 8;
//! let spec = FixationSpec {
//!     params,
//!     resident: Strategy::Pure(ipd::classic::all_c(&space)),
//!     mutant: Strategy::Pure(ipd::classic::all_d(&space)),
//!     replicates: 4,
//! };
//! let outcome = FixationBatch::new(spec).unwrap().run();
//! assert_eq!(outcome.results.len(), 4);
//! assert!(outcome.results.iter().all(|r| r.generations <= 80));
//! let p = outcome.fixation_probability();
//! assert!((0.0..=1.0).contains(&p) || outcome.absorbed() == 0);
//! ```

use crate::engine::{self, EvalScope, FitnessProvider, FitnessView, GenPlan, Provided};
use crate::fitness::{FitnessPolicy, PairPayoff, PairTable};
use crate::nature::NatureAgent;
use crate::params::{Params, ParamsError};
use crate::paycache::PayoffCache;
use crate::pool::{StratId, StrategyPool};
use crate::record::{check_schema, state_digest, CheckpointError, GenerationRecord, RunStats};
use crate::rngstream::{stream, Domain, StreamTally};
use ipd::game::GameConfig;
use ipd::payoff::Move;
use ipd::state::StateSpace;
use ipd::strategy::{PureStrategy, Strategy};
use rand::Rng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Version of the [`FixationCheckpoint`] JSON schema. Bump on any
/// backwards-incompatible change and update docs/FIXATION.md.
pub const FIXATION_CHECKPOINT_SCHEMA_VERSION: u32 = 1;

/// The SSet index the single mutant is seeded into. Fixed (rather than
/// drawn) so a replicate's trajectory is a pure function of its derived
/// seed; under the engine's symmetric well-mixed dynamics the choice of
/// site is statistically irrelevant.
pub const MUTANT_SITE: usize = 0;

/// Largest state count [`tournament_strategies`] will expand: `4^1 = 4`
/// states, i.e. the 16 memory-≤1 pure strategies (240 ordered pairs).
/// Memory-2 would already mean 2^16 strategies and ~4·10^9 pairs.
pub const MAX_TOURNAMENT_STATES: usize = 4;

/// One resident-vs-mutant fixation experiment: the engine parameters
/// shared by every replicate plus the invading pair and the replicate
/// count.
///
/// Within `params`: `seed` is the **batch** seed (replicates derive their
/// own engine seeds from it, see the module docs), `generations` is the
/// per-replicate absorption cap, and `mutation_rate` must be `0` —
/// mutation would re-introduce lost lineages and make "absorption"
/// meaningless.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FixationSpec {
    /// Engine parameters (batch seed, absorption cap, population size,
    /// update rule, game).
    pub params: Params,
    /// The strategy every SSet starts with.
    pub resident: Strategy,
    /// The strategy seeded into [`MUTANT_SITE`].
    pub mutant: Strategy,
    /// Independent replicates to run.
    pub replicates: u32,
}

/// Why a [`FixationSpec`] is unusable.
#[derive(Debug, Clone, PartialEq)]
pub enum FixationError {
    /// The embedded engine parameters failed their own validation.
    Params(ParamsError),
    /// Resident or mutant strategy lives in a different state space than
    /// `params.mem_steps` implies.
    SpaceMismatch,
    /// Resident and mutant are the same strategy — absorption would be
    /// ill-defined (the population starts absorbed both ways).
    IdenticalPair,
    /// `replicates` was zero.
    NoReplicates,
    /// `mutation_rate` was non-zero; fixation runs must keep mutation off.
    MutationEnabled(f64),
    /// A tournament expansion was requested for a state space larger than
    /// [`MAX_TOURNAMENT_STATES`].
    TournamentTooLarge {
        /// The offending state count (`4^mem_steps`).
        states: usize,
    },
    /// A [`FixationCheckpoint`] this build cannot resume.
    Checkpoint(CheckpointError),
}

impl std::fmt::Display for FixationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FixationError::Params(e) => write!(f, "fixation params: {e}"),
            FixationError::SpaceMismatch => {
                write!(f, "resident/mutant state space does not match params.mem_steps")
            }
            FixationError::IdenticalPair => {
                write!(f, "resident and mutant must be distinct strategies")
            }
            FixationError::NoReplicates => write!(f, "replicates must be ≥ 1"),
            FixationError::MutationEnabled(mu) => {
                write!(f, "mutation_rate = {mu} must be 0 for fixation runs")
            }
            FixationError::TournamentTooLarge { states } => write!(
                f,
                "tournament expansion bounded to {MAX_TOURNAMENT_STATES} states \
                 (memory ≤ 1); got {states}"
            ),
            FixationError::Checkpoint(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for FixationError {}

impl From<ParamsError> for FixationError {
    fn from(e: ParamsError) -> Self {
        FixationError::Params(e)
    }
}

impl FixationSpec {
    /// Validate the spec and derive its state space.
    pub fn validate(&self) -> Result<StateSpace, FixationError> {
        let space = self.params.validate()?;
        if self.resident.space() != &space || self.mutant.space() != &space {
            return Err(FixationError::SpaceMismatch);
        }
        if self.resident == self.mutant {
            return Err(FixationError::IdenticalPair);
        }
        if self.replicates == 0 {
            return Err(FixationError::NoReplicates);
        }
        if self.params.mutation_rate != 0.0 {
            return Err(FixationError::MutationEnabled(self.params.mutation_rate));
        }
        Ok(space)
    }

    /// Run replicate `r` to absorption (or the cap): the pure function of
    /// `(spec, r)` both backends and the resume path execute. `cache`, when
    /// given, is the batch-shared payoff cache the pair's four payoffs are
    /// probed in (cost-only; see the module docs for why sharing across a
    /// pair's replicates is sound); `None` runs the replicate on a private
    /// cache of its own — four misses, then hits — the reference the
    /// shared one is checked and timed against.
    ///
    /// Panics if the spec is invalid — callers construct through
    /// [`FixationBatch::new`] or validate first.
    pub fn run_replicate(&self, r: u32, cache: Option<&Arc<PayoffCache>>) -> ReplicateResult {
        // The replicate's streams reach the shared counter in one write.
        let _streams = StreamTally::open();
        let seed = replicate_seed(self.params.seed, r);
        let mut nature = NatureAgent::from_params(&self.params);
        nature.seed = seed;
        let private;
        let cache = match cache {
            Some(shared) => shared.as_ref(),
            None => {
                private = PayoffCache::new(self.params.game);
                &private
            }
        };
        let mut duel = Duel::new(self, seed, cache);
        let (num_ssets, rule, cap) = (duel.assignments.len() as u32, self.params.rule, self.params.generations);
        let mut stats = RunStats::default();
        let mut generations = 0u64;
        let outcome = loop {
            if let Some(done) = commit_absorption(&duel.assignments, MUTANT, generations, cap) {
                break done;
            }
            let _span = obs::span("population.generation");
            let plan = engine::plan(&nature, num_ssets, rule, FitnessPolicy::EveryGeneration, generations);
            let provided = duel.provide(&plan);
            engine::apply(&nature, &duel.space, &plan, &provided, &mut duel.assignments, &mut duel.pool, &mut stats);
            if let FitnessView::Full(spare) = provided.view {
                duel.spare = spare;
            }
            generations += 1;
        };
        let mutants_final = duel.assignments.iter().filter(|&&id| id == MUTANT).count() as u32;
        obs::counters().add(obs::Counter::ReplicatesRun, 1);
        match outcome {
            Absorption::Fixed => obs::counters().add(obs::Counter::Fixations, 1),
            Absorption::Extinct => obs::counters().add(obs::Counter::Extinctions, 1),
            Absorption::Censored => {}
        }
        ReplicateResult {
            replicate: r,
            outcome,
            generations,
            mutants_final,
        }
    }
}

/// The pool ids of the resident and the mutant in every replicate: they
/// are interned in that order, so all of a batch's replicates name the
/// pair alike and may share one payoff cache.
const RESIDENT: StratId = 0;
const MUTANT: StratId = 1;

/// One replicate's population — two strategies over `num_ssets` SSets —
/// and the engine's phase 2 for it. Both strategies pure and the game
/// noiseless: every generation's fitness comes from the pair's four
/// payoffs ([`PairTable`]), probed once per replicate. Otherwise every
/// generation plays the paper's full schedule
/// ([`PairPayoff::evaluate_naive`]), as the deduplicating evaluator falls
/// back to for such a population.
#[derive(Debug)]
struct Duel<'c> {
    space: StateSpace,
    game: GameConfig,
    seed: u64,
    pool: StrategyPool,
    assignments: Vec<StratId>,
    cache: &'c PayoffCache,
    table: Option<PairTable>,
    /// The previous generation's fitness vector, refilled in place.
    spare: Vec<f64>,
}

impl<'c> Duel<'c> {
    /// Generation 0 of a replicate of `spec` under engine seed `seed`: every
    /// SSet the resident, [`MUTANT_SITE`] the mutant.
    fn new(spec: &FixationSpec, seed: u64, cache: &'c PayoffCache) -> Self {
        let space = spec
            .params
            .validate()
            // detlint: allow(panic-path, reason = "invariant: the documented precondition of run_replicate — every caller holds a spec that passed FixationSpec::validate (FixationBatch::new/resume, run_fixation_distributed), whose first step is this same Params::validate")
            .expect("validated fixation spec");
        let mut pool = StrategyPool::new();
        let ids = [pool.intern(spec.resident.clone()), pool.intern(spec.mutant.clone())];
        debug_assert_eq!(ids, [RESIDENT, MUTANT], "a valid spec's pair is distinct");
        let mut assignments = vec![RESIDENT; spec.params.num_ssets];
        assignments[MUTANT_SITE] = MUTANT;
        let table = PairPayoff::new(&space, &pool, &spec.params.game, Some(cache)).pair_table(ids);
        Duel {
            space,
            game: spec.params.game,
            seed,
            pool,
            assignments,
            cache,
            table,
            spare: Vec::new(),
        }
    }
}

impl FitnessProvider for Duel<'_> {
    fn provide(&mut self, plan: &GenPlan) -> Provided {
        debug_assert_eq!(plan.eval, EvalScope::Full, "replicates evaluate every generation");
        let _span = obs::span("population.fitness");
        let pairs = PairPayoff::new(&self.space, &self.pool, &self.game, Some(self.cache));
        match &mut self.table {
            Some(table) => {
                let mut fitness = std::mem::take(&mut self.spare);
                table.fitness(&pairs, &self.assignments, &mut fitness);
                Provided {
                    view: FitnessView::Full(fitness),
                    games: 4,
                }
            }
            None => {
                let s = self.assignments.len() as u64;
                Provided {
                    view: FitnessView::Full(pairs.evaluate_naive(&self.assignments, self.seed, plan.generation)),
                    games: s * s,
                }
            }
        }
    }
}

/// The engine seed replicate `r` of a batch runs under: the first `u64`
/// of `stream(batch_seed, Domain::Fixation, r, 0)`. The *only*
/// `Domain::Fixation` consumers are this function and the tournament's
/// per-pair derivation ([`FixationTournament`], generation key 1), so the
/// two uses can never collide.
pub fn replicate_seed(batch_seed: u64, replicate: u32) -> u64 {
    stream(batch_seed, Domain::Fixation, replicate as u64, 0).random::<u64>()
}

/// How a replicate ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Absorption {
    /// The mutant lineage took every SSet.
    Fixed,
    /// The mutant lineage died out; the resident holds every SSet.
    Extinct,
    /// The generation cap elapsed with both lineages still present.
    Censored,
}

/// Absorption classification for one generation boundary — the RNG-free
/// commit phase of the fixation loop (a detlint purity root): a pure
/// function of the assignment vector and the cap, never of any stream.
/// `None` means "keep stepping".
pub fn commit_absorption(
    assignments: &[StratId],
    mutant: StratId,
    generations: u64,
    cap: u64,
) -> Option<Absorption> {
    let mutants = assignments.iter().filter(|&&id| id == mutant).count();
    if mutants == assignments.len() {
        Some(Absorption::Fixed)
    } else if mutants == 0 {
        Some(Absorption::Extinct)
    } else if generations >= cap {
        Some(Absorption::Censored)
    } else {
        None
    }
}

/// What one replicate reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplicateResult {
    /// The replicate index within the batch (`0..spec.replicates`).
    pub replicate: u32,
    /// How the replicate ended.
    pub outcome: Absorption,
    /// Generations stepped before absorption (or the cap, if censored) —
    /// the time-to-absorption statistic.
    pub generations: u64,
    /// Mutant-held SSets when the replicate stopped (`num_ssets` for
    /// fixed, `0` for extinct, in between for censored).
    pub mutants_final: u32,
}

impl ReplicateResult {
    /// Stable numeric encoding of the outcome (extinct 0, fixed 1,
    /// censored 2) — used by records and the batch digest.
    pub fn outcome_code(&self) -> u32 {
        match self.outcome {
            Absorption::Extinct => 0,
            Absorption::Fixed => 1,
            Absorption::Censored => 2,
        }
    }

    /// Render as a [`GenerationRecord`] so batches stream through the
    /// same records plumbing (spool, `--records`, JSONL) as every other
    /// workload. The mapping (documented in docs/FIXATION.md):
    /// `generation` = replicate index, `mean_fitness` = generations to
    /// absorption, `max_fitness` = [`ReplicateResult::outcome_code`],
    /// `distinct_strategies` = lineages still present at stop.
    pub fn to_record(&self) -> GenerationRecord {
        GenerationRecord {
            generation: self.replicate as u64,
            events: vec![],
            mean_fitness: Some(self.generations as f64),
            max_fitness: Some(self.outcome_code() as f64),
            distinct_strategies: if self.outcome == Absorption::Censored { 2 } else { 1 },
        }
    }
}

/// A completed (or partially resumed-and-completed) batch's results, in
/// replicate order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FixationOutcome {
    /// One entry per replicate, ordered by replicate index.
    pub results: Vec<ReplicateResult>,
}

impl FixationOutcome {
    /// Replicates that fixed.
    pub fn fixed(&self) -> u32 {
        self.count(Absorption::Fixed)
    }

    /// Replicates that went extinct.
    pub fn extinct(&self) -> u32 {
        self.count(Absorption::Extinct)
    }

    /// Replicates censored by the cap.
    pub fn censored(&self) -> u32 {
        self.count(Absorption::Censored)
    }

    /// Replicates that reached absorption (fixed + extinct).
    pub fn absorbed(&self) -> u32 {
        self.fixed() + self.extinct()
    }

    fn count(&self, o: Absorption) -> u32 {
        self.results.iter().filter(|r| r.outcome == o).count() as u32
    }

    /// Empirical fixation probability: fixed over absorbed (censored
    /// replicates are excluded, the standard treatment). `0.0` when no
    /// replicate absorbed.
    pub fn fixation_probability(&self) -> f64 {
        let absorbed = self.absorbed();
        if absorbed == 0 {
            0.0
        } else {
            self.fixed() as f64 / absorbed as f64
        }
    }

    /// Mean generations to absorption over absorbed replicates (`0.0`
    /// when none absorbed).
    pub fn mean_absorption_time(&self) -> f64 {
        let absorbed: Vec<u64> = self
            .results
            .iter()
            .filter(|r| r.outcome != Absorption::Censored)
            .map(|r| r.generations)
            .collect();
        if absorbed.is_empty() {
            0.0
        } else {
            absorbed.iter().sum::<u64>() as f64 / absorbed.len() as f64
        }
    }

    /// The batch rendered as generation records
    /// ([`ReplicateResult::to_record`]).
    pub fn records(&self) -> Vec<GenerationRecord> {
        self.results.iter().map(ReplicateResult::to_record).collect()
    }

    /// Deterministic batch digest: FNV-1a over the per-replicate outcome
    /// codes (as "assignments") and `[generations, mutants_final]` pairs
    /// (as "features"), through the same [`state_digest`] every other
    /// workload uses. Bit-identical across backends, thread counts, and
    /// resume splits.
    pub fn digest(&self) -> u64 {
        let codes: Vec<u32> = self.results.iter().map(ReplicateResult::outcome_code).collect();
        let features: Vec<[f64; 2]> = self
            .results
            .iter()
            .map(|r| [r.generations as f64, r.mutants_final as f64])
            .collect();
        state_digest(&codes, &features)
    }
}

/// A restartable snapshot of a partially completed batch: the spec plus
/// every finished replicate's result. Because replicates are pure
/// functions of `(spec, index)`, resuming just runs the missing indices —
/// the stitched outcome is bit-identical to an uninterrupted run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FixationCheckpoint {
    /// [`FIXATION_CHECKPOINT_SCHEMA_VERSION`] at write time
    /// (`#[serde(default)]`: pre-versioning files read as 0).
    #[serde(default)]
    pub schema_version: u32,
    /// The batch being resumed.
    pub spec: FixationSpec,
    /// Results of the replicates finished so far (any subset, any order;
    /// normalised on resume).
    pub completed: Vec<ReplicateResult>,
}

impl FixationCheckpoint {
    /// Reject a checkpoint this build cannot resume: a future schema
    /// version or an invalid spec. (Stray `completed` entries are not an
    /// error — [`FixationBatch::resume`] normalises them.)
    pub fn validate(&self) -> Result<(), FixationError> {
        check_schema(self.schema_version, FIXATION_CHECKPOINT_SCHEMA_VERSION)
            .map_err(FixationError::Checkpoint)?;
        self.spec.validate().map(|_| ())
    }
}

/// Runs a [`FixationSpec`]'s replicates — rayon-parallel in
/// [`FixationBatch::run`], or one at a time through
/// [`FixationBatch::run_step`] for pause-at-replicate-boundary callers
/// (the svc worker loop) — sharing one payoff cache across replicates.
#[derive(Debug)]
pub struct FixationBatch {
    spec: FixationSpec,
    cache: Arc<PayoffCache>,
    completed: Vec<ReplicateResult>,
}

impl FixationBatch {
    /// Validate `spec` and set up an empty batch.
    pub fn new(spec: FixationSpec) -> Result<Self, FixationError> {
        spec.validate()?;
        let cache = Arc::new(PayoffCache::new(spec.params.game));
        Ok(FixationBatch {
            cache,
            spec,
            completed: Vec::new(),
        })
    }

    /// Rebuild a batch from a checkpoint: completed replicates are kept
    /// (normalised to index order, out-of-range and duplicate entries
    /// dropped), only the missing ones will run.
    pub fn resume(cp: FixationCheckpoint) -> Result<Self, FixationError> {
        cp.validate()?;
        let mut completed = cp.completed;
        completed.retain(|r| r.replicate < cp.spec.replicates);
        into_replicate_order(&mut completed);
        Ok(FixationBatch {
            cache: Arc::new(PayoffCache::new(cp.spec.params.game)),
            spec: cp.spec,
            completed,
        })
    }

    /// The spec this batch runs.
    pub fn spec(&self) -> &FixationSpec {
        &self.spec
    }

    /// Results finished so far, in replicate order.
    pub fn completed(&self) -> &[ReplicateResult] {
        &self.completed
    }

    /// Replicate indices still to run, ascending.
    pub fn pending(&self) -> Vec<u32> {
        let done: std::collections::BTreeSet<u32> =
            self.completed.iter().map(|r| r.replicate).collect();
        (0..self.spec.replicates).filter(|r| !done.contains(r)).collect()
    }

    /// The lowest replicate index still to run. `completed` is in
    /// replicate order without repeats, so its first `k` entries are
    /// replicates `0..k` exactly when entry `k - 1` is replicate `k - 1`:
    /// a binary search finds the first gap.
    fn next_pending(&self) -> Option<u32> {
        let (mut lo, mut hi) = (0, self.completed.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.completed[mid].replicate as usize == mid {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let next = lo as u32;
        (next < self.spec.replicates).then_some(next)
    }

    /// `true` once every replicate has a result.
    pub fn is_complete(&self) -> bool {
        self.completed.len() == self.spec.replicates as usize
    }

    /// Run one replicate through the batch-shared cache (pure; does not
    /// record the result — [`FixationBatch::run`]/[`FixationBatch::run_step`] do).
    pub fn run_replicate(&self, r: u32) -> ReplicateResult {
        self.spec.run_replicate(r, Some(&self.cache))
    }

    /// Run the lowest pending replicate and record its result; `None`
    /// when the batch is already complete. The incremental entry point
    /// for callers that must observe pause requests at replicate
    /// boundaries.
    pub fn run_step(&mut self) -> Option<ReplicateResult> {
        let next = self.next_pending()?;
        let result = self.run_replicate(next);
        self.record(result);
        Some(result)
    }

    /// Record an externally computed replicate result (the distributed
    /// runner feeds rank results back through this). A replicate already
    /// recorded keeps its first result.
    pub fn record(&mut self, result: ReplicateResult) {
        debug_assert!(result.replicate < self.spec.replicates);
        if let Err(at) = self.completed.binary_search_by_key(&result.replicate, |r| r.replicate) {
            self.completed.insert(at, result);
        }
    }

    /// Run every pending replicate (rayon-parallel; bit-identical at any
    /// worker count because each replicate is a pure function of its
    /// index) and return the full outcome.
    pub fn run(&mut self) -> FixationOutcome {
        let pending = self.pending();
        let fresh: Vec<ReplicateResult> = (0..pending.len())
            .into_par_iter()
            .map(|i| self.run_replicate(pending[i]))
            .collect();
        self.completed.extend(fresh);
        into_replicate_order(&mut self.completed);
        self.outcome()
    }

    /// The results accumulated so far as an outcome (complete only when
    /// [`FixationBatch::is_complete`]).
    pub fn outcome(&self) -> FixationOutcome {
        FixationOutcome {
            results: self.completed.clone(),
        }
    }

    /// Snapshot the batch for restart ([`FixationCheckpoint`]).
    pub fn checkpoint(&self) -> FixationCheckpoint {
        FixationCheckpoint {
            schema_version: FIXATION_CHECKPOINT_SCHEMA_VERSION,
            spec: self.spec.clone(),
            completed: self.completed.clone(),
        }
    }
}

/// Sort results into replicate order, keeping the first of any replicate
/// listed twice.
fn into_replicate_order(results: &mut Vec<ReplicateResult>) {
    results.sort_by_key(|r| r.replicate);
    results.dedup_by_key(|r| r.replicate);
}

/// Every pure strategy of `space` — for memory ≤ 1 this is exactly the
/// "all memory-≤m strategies" roster the round-robin tournaments run
/// (memory-0 strategies appear as constant memory-1 tables). Strategy `k`
/// defects in state `s` iff bit `s` of `k` is set, so the enumeration
/// order is the canonical table order and stable across runs.
pub fn tournament_strategies(space: &StateSpace) -> Result<Vec<Strategy>, FixationError> {
    let states = space.num_states();
    if states > MAX_TOURNAMENT_STATES {
        return Err(FixationError::TournamentTooLarge { states });
    }
    Ok((0..(1u32 << states))
        .map(|k| {
            Strategy::Pure(PureStrategy::from_fn(*space, |st| {
                if (k >> st) & 1 == 1 {
                    Move::Defect
                } else {
                    Move::Cooperate
                }
            }))
        })
        .collect())
}

/// Round-robin tournament generator: every ordered resident/mutant pair
/// of [`tournament_strategies`], each expanded into a [`FixationSpec`]
/// with a pair-derived batch seed, producing the pairwise fixation
/// matrix. Each pair's batch shares one payoff cache across its
/// replicates, so a pair's payoffs are computed exactly once no matter
/// how many replicates and generations re-play it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FixationTournament {
    /// Base engine parameters for every pair (`seed` = tournament seed;
    /// `generations` = per-replicate cap; `mem_steps` picks the roster).
    pub params: Params,
    /// Replicates per ordered pair.
    pub replicates: u32,
}

impl FixationTournament {
    /// The spec for ordered pair `(resident i, mutant j)` of an
    /// `n`-strategy roster. The pair's batch seed is the first `u64` of
    /// `stream(seed, Domain::Fixation, i·n + j, 1)` — generation key 1,
    /// disjoint from the replicate-seed derivation's key 0.
    pub fn pair_spec(
        &self,
        strategies: &[Strategy],
        i: usize,
        j: usize,
    ) -> FixationSpec {
        let entity = (i * strategies.len() + j) as u64;
        let mut params = self.params.clone();
        params.seed = stream(self.params.seed, Domain::Fixation, entity, 1).random::<u64>();
        FixationSpec {
            params,
            resident: strategies[i].clone(),
            mutant: strategies[j].clone(),
            replicates: self.replicates,
        }
    }

    /// Expand and run the full round-robin. Diagonal entries (self
    /// invasion) are skipped and reported as `0.0`.
    pub fn run(&self) -> Result<FixationMatrix, FixationError> {
        let space = self.params.validate()?;
        let strategies = tournament_strategies(&space)?;
        let n = strategies.len();
        let mut probabilities = vec![0.0; n * n];
        let mut mean_times = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                let spec = self.pair_spec(&strategies, i, j);
                let outcome = FixationBatch::new(spec)?.run();
                probabilities[i * n + j] = outcome.fixation_probability();
                mean_times[i * n + j] = outcome.mean_absorption_time();
            }
        }
        Ok(FixationMatrix {
            strategies,
            replicates: self.replicates,
            probabilities,
            mean_times,
        })
    }
}

/// The pairwise fixation matrix a tournament produces.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FixationMatrix {
    /// The roster, in [`tournament_strategies`] order.
    pub strategies: Vec<Strategy>,
    /// Replicates behind every entry.
    pub replicates: u32,
    /// Row-major `n × n`: `probabilities[i·n + j]` is the empirical
    /// fixation probability of mutant `j` invading resident `i` (`0.0` on
    /// the diagonal — no self-invasion).
    pub probabilities: Vec<f64>,
    /// Row-major mean absorption times, same layout.
    pub mean_times: Vec<f64>,
}

impl FixationMatrix {
    /// Roster size `n`.
    pub fn len(&self) -> usize {
        self.strategies.len()
    }

    /// `true` when the roster is empty (never, in practice).
    pub fn is_empty(&self) -> bool {
        self.strategies.is_empty()
    }

    /// Fixation probability of mutant `j` invading resident `i`.
    pub fn probability(&self, i: usize, j: usize) -> f64 {
        self.probabilities[i * self.len() + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::UpdateRule;
    use ipd::classic;

    fn spec(seed: u64, replicates: u32) -> FixationSpec {
        let space = StateSpace::new(1).unwrap();
        let mut params = Params {
            mem_steps: 1,
            num_ssets: 8,
            generations: 200,
            seed,
            pc_rate: 1.0,
            mutation_rate: 0.0,
            rule: UpdateRule::Moran,
            ..Params::default()
        };
        params.game.rounds = 10;
        FixationSpec {
            params,
            resident: Strategy::Pure(classic::all_c(&space)),
            mutant: Strategy::Pure(classic::all_d(&space)),
            replicates,
        }
    }

    #[test]
    fn validation_catches_bad_specs() {
        assert!(spec(1, 4).validate().is_ok());
        let mut s = spec(1, 0);
        assert_eq!(s.validate(), Err(FixationError::NoReplicates));
        s = spec(1, 4);
        s.params.mutation_rate = 0.05;
        assert!(matches!(s.validate(), Err(FixationError::MutationEnabled(_))));
        s = spec(1, 4);
        s.mutant = s.resident.clone();
        assert_eq!(s.validate(), Err(FixationError::IdenticalPair));
        s = spec(1, 4);
        s.params.mem_steps = 2;
        assert_eq!(s.validate(), Err(FixationError::SpaceMismatch));
        s = spec(1, 4);
        s.params.num_ssets = 1;
        assert!(matches!(s.validate(), Err(FixationError::Params(_))));
    }

    #[test]
    fn replicate_is_pure_function_of_spec_and_index() {
        let s = spec(42, 8);
        for r in [0u32, 3, 7] {
            let a = s.run_replicate(r, None);
            let b = s.run_replicate(r, None);
            assert_eq!(a, b);
            assert_eq!(a.replicate, r);
        }
        // Distinct replicates use distinct derived seeds.
        assert_ne!(replicate_seed(42, 0), replicate_seed(42, 1));
        assert_ne!(replicate_seed(42, 0), replicate_seed(43, 0));
    }

    #[test]
    fn shared_cache_is_cost_only() {
        // The batch's replicates, rayon-parallel through its shared cache,
        // against each replicate run alone with no shared cache.
        let mut batch = FixationBatch::new(spec(7, 6)).unwrap();
        let outcome = batch.run();
        for (r, result) in outcome.results.iter().enumerate() {
            assert_eq!(*result, batch.spec().run_replicate(r as u32, None), "replicate {r}");
        }
        assert!(!batch.cache.is_empty(), "replicates must warm the shared cache");
    }

    #[test]
    fn absorption_classifier_is_exhaustive() {
        assert_eq!(commit_absorption(&[1, 1, 1], 1, 5, 10), Some(Absorption::Fixed));
        assert_eq!(commit_absorption(&[0, 0, 0], 1, 5, 10), Some(Absorption::Extinct));
        assert_eq!(commit_absorption(&[0, 1, 0], 1, 10, 10), Some(Absorption::Censored));
        assert_eq!(commit_absorption(&[0, 1, 0], 1, 5, 10), None);
    }

    #[test]
    fn batch_runs_every_replicate_and_digest_is_stable() {
        let mut a = FixationBatch::new(spec(11, 10)).unwrap();
        let mut b = FixationBatch::new(spec(11, 10)).unwrap();
        let oa = a.run();
        let ob = b.run();
        assert_eq!(oa, ob);
        assert_eq!(oa.digest(), ob.digest());
        assert_eq!(oa.results.len(), 10);
        assert_eq!(oa.fixed() + oa.extinct() + oa.censored(), 10);
        for (i, r) in oa.results.iter().enumerate() {
            assert_eq!(r.replicate as usize, i, "results in replicate order");
            match r.outcome {
                Absorption::Fixed => assert_eq!(r.mutants_final, 8),
                Absorption::Extinct => assert_eq!(r.mutants_final, 0),
                Absorption::Censored => {
                    assert!(r.mutants_final > 0 && r.mutants_final < 8);
                    assert_eq!(r.generations, 200);
                }
            }
        }
        // Different batch seeds give different batches.
        let oc = FixationBatch::new(spec(12, 10)).unwrap().run();
        assert_ne!(oa.digest(), oc.digest());
    }

    #[test]
    fn stepwise_run_matches_parallel_run() {
        let mut par = FixationBatch::new(spec(13, 6)).unwrap();
        let expected = par.run();
        let mut seq = FixationBatch::new(spec(13, 6)).unwrap();
        while seq.run_step().is_some() {}
        assert!(seq.is_complete());
        assert_eq!(seq.outcome(), expected);
        // Resumed with gaps, out of order and with a repeat: the steps fill
        // the gaps lowest first.
        let scattered = [4, 1, 4].map(|r| expected.results[r]);
        let mut gappy = FixationBatch::resume(FixationCheckpoint {
            completed: scattered.to_vec(),
            ..par.checkpoint()
        })
        .unwrap();
        let stepped: Vec<u32> = std::iter::from_fn(|| gappy.run_step()).map(|r| r.replicate).collect();
        assert_eq!(stepped, [0, 2, 3, 5]);
        assert_eq!(gappy.outcome(), expected);
    }

    #[test]
    fn checkpoint_resume_is_bit_identical() {
        let mut straight = FixationBatch::new(spec(21, 8)).unwrap();
        let expected = straight.run();

        let mut first = FixationBatch::new(spec(21, 8)).unwrap();
        for _ in 0..3 {
            first.run_step();
        }
        let json = serde_json::to_string(&first.checkpoint()).unwrap();
        let cp: FixationCheckpoint = serde_json::from_str(&json).unwrap();
        assert_eq!(cp.schema_version, FIXATION_CHECKPOINT_SCHEMA_VERSION);
        assert_eq!(cp.completed.len(), 3);
        let mut future = cp.clone();
        future.schema_version += 1;
        assert!(matches!(
            FixationBatch::resume(future),
            Err(FixationError::Checkpoint(CheckpointError::FutureSchema { .. }))
        ));
        let mut resumed = FixationBatch::resume(cp).unwrap();
        assert_eq!(resumed.pending().len(), 5);
        let got = resumed.run();
        assert_eq!(got, expected);
        assert_eq!(got.digest(), expected.digest());
    }

    #[test]
    fn selection_favors_defector_invasions() {
        // The classic sanity check: under Moran dynamics a defector
        // invading cooperators (selective advantage) must fix more often
        // than a cooperator invading defectors (selective disadvantage).
        let forward = FixationBatch::new(spec(31, 16)).unwrap().run();
        assert!(forward.absorbed() > 0, "200 generations should absorb");
        let mut reversed = spec(31, 16);
        std::mem::swap(&mut reversed.resident, &mut reversed.mutant);
        let backward = FixationBatch::new(reversed).unwrap().run();
        assert!(
            forward.fixation_probability() > backward.fixation_probability(),
            "ALLD into ALLC ({}) should beat ALLC into ALLD ({})",
            forward.fixation_probability(),
            backward.fixation_probability()
        );
    }

    #[test]
    fn records_map_replicates_deterministically() {
        let outcome = FixationBatch::new(spec(41, 5)).unwrap().run();
        let records = outcome.records();
        assert_eq!(records.len(), 5);
        for (i, rec) in records.iter().enumerate() {
            assert_eq!(rec.generation, i as u64);
            assert_eq!(rec.mean_fitness, Some(outcome.results[i].generations as f64));
            assert_eq!(
                rec.max_fitness,
                Some(outcome.results[i].outcome_code() as f64)
            );
        }
    }

    #[test]
    fn tournament_expands_all_pure_strategies() {
        let space0 = StateSpace::new(0).unwrap();
        let roster0 = tournament_strategies(&space0).unwrap();
        assert_eq!(roster0.len(), 2);
        let space1 = StateSpace::new(1).unwrap();
        let roster1 = tournament_strategies(&space1).unwrap();
        assert_eq!(roster1.len(), 16);
        // ALLC is strategy 0, ALLD the all-ones index.
        assert_eq!(roster1[0], Strategy::Pure(classic::all_c(&space1)));
        assert_eq!(roster1[15], Strategy::Pure(classic::all_d(&space1)));
        // All distinct.
        let set: std::collections::BTreeSet<_> =
            roster1.iter().map(|s| format!("{s:?}")).collect();
        assert_eq!(set.len(), 16);
        let space2 = StateSpace::new(2).unwrap();
        assert!(matches!(
            tournament_strategies(&space2),
            Err(FixationError::TournamentTooLarge { states: 16 })
        ));
    }

    #[test]
    fn tournament_matrix_is_reproducible_and_directional() {
        let mut params = Params {
            mem_steps: 0,
            num_ssets: 6,
            generations: 120,
            seed: 99,
            pc_rate: 1.0,
            mutation_rate: 0.0,
            rule: UpdateRule::Moran,
            ..Params::default()
        };
        params.game.rounds = 8;
        let t = FixationTournament {
            params,
            replicates: 8,
        };
        let a = t.run().unwrap();
        let b = t.run().unwrap();
        assert_eq!(a, b, "tournament must be deterministic");
        assert_eq!(a.len(), 2);
        assert_eq!(a.probability(0, 0), 0.0, "diagonal skipped");
        // Mutant ALLD (index 1) into resident ALLC (index 0) should fix
        // more readily than the reverse invasion.
        assert!(
            a.probability(0, 1) > a.probability(1, 0),
            "defection invades cooperation more easily ({} vs {})",
            a.probability(0, 1),
            a.probability(1, 0)
        );
    }
}
