//! The generation loop tying game dynamics to population dynamics
//! (paper §IV, Fig 1's Agents / SSets / Nature Agent hierarchy).

use crate::engine::{self, FitnessView, LocalProvider};
use crate::fitness::{ExecMode, FitnessPolicy, GameKernel, PairPayoff, TableMemo};
use crate::nature::NatureAgent;
use crate::params::{Params, ParamsError, StrategyKind};
use crate::paycache::{PayoffCache, PayoffKind};
use crate::pool::{census, StratId, StrategyPool};
use crate::record::{Checkpoint, CheckpointError, GenerationRecord, PopulationSnapshot, RunStats};
use crate::rngstream::{stream, Domain};
use crate::sset::SSetLayout;
use ipd::state::StateSpace;
use ipd::strategy::Strategy;
use std::sync::Arc;

/// The generation-zero strategy table of a run: SSet `i` holds an
/// independent random strategy drawn from its own `Domain::Init` stream
/// `(seed, i, 0)`, interned in SSet order. A pure function of
/// `(params, space)`, so [`Population::new`] and every rank of
/// `cluster::dist` build the identical pool ids and assignments without an
/// initialisation broadcast.
pub fn initial_tables(params: &Params, space: StateSpace) -> (StrategyPool, Vec<StratId>) {
    let mut pool = StrategyPool::new();
    let mixed = matches!(params.kind, StrategyKind::Mixed);
    let assignments = (0..params.num_ssets)
        .map(|i| {
            let mut rng = stream(params.seed, Domain::Init, i as u64, 0);
            pool.intern(Strategy::random(space, mixed, &mut rng))
        })
        .collect();
    (pool, assignments)
}

/// A population of SSets evolving under pairwise-comparison learning and
/// mutation.
///
/// Construction assigns every SSet an independent random strategy (the
/// paper's Fig 2(a): "strategies are randomly assigned to all SSets at the
/// start"). Each [`Population::step`] then runs one generation:
///
/// 1. the Nature Agent schedules this generation's events;
/// 2. game dynamics evaluate every SSet's relative fitness (skipped in
///    PC-free generations under [`FitnessPolicy::OnDemand`]);
/// 3. a scheduled pairwise comparison resolves through the Fermi rule, the
///    learner adopting the teacher's strategy on success;
/// 4. a scheduled mutation assigns a fresh random strategy to its target.
///
/// A full evaluation maps its SSets through rayon; results are
/// bit-identical at every thread count.
#[derive(Debug, Clone)]
pub struct Population {
    params: Params,
    space: StateSpace,
    layout: SSetLayout,
    pool: StrategyPool,
    assignments: Vec<StratId>,
    fitness: Vec<f64>,
    nature: NatureAgent,
    generation: u64,
    stats: RunStats,
    /// Counter state when this population was created; [`Population::manifest`]
    /// reports deltas against it so concurrent populations (or earlier runs
    /// in the same process) don't pollute each other's numbers.
    obs_baseline: obs::CounterSnapshot,
    /// Per-generation wall times (ns), recorded only while [`obs::enabled`];
    /// capped at [`obs::GENERATION_TIMING_CAP`] entries.
    gen_timings: Vec<u64>,
    /// When fitness is evaluated.
    pub fitness_policy: FitnessPolicy,
    /// Use the deduplicated evaluator whenever it is sound (pure
    /// strategies, zero noise). Off by default for paper fidelity.
    pub dedup: bool,
    /// Variance-free selection: fitness is the exact *expected* payoff
    /// (Markov forward iteration) instead of one sampled realisation.
    /// Changes the dynamics for stochastic games — an ablation of the
    /// paper's single-sample fitness, not a cost knob.
    pub expected_fitness: bool,
    /// The cross-generation payoff memo-cache ([`PayoffCache`],
    /// docs/PERFORMANCE.md §2): warm state survives between steps, and
    /// [`Population::restore`] pre-warms it. Cost-only — the naive
    /// evaluator never reads it, and every other one gives the bits it
    /// would give without it.
    payoff_cache: PayoffCache,
    /// The [`TableMemo`] of the last census evaluation of every SSet's
    /// fitness: a `dedup` or expected-fitness run answers a full evaluation
    /// of an unchanged table from it, and takes a record's distinct count
    /// from it (docs/PERFORMANCE.md §2.2). Cost-only and, like the cache,
    /// left out of checkpoints.
    memo: Option<TableMemo>,
}

impl Population {
    /// Build a population per `params`, assigning independent random
    /// strategies to all SSets.
    pub fn new(params: Params) -> Result<Self, ParamsError> {
        let space = params.validate()?;
        let (pool, assignments) = initial_tables(&params, space);
        Ok(Population::with_tables(params, space, pool, assignments))
    }

    /// A generation-0 population over the given strategy tables, every knob
    /// at its default — the one place those defaults are stated.
    fn with_tables(
        params: Params,
        space: StateSpace,
        pool: StrategyPool,
        assignments: Vec<StratId>,
    ) -> Self {
        Population {
            fitness: vec![0.0; params.num_ssets],
            nature: NatureAgent::from_params(&params),
            space,
            layout: SSetLayout {
                num_ssets: params.num_ssets,
                agents_per_sset: params.effective_agents_per_sset(),
            },
            pool,
            assignments,
            generation: 0,
            stats: RunStats::default(),
            obs_baseline: obs::counters().snapshot(),
            gen_timings: Vec::new(),
            fitness_policy: FitnessPolicy::EveryGeneration,
            dedup: false,
            expected_fitness: false,
            payoff_cache: PayoffCache::new(params.game),
            memo: None,
            params,
        }
    }

    /// Build a population with every SSet holding `strategy` — no
    /// `Domain::Init` draws at all, where [`Population::new`] followed by
    /// [`Population::seed_uniform`] would draw a random table only to
    /// overwrite it. The seeded strategy is `StratId` 0 and the next
    /// [`Population::set_strategy`] call interns id 1: one resident with
    /// one invading mutant, stepped by the general engine loop.
    pub fn new_uniform(params: Params, strategy: Strategy) -> Result<Self, ParamsError> {
        let space = params.validate()?;
        assert_eq!(
            strategy.space(),
            &space,
            "strategy space must match the population's"
        );
        let mut pool = StrategyPool::new();
        let id = pool.intern(strategy);
        let assignments = vec![id; params.num_ssets];
        Ok(Population::with_tables(params, space, pool, assignments))
    }

    /// The parameters this population was built with.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// The state space in use.
    pub fn space(&self) -> &StateSpace {
        &self.space
    }

    /// The SSet decomposition.
    pub fn layout(&self) -> &SSetLayout {
        &self.layout
    }

    /// Current generation (number of completed steps).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Per-SSet strategy ids.
    pub fn assignments(&self) -> &[StratId] {
        &self.assignments
    }

    /// The interning pool (all strategies ever present).
    pub fn pool(&self) -> &StrategyPool {
        &self.pool
    }

    /// The strategy currently held by SSet `i`.
    pub fn strategy_of(&self, i: usize) -> &Arc<Strategy> {
        self.pool.get(self.assignments[i])
    }

    /// Most recently evaluated fitness vector (meaningful only after a
    /// generation that evaluated fitness).
    pub fn fitness(&self) -> &[f64] {
        &self.fitness
    }

    /// Aggregate statistics so far.
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// Number of distinct strategies currently assigned.
    pub fn distinct_strategies(&self) -> usize {
        census(&self.assignments).len()
    }

    /// Run one generation through the engine core
    /// ([`crate::engine`], docs/ENGINE_CORE.md): plan, provide fitness
    /// locally, apply. Returns the generation's record.
    ///
    /// When the observability timing layer is on ([`obs::set_enabled`])
    /// each step also records its wall time — retrievable through
    /// [`Population::generation_timings`] and summarised into the
    /// [`Population::manifest`]. Timing reads clocks and atomics only; it
    /// never touches the RNG streams, so trajectories are identical with
    /// observability on or off.
    pub fn step(&mut self) -> GenerationRecord {
        let _span = obs::span("population.generation");
        // detlint: allow(wall-clock, reason = "obs-gated timing; measures the step, never feeds simulation state")
        let timer = obs::enabled().then(std::time::Instant::now);
        let gen = self.generation;
        let plan = engine::plan(
            &self.nature,
            self.assignments.len() as u32,
            self.params.rule,
            self.fitness_policy,
            gen,
        );
        let provider = LocalProvider {
            space: &self.space,
            assignments: &self.assignments,
            pool: &self.pool,
            game: &self.params.game,
            seed: self.params.seed,
            exec_mode: ExecMode::Rayon,
            dedup: self.dedup,
            kernel: GameKernel::Naive,
            expected_fitness: self.expected_fitness,
            cache: Some(&self.payoff_cache),
        };
        let provided = provider.evaluate(&plan, &mut self.memo);
        let delta = engine::apply(
            &self.nature,
            &self.space,
            &plan,
            &provided,
            &mut self.assignments,
            &mut self.pool,
            &mut self.stats,
        );
        self.generation += 1;
        let (mean, max) = engine::fitness_summary(&plan, &provided.view);
        if let FitnessView::Full(v) = provided.view {
            self.fitness = v;
        }
        if let Some(t0) = timer {
            let ns = t0.elapsed().as_nanos() as u64;
            if self.gen_timings.len() < obs::GENERATION_TIMING_CAP {
                self.gen_timings.push(ns);
            }
        }
        let distinct = self
            .memo
            .as_ref()
            .and_then(|kept| kept.distinct(&self.assignments))
            .unwrap_or_else(|| self.distinct_strategies());
        delta.into_record(gen, mean, max, distinct)
    }

    /// Run `generations` steps, discarding per-generation records.
    pub fn run(&mut self, generations: u64) -> RunStats {
        for _ in 0..generations {
            self.step();
        }
        self.stats
    }

    /// Run the number of generations configured in `params`.
    pub fn run_to_end(&mut self) -> RunStats {
        let remaining = self.params.generations.saturating_sub(self.generation);
        self.run(remaining)
    }

    /// Take a full snapshot of the population (the data of a Fig 2 frame).
    pub fn snapshot(&self) -> PopulationSnapshot {
        PopulationSnapshot {
            generation: self.generation,
            assignments: self.assignments.clone(),
            features: self
                .assignments
                .iter()
                .map(|&id| self.pool.get(id).feature_vector())
                .collect(),
        }
    }

    /// Replace SSet `i`'s strategy (interning it if new). For seeding
    /// experiment-specific initial populations — e.g. "all ALLC plus one
    /// ALLD" invasion studies — without touching the RNG-driven default
    /// initialisation.
    pub fn set_strategy(&mut self, sset: usize, strategy: Strategy) -> StratId {
        assert!(sset < self.assignments.len(), "SSet index out of range");
        assert_eq!(
            strategy.space(),
            &self.space,
            "strategy space must match the population's"
        );
        let id = self.pool.intern(strategy);
        self.assignments[sset] = id;
        id
    }

    /// Assign `strategy` to every SSet (a uniform population).
    pub fn seed_uniform(&mut self, strategy: Strategy) -> StratId {
        let id = self.set_strategy(0, strategy);
        self.assignments.fill(id);
        id
    }

    /// Serialise the full simulation state. Restoring with
    /// [`Population::restore`] and continuing produces the *identical*
    /// trajectory an uninterrupted run would have — checkpointing is how
    /// the paper's 10^7-generation production runs survive batch-queue
    /// limits.
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint::capture(&self.params, self.generation, &self.pool, &self.assignments, self.stats)
    }

    /// Rebuild a population from a checkpoint, rejecting one whose tables
    /// do not hold together ([`Checkpoint::tables`]). Execution knobs
    /// (`fitness_policy`, `dedup`) reset to defaults — neither affects
    /// trajectories, only cost, so the resumed run is identical to an
    /// uninterrupted one. The payoff cache (deliberately excluded from
    /// checkpoints) is pre-warmed from the checkpoint's own strategy table
    /// (docs/PERFORMANCE.md §2); pre-warming is cost-only and the
    /// trajectory stays bit-identical (tested below).
    pub fn restore(cp: Checkpoint) -> Result<Self, CheckpointError> {
        let (_, pool, assignments) = cp.tables()?;
        // Built through `new`, whose random tables are overwritten below:
        // the `Domain::Init` streams it opens are part of a resumed run's
        // `rng_streams` count, so the decoded space goes unused here and
        // the parameters are validated a second time.
        let mut pop =
            Population::new(cp.params).map_err(|e| CheckpointError::Params(e.to_string()))?;
        pop.pool = pool;
        pop.assignments = assignments;
        pop.generation = cp.generation;
        pop.stats = cp.stats;
        pop.prewarm_payoff_cache();
        Ok(pop)
    }

    /// Pre-warm the cross-generation payoff cache from the current
    /// strategy table ([`PairPayoff::prewarm`]): memoise every ordered
    /// pair of distinct assigned strategies that the evaluators would
    /// legally memoise, honouring the population's `expected_fitness`
    /// configuration. Returns the number of entries inserted.
    ///
    /// [`Population::restore`] calls this automatically; call it again
    /// after flipping `expected_fitness` on a restored population so the
    /// `Expected`-kind entries are warmed too.
    pub fn prewarm_payoff_cache(&self) -> usize {
        let kind = if self.expected_fitness {
            PayoffKind::Expected
        } else {
            PayoffKind::Sampled
        };
        PairPayoff::new(&self.space, &self.pool, &self.params.game, Some(&self.payoff_cache))
            .prewarm(&self.assignments, kind)
    }

    /// Number of distinct-pair payoffs memoised so far in the
    /// cross-generation payoff cache (0 until a cacheable evaluation has
    /// run or the cache was pre-warmed).
    pub fn payoff_cache_len(&self) -> usize {
        self.payoff_cache.len()
    }

    /// Per-generation wall times (nanoseconds) recorded so far, in
    /// generation order. Empty unless the observability timing layer was
    /// enabled while stepping; capped at [`obs::GENERATION_TIMING_CAP`].
    pub fn generation_timings(&self) -> &[u64] {
        &self.gen_timings
    }

    /// Capture the run manifest for this population: params, seed, thread
    /// count, generations executed, per-generation timings, and the
    /// counter activity since this population was constructed (a delta
    /// against the construction-time baseline, so earlier runs in the same
    /// process are excluded). `elapsed_seconds` is the caller's wall-clock
    /// measurement for the whole run.
    ///
    /// The JSON schema (`RunManifest::to_json`) is documented in
    /// `docs/OBSERVABILITY.md`.
    pub fn manifest(&self, elapsed_seconds: f64) -> obs::RunManifest {
        use serde::Serialize;
        obs::RunManifest::capture(
            self.params.to_value(),
            self.params.seed,
            rayon::current_num_threads(),
            self.generation,
            elapsed_seconds,
            &self.obs_baseline,
            &self.gen_timings,
        )
    }

    /// Population mean of per-state cooperation probability — a scalar
    /// cooperativity index in `[0, 1]`.
    pub fn mean_cooperativity(&self) -> f64 {
        let total: f64 = self
            .assignments
            .iter()
            .map(|&id| {
                let fv = self.pool.get(id).feature_vector();
                fv.iter().sum::<f64>() / fv.len() as f64
            })
            .sum();
        total / self.assignments.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EvalScope, FitnessProvider};
    use crate::nature::Event;
    use crate::params::UpdateRule;
    use ipd::classic;

    fn small_params(seed: u64) -> Params {
        Params {
            mem_steps: 1,
            num_ssets: 12,
            generations: 100,
            seed,
            game: ipd::game::GameConfig {
                rounds: 20,
                ..ipd::game::GameConfig::default()
            },
            ..Params::default()
        }
    }

    #[test]
    fn construction_assigns_random_strategies() {
        let pop = Population::new(small_params(1)).unwrap();
        assert_eq!(pop.assignments().len(), 12);
        // With 16 possible memory-one strategies and 12 draws, expect >1
        // distinct (collision of all 12 is absurdly unlikely).
        assert!(pop.distinct_strategies() > 1);
        assert_eq!(pop.generation(), 0);
    }

    #[test]
    fn population_size_is_conserved() {
        let mut pop = Population::new(small_params(2)).unwrap();
        for _ in 0..50 {
            pop.step();
            assert_eq!(pop.assignments().len(), 12, "SSet count must not change");
        }
    }

    #[test]
    fn runs_are_reproducible() {
        let mut a = Population::new(small_params(7)).unwrap();
        let mut b = Population::new(small_params(7)).unwrap();
        a.run(80);
        b.run(80);
        assert_eq!(a.assignments(), b.assignments());
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Population::new(small_params(1)).unwrap();
        let mut b = Population::new(small_params(2)).unwrap();
        a.run(50);
        b.run(50);
        assert_ne!(a.snapshot().features, b.snapshot().features);
    }

    #[test]
    fn on_demand_policy_matches_every_generation_outcomes() {
        // Strategy trajectories must be identical; only the number of
        // fitness evaluations differs.
        let mut every = Population::new(small_params(4)).unwrap();
        every.fitness_policy = FitnessPolicy::EveryGeneration;
        let mut lazy = Population::new(small_params(4)).unwrap();
        lazy.fitness_policy = FitnessPolicy::OnDemand;
        every.run(100);
        lazy.run(100);
        assert_eq!(every.assignments(), lazy.assignments());
        assert_eq!(every.stats().adoptions, lazy.stats().adoptions);
        assert!(
            lazy.stats().fitness_evaluations < every.stats().fitness_evaluations,
            "OnDemand must skip PC-free generations (lazy {} vs every {})",
            lazy.stats().fitness_evaluations,
            every.stats().fitness_evaluations
        );
        assert_eq!(every.stats().fitness_evaluations, 100);
    }

    #[test]
    fn dedup_matches_naive_trajectory() {
        let mut plain = Population::new(small_params(5)).unwrap();
        let mut fast = Population::new(small_params(5)).unwrap();
        fast.dedup = true;
        for _ in 0..100 {
            let a = plain.step();
            let b = fast.step();
            assert_eq!(a.events, b.events);
        }
        assert_eq!(plain.assignments(), fast.assignments());
        assert!(fast.stats().games_played <= plain.stats().games_played);
    }

    #[test]
    fn mutation_rate_zero_pc_zero_freezes_population() {
        let mut p = small_params(6);
        p.pc_rate = 0.0;
        p.mutation_rate = 0.0;
        let mut pop = Population::new(p).unwrap();
        let before = pop.assignments().to_vec();
        pop.run(50);
        assert_eq!(pop.assignments(), &before[..]);
        assert_eq!(pop.stats().pc_events, 0);
        assert_eq!(pop.stats().mutations, 0);
    }

    #[test]
    fn events_are_recorded_and_counted() {
        let mut p = small_params(8);
        p.pc_rate = 1.0;
        p.mutation_rate = 1.0;
        let mut pop = Population::new(p).unwrap();
        let rec = pop.step();
        assert_eq!(rec.events.len(), 2, "PC and mutation both scheduled");
        assert_eq!(pop.stats().pc_events, 1);
        assert_eq!(pop.stats().mutations, 1);
        assert!(matches!(rec.events[0], Event::PairwiseComparison { .. }));
        assert!(matches!(rec.events[1], Event::Mutation { .. }));
    }

    #[test]
    fn adoption_copies_teacher_strategy() {
        let mut p = small_params(9);
        p.pc_rate = 1.0;
        p.mutation_rate = 0.0;
        p.beta = f64::INFINITY; // deterministic imitation
        let mut pop = Population::new(p).unwrap();
        for _ in 0..30 {
            let rec = pop.step();
            if let Some(Event::PairwiseComparison {
                teacher,
                learner,
                adopted: true,
                ..
            }) = rec.events.first().cloned()
            {
                assert_eq!(
                    pop.assignments()[teacher as usize],
                    pop.assignments()[learner as usize]
                );
            }
        }
    }

    #[test]
    fn selection_without_mutation_tends_to_fixate() {
        // With PC every generation and strong selection, diversity must
        // decrease over time (never increase, since mutation is off).
        let mut p = small_params(10);
        p.pc_rate = 1.0;
        p.mutation_rate = 0.0;
        p.beta = f64::INFINITY;
        let mut pop = Population::new(p).unwrap();
        let d0 = pop.distinct_strategies();
        pop.run(400);
        let d1 = pop.distinct_strategies();
        assert!(d1 <= d0);
        assert!(d1 < d0, "400 deterministic imitations should lose diversity");
    }

    #[test]
    fn alld_invades_allc_under_selection() {
        // Seed a population of ALLC with one ALLD and let deterministic
        // imitation run with no mutation: defection must spread.
        let mut p = small_params(11);
        p.pc_rate = 1.0;
        p.mutation_rate = 0.0;
        p.beta = f64::INFINITY;
        let mut pop = Population::new(p).unwrap();
        // Overwrite the random initial population.
        let cid = pop.seed_uniform(Strategy::Pure(classic::all_c(&pop.space().clone())));
        let did = pop.set_strategy(0, Strategy::Pure(classic::all_d(&pop.space().clone())));
        assert_ne!(cid, did);
        pop.run(600);
        let defectors = pop
            .assignments()
            .iter()
            .filter(|&&id| id == did)
            .count();
        assert!(
            defectors > 6,
            "ALLD should spread through an ALLC population, got {defectors}/12"
        );
    }

    #[test]
    fn snapshot_features_match_pool() {
        let pop = Population::new(small_params(12)).unwrap();
        let snap = pop.snapshot();
        assert_eq!(snap.num_ssets(), 12);
        assert_eq!(snap.num_states(), 4);
        for (i, &id) in snap.assignments.iter().enumerate() {
            assert_eq!(snap.features[i], pop.pool().get(id).feature_vector());
        }
    }

    #[test]
    fn mean_cooperativity_bounds() {
        let mut pop = Population::new(small_params(13)).unwrap();
        for _ in 0..20 {
            pop.step();
            let c = pop.mean_cooperativity();
            assert!((0.0..=1.0).contains(&c));
        }
    }

    #[test]
    fn run_to_end_honours_generations_param() {
        let mut pop = Population::new(small_params(14)).unwrap();
        let stats = pop.run_to_end();
        assert_eq!(stats.generations, 100);
        assert_eq!(pop.generation(), 100);
        // Idempotent once finished.
        let stats2 = pop.run_to_end();
        assert_eq!(stats2.generations, 100);
    }

    #[test]
    fn moran_rule_conserves_and_reproduces() {
        let mut p = small_params(20);
        p.rule = UpdateRule::Moran;
        p.pc_rate = 1.0;
        let mut a = Population::new(p.clone()).unwrap();
        let mut b = Population::new(p).unwrap();
        for _ in 0..60 {
            let ra = a.step();
            let rb = b.step();
            assert_eq!(ra, rb);
            assert_eq!(a.assignments().len(), 12);
            assert!(matches!(ra.events.first(), Some(Event::Moran { .. })));
        }
        assert_eq!(a.assignments(), b.assignments());
    }

    #[test]
    fn moran_selection_favours_defection_on_average() {
        // Half ALLC, half ALLD: the defectors' fitness advantage biases
        // Moran reproduction toward them. Any single run can fixate either
        // way (genetic drift), so aggregate across seeds.
        let mut alld_wins = 0;
        let seeds = 6;
        for seed in 0..seeds {
            let mut p = small_params(100 + seed);
            p.rule = UpdateRule::Moran;
            p.pc_rate = 1.0;
            p.mutation_rate = 0.0;
            let mut pop = Population::new(p).unwrap();
            let space = *pop.space();
            let cid = pop.seed_uniform(Strategy::Pure(classic::all_c(&space)));
            let did = pop.pool.intern(Strategy::Pure(classic::all_d(&space)));
            for i in (1..12).step_by(2) {
                pop.set_strategy(i, Strategy::Pure(classic::all_d(&space)));
            }
            let _ = cid;
            pop.run(500);
            let defectors = pop.assignments().iter().filter(|&&id| id == did).count();
            alld_wins += (defectors > 6) as u32;
        }
        assert!(
            alld_wins >= 4,
            "ALLD should win the Moran majority in most runs ({alld_wins}/{seeds})"
        );
    }

    #[test]
    fn imitate_best_fixates_quickly_without_mutation() {
        let mut p = small_params(22);
        p.rule = UpdateRule::ImitateBest;
        p.pc_rate = 1.0;
        p.mutation_rate = 0.0;
        let mut pop = Population::new(p).unwrap();
        pop.run(300);
        assert_eq!(
            pop.distinct_strategies(),
            1,
            "best-takes-over must fixate a 12-SSet population in 300 events"
        );
    }

    #[test]
    fn update_rules_produce_different_trajectories() {
        let mut base = small_params(23);
        base.pc_rate = 1.0;
        let mut results = Vec::new();
        for rule in [
            UpdateRule::PairwiseComparison,
            UpdateRule::Moran,
            UpdateRule::ImitateBest,
        ] {
            let mut p = base.clone();
            p.rule = rule;
            let mut pop = Population::new(p).unwrap();
            pop.run(80);
            results.push(pop.assignments().to_vec());
        }
        assert_ne!(results[0], results[1]);
        assert_ne!(results[0], results[2]);
    }

    #[test]
    fn moran_under_on_demand_still_evaluates_full_vector() {
        let mut p = small_params(24);
        p.rule = UpdateRule::Moran;
        let mut lazy = Population::new(p.clone()).unwrap();
        lazy.fitness_policy = FitnessPolicy::OnDemand;
        let mut eager = Population::new(p).unwrap();
        lazy.run(100);
        eager.run(100);
        assert_eq!(lazy.assignments(), eager.assignments());
        assert!(lazy.stats().fitness_evaluations <= eager.stats().fitness_evaluations);
    }

    #[test]
    fn checkpoint_resume_is_trajectory_transparent() {
        // Run 100 generations straight through vs 40 + checkpoint/restore
        // + 60: identical final state and statistics.
        let mut straight = Population::new(small_params(30)).unwrap();
        straight.run(100);

        let mut first = Population::new(small_params(30)).unwrap();
        first.run(40);
        let cp = first.checkpoint();
        let mut resumed = Population::restore(cp).unwrap();
        assert_eq!(resumed.generation(), 40);
        resumed.run(60);

        assert_eq!(resumed.assignments(), straight.assignments());
        assert_eq!(resumed.stats(), straight.stats());
        assert_eq!(resumed.snapshot().features, straight.snapshot().features);
    }

    #[test]
    fn checkpoint_survives_json_roundtrip() {
        let mut pop = Population::new(small_params(31)).unwrap();
        pop.run(30);
        let cp = pop.checkpoint();
        let json = serde_json::to_string(&cp).unwrap();
        let back: crate::record::Checkpoint = serde_json::from_str(&json).unwrap();
        assert_eq!(cp, back);
        let mut a = Population::restore(cp).unwrap();
        let mut b = Population::restore(back).unwrap();
        a.run(30);
        b.run(30);
        assert_eq!(a.assignments(), b.assignments());
    }

    #[test]
    fn restore_preserves_pool_ids() {
        let mut pop = Population::new(small_params(32)).unwrap();
        pop.run(60); // accumulate mutations into the pool
        let cp = pop.checkpoint();
        let restored = Population::restore(cp).unwrap();
        assert_eq!(restored.pool().len(), pop.pool().len());
        for (id, strat) in pop.pool().iter() {
            assert_eq!(restored.pool().get(id), strat, "pool id {id} changed");
        }
    }

    #[test]
    fn restore_rejects_checkpoints_whose_tables_do_not_hold_together() {
        let mut pop = Population::new(small_params(33)).unwrap();
        pop.run(60);
        let good = pop.checkpoint();
        assert!(good.pool.len() > 2, "mutations grew the pool");
        let reject = |cp: Checkpoint| Population::restore(cp).expect_err("must reject");

        let mut dangling = good.clone();
        dangling.assignments[0] = 9999;
        assert_eq!(
            reject(dangling),
            CheckpointError::UnknownStrategy {
                id: 9999,
                pool: good.pool.len()
            }
        );
        let mut short = good.clone();
        short.assignments.truncate(3);
        assert_eq!(
            reject(short),
            CheckpointError::WrongLength {
                found: 3,
                expected: 12
            }
        );
        let mut twin = good.clone();
        twin.pool[1] = twin.pool[0].clone();
        assert_eq!(reject(twin), CheckpointError::DuplicatePoolEntry { index: 1 });
        let mut foreign = good.clone();
        foreign.pool[0] = Strategy::Pure(classic::all_c(&StateSpace::new(2).unwrap()));
        assert_eq!(reject(foreign), CheckpointError::SpaceMismatch { index: 0 });
        let mut future = good.clone();
        future.schema_version = crate::record::CHECKPOINT_SCHEMA_VERSION + 1;
        assert!(matches!(reject(future), CheckpointError::FutureSchema { .. }));
        let mut bad_params = good.clone();
        bad_params.params.num_ssets = 1;
        assert!(matches!(reject(bad_params), CheckpointError::Params(_)));
        // Pre-versioning files (schema 0) share the layout and still load.
        let mut legacy = good;
        legacy.schema_version = 0;
        assert!(Population::restore(legacy).is_ok());
    }

    #[test]
    fn expected_fitness_mode_runs_and_is_policy_invariant() {
        let mut p = small_params(50);
        p.kind = StrategyKind::Mixed;
        let mut every = Population::new(p.clone()).unwrap();
        every.expected_fitness = true;
        let mut lazy = Population::new(p.clone()).unwrap();
        lazy.expected_fitness = true;
        lazy.fitness_policy = FitnessPolicy::OnDemand;
        every.run(80);
        lazy.run(80);
        assert_eq!(every.assignments(), lazy.assignments());
        // And it is a genuine ablation: the expected-fitness vector differs
        // numerically from a single sampled evaluation of the same
        // stochastic population (whole trajectories may still coincide
        // when comparisons resolve the same way).
        let mut sampled = Population::new(p.clone()).unwrap();
        let mut exact = Population::new(p).unwrap();
        exact.expected_fitness = true;
        sampled.step();
        exact.step();
        assert_ne!(sampled.fitness(), exact.fitness());
    }

    #[test]
    fn expected_fitness_matches_sampled_for_pure_noiseless() {
        let p = small_params(51); // pure strategies, no noise
        let mut a = Population::new(p.clone()).unwrap();
        a.expected_fitness = true;
        let mut b = Population::new(p).unwrap();
        a.run(100);
        b.run(100);
        assert_eq!(a.assignments(), b.assignments());
    }

    #[test]
    fn point_flip_mutation_stays_near_parent() {
        use crate::params::MutationKind;
        let mut p = small_params(60);
        p.mem_steps = 3; // 64 states: fresh draws land ~32 bits away
        p.mutation_rate = 1.0;
        p.pc_rate = 0.0;
        p.mutation_kind = MutationKind::PointFlip { states: 1 };
        let mut pop = Population::new(p).unwrap();
        for _ in 0..40 {
            let before: Vec<_> = pop
                .assignments()
                .iter()
                .map(|&id| pop.pool().get(id).clone())
                .collect();
            let rec = pop.step();
            if let Some(Event::Mutation { sset, strategy }) = rec.events.first() {
                let new = pop.pool().get(*strategy);
                if let (Strategy::Pure(old), Strategy::Pure(neu)) =
                    ((*before[*sset as usize]).clone(), new.as_ref())
                {
                    assert_eq!(old.hamming(neu), 1, "point mutation moved too far");
                }
            }
        }
    }

    #[test]
    fn payoff_cache_warms_up_and_expected_mode_caches_too() {
        let mut pop = Population::new(small_params(71)).unwrap();
        pop.dedup = true;
        assert_eq!(pop.payoff_cache_len(), 0);
        pop.run(40);
        assert!(pop.payoff_cache_len() > 0, "dedup path must memoise pairs");

        let mut p = small_params(72);
        p.kind = StrategyKind::Mixed;
        p.game.noise = 0.02;
        let mut exact = Population::new(p).unwrap();
        exact.expected_fitness = true;
        exact.run(20);
        assert!(
            exact.payoff_cache_len() > 0,
            "expected-fitness path must memoise pair expectations"
        );
    }

    #[test]
    fn restore_prewarms_payoff_cache_with_identical_trajectory() {
        let mut straight = Population::new(small_params(73)).unwrap();
        straight.dedup = true;
        straight.run(100);

        let mut first = Population::new(small_params(73)).unwrap();
        first.dedup = true;
        first.run(40);
        let cp = first.checkpoint();
        let mut resumed = Population::restore(cp).unwrap();
        assert!(
            resumed.payoff_cache_len() > 0,
            "restore must pre-warm the cache from the checkpoint's strategy table"
        );
        resumed.dedup = true;
        resumed.run(60);
        assert_eq!(resumed.assignments(), straight.assignments());
        assert_eq!(resumed.stats(), straight.stats());
    }

    #[test]
    fn prewarmed_resume_bit_identical_to_cold_resume() {
        // The cold-start bugfix must be cost-only: a resumed run with the
        // pre-warmed cache and one with the cache dropped back to empty
        // must agree on every record, every fitness bit, and the stats.
        let mut first = Population::new(small_params(74)).unwrap();
        first.dedup = true;
        first.run(40);
        let cp = first.checkpoint();

        let mut warm = Population::restore(cp.clone()).unwrap();
        warm.dedup = true;
        assert!(warm.payoff_cache_len() > 0);

        let mut cold = Population::restore(cp).unwrap();
        cold.dedup = true;
        cold.payoff_cache.clear();
        assert_eq!(cold.payoff_cache_len(), 0);

        for _ in 0..60 {
            let a = warm.step();
            let b = cold.step();
            assert_eq!(a, b);
            let wa = warm.fitness();
            let ca = cold.fitness();
            assert_eq!(wa.len(), ca.len());
            for (x, y) in wa.iter().zip(ca) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        assert_eq!(warm.assignments(), cold.assignments());
        assert_eq!(warm.stats(), cold.stats());
    }

    #[test]
    fn prewarm_honours_expected_mode() {
        let mut pop = Population::new(small_params(75)).unwrap();
        pop.run(30);
        let cp = pop.checkpoint();

        let exact = Population::restore(cp).unwrap();
        let sampled_entries = exact.payoff_cache_len();
        assert!(sampled_entries > 0);
        // Flipping to expected-fitness mode and re-warming adds the
        // Expected-kind entries that mode reads.
        let mut exact = exact;
        exact.expected_fitness = true;
        let added = exact.prewarm_payoff_cache();
        assert!(added > 0);
        assert_eq!(exact.payoff_cache_len(), sampled_entries + added);
    }

    /// Every SSet's fitness over `pop`'s current table by a fresh
    /// `LocalProvider` with `pop`'s flags: no cache, no memo.
    fn fresh_fitness(pop: &Population) -> Vec<u64> {
        let plan = engine::GenPlan {
            generation: pop.generation,
            rule: pop.params.rule,
            policy: FitnessPolicy::EveryGeneration,
            schedule: crate::nature::GenSchedule { pc: None, mutation: None },
            eval: EvalScope::Full,
            need: engine::FitnessNeed::Full,
        };
        let provided = LocalProvider {
            space: &pop.space,
            assignments: &pop.assignments,
            pool: &pop.pool,
            game: &pop.params.game,
            seed: pop.params.seed,
            exec_mode: ExecMode::Rayon,
            dedup: pop.dedup,
            kernel: GameKernel::Naive,
            expected_fitness: pop.expected_fitness,
            cache: None,
        }
        .provide(&plan);
        match provided.view {
            FitnessView::Full(v) => bits(&v),
            other => panic!("a full evaluation gave {other:?}"),
        }
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// Step `pop` `generations` times. After every step that evaluated
    /// fitness, `fitness()` must be, bit for bit, a fresh evaluation of the
    /// table it ran on, and every record's census the table's. Returns the
    /// number of evaluations of a table the previous one ran on.
    fn step_against_fresh_evaluations(pop: &mut Population, generations: u64, label: &str) -> usize {
        let mut evaluated: Option<Vec<StratId>> = None;
        let mut repeats = 0;
        for _ in 0..generations {
            let table = pop.assignments.clone();
            let want = fresh_fitness(pop);
            let evaluations = pop.stats.fitness_evaluations;
            let rec = pop.step();
            let g = rec.generation;
            assert_eq!(rec.distinct_strategies, pop.distinct_strategies(), "{label}: census at {g}");
            if pop.stats.fitness_evaluations > evaluations {
                assert_eq!(bits(pop.fitness()), want, "{label}: fitness at {g}");
                repeats += usize::from(evaluated.as_ref() == Some(&table));
                evaluated = Some(table);
            }
        }
        repeats
    }

    fn memo_params(mem_steps: usize, rule: UpdateRule, seed: u64) -> Params {
        Params {
            mem_steps,
            rule,
            num_ssets: 12,
            generations: 500,
            seed,
            game: ipd::game::GameConfig {
                rounds: 20,
                ..ipd::game::GameConfig::default()
            },
            ..Params::default()
        }
    }

    #[test]
    fn table_memo_answers_are_fresh_evaluations_for_every_rule() {
        // Default PC and mutation rates leave most tables unchanged, so the
        // memo answers most evaluations here.
        let rules = [UpdateRule::PairwiseComparison, UpdateRule::Moran, UpdateRule::ImitateBest];
        for mem in [1, 2] {
            for (k, rule) in rules.into_iter().enumerate() {
                // On demand, a comparison evaluates its pair alone; Moran
                // and ImitateBest still evaluate every SSet.
                let on_demand = (rule != UpdateRule::PairwiseComparison).then_some(FitnessPolicy::OnDemand);
                for policy in std::iter::once(FitnessPolicy::EveryGeneration).chain(on_demand) {
                    let label = format!("memory {mem} {rule:?} {policy:?}");
                    let mut pop = Population::new(memo_params(mem, rule, 80 + k as u64)).unwrap();
                    pop.dedup = true;
                    pop.fitness_policy = policy;
                    let repeats = step_against_fresh_evaluations(&mut pop, 500, &label);
                    let evaluations = pop.stats.fitness_evaluations as usize;
                    if policy == FitnessPolicy::EveryGeneration {
                        assert!(2 * repeats > evaluations, "{label}: {repeats} of {evaluations} repeat a table");
                    }
                    assert!(pop.memo.is_some(), "{label}: a pure noiseless dedup run keeps a memo");
                }
            }
        }
    }

    #[test]
    fn table_memo_answers_are_fresh_expected_evaluations_of_mixed_strategies() {
        let mut p = memo_params(1, UpdateRule::Moran, 90);
        p.kind = StrategyKind::Mixed;
        let mut pop = Population::new(p).unwrap();
        pop.expected_fitness = true;
        let repeats = step_against_fresh_evaluations(&mut pop, 500, "expected mixed");
        assert!(2 * repeats > 500, "{repeats} of 500 repeat a table");
        // The sampled schedule of a mixed population is never memoised.
        pop.expected_fitness = false;
        pop.memo = None;
        step_against_fresh_evaluations(&mut pop, 20, "sampled mixed");
        assert!(pop.memo.is_none());
        pop.dedup = true;
        step_against_fresh_evaluations(&mut pop, 20, "dedup mixed");
        assert!(pop.memo.is_none());
    }

    #[test]
    fn table_memo_is_keyed_on_the_payoff_kind_and_the_table() {
        let mut p = memo_params(1, UpdateRule::PairwiseComparison, 91);
        p.pc_rate = 0.0;
        p.mutation_rate = 0.0;
        let mut pop = Population::new(p).unwrap();
        pop.dedup = true;
        step_against_fresh_evaluations(&mut pop, 3, "sampled");
        // The table never changes; every flip of a flag is a new question.
        // A Sampled memo must not answer an Expected step: that step probes
        // the cache for the Expected pairs, and takes them in.
        let sampled_entries = pop.payoff_cache_len();
        pop.expected_fitness = true;
        step_against_fresh_evaluations(&mut pop, 3, "expected");
        assert!(pop.payoff_cache_len() > sampled_entries, "the Expected step was answered from the Sampled memo");
        for (dedup, expected) in [(false, true), (true, false), (false, false), (true, true), (true, false)] {
            pop.dedup = dedup;
            pop.expected_fitness = expected;
            step_against_fresh_evaluations(&mut pop, 3, &format!("dedup {dedup} expected {expected}"));
        }
        // The naive schedule leaves the memo as it was.
        let memo_table = |pop: &Population| pop.memo.as_ref().map(|m| (m.assignments().to_vec(), m.distinct(m.assignments())));
        let kept = memo_table(&pop);
        pop.dedup = false;
        step_against_fresh_evaluations(&mut pop, 3, "naive");
        assert_eq!(memo_table(&pop), kept);

        // A strategy set between steps is a new table; setting the one an
        // SSet already holds is the same table.
        pop.dedup = true;
        let space = *pop.space();
        for (i, s) in [classic::all_d(&space), classic::tft(&space), classic::all_c(&space)].into_iter().enumerate() {
            pop.set_strategy(i, Strategy::Pure(s));
            step_against_fresh_evaluations(&mut pop, 2, &format!("set_strategy {i}"));
        }
        let kept = memo_table(&pop);
        let same = (**pop.strategy_of(5)).clone();
        pop.set_strategy(5, same);
        step_against_fresh_evaluations(&mut pop, 2, "set_strategy unchanged");
        assert_eq!(memo_table(&pop), kept);
    }

    #[test]
    fn table_memo_resume_is_bit_identical_to_the_uninterrupted_run() {
        for rule in [UpdateRule::PairwiseComparison, UpdateRule::Moran, UpdateRule::ImitateBest] {
            let p = memo_params(2, rule, 92);
            let mut straight = Population::new(p.clone()).unwrap();
            straight.dedup = true;
            let want: Vec<_> = (0..500).map(|_| (straight.step(), bits(straight.fitness()))).collect();

            let mut first = Population::new(p).unwrap();
            first.dedup = true;
            first.run(230);
            let mut resumed = Population::restore(first.checkpoint()).unwrap();
            assert!(resumed.memo.is_none(), "a checkpoint carries no memo");
            resumed.dedup = true;
            let got: Vec<_> = (0..270).map(|_| (resumed.step(), bits(resumed.fitness()))).collect();
            assert_eq!(got, want[230..], "{rule:?}");
            assert_eq!(resumed.stats(), straight.stats(), "{rule:?}");
            assert_eq!(resumed.assignments(), straight.assignments(), "{rule:?}");
        }
    }

    #[test]
    fn mixed_population_runs_reproducibly() {
        let mut p = small_params(15);
        p.kind = StrategyKind::Mixed;
        let mut a = Population::new(p.clone()).unwrap();
        let mut b = Population::new(p).unwrap();
        a.run(60);
        b.run(60);
        assert_eq!(a.assignments(), b.assignments());
    }
}
