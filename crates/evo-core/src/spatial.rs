//! Spatial evolutionary games on a lattice — the spatialised Prisoner's
//! Dilemma lineage the paper builds on (its reference \[30\], and the
//! cellular-automata models of §II) — driven through the engine contract.
//!
//! Agents sit on a `width × height` torus [`Lattice`], each holding a
//! strategy. A generation is one pass of the `plan → provide → apply`
//! phases (docs/ENGINE_CORE.md, docs/GRAPH.md):
//!
//! 1. [`crate::engine::graph_plan`] describes the generation: a
//!    [`crate::engine::EvalScope::Neighborhood`] evaluation over the
//!    lattice's [`crate::graph::GraphScope`]. Pure, draws nothing.
//! 2. [`LatticeProvider`] (a [`FitnessProvider`]) plays every cell against
//!    its neighbours — rayon-parallel, like the paper's §V-A game phase —
//!    and returns the per-cell payoff field as
//!    [`crate::engine::FitnessView::Full`]. Pure noiseless pairs go
//!    through the deterministic kernel and the cross-generation
//!    [`PayoffCache`]; stochastic games draw only per-pair
//!    `Domain::GamePlay` streams.
//! 3. [`SpatialPopulation::step`] applies the update: `decide_update`
//!    resolves every cell synchronously against the frozen payoff field
//!    (the only spatial RNG user — per-cell `Domain::Graph` streams), and
//!    the RNG-free `commit_update` writes the new grid, accounts
//!    [`RunStats`], and emits the generation's [`GenerationRecord`].
//!
//! Update rules:
//!
//! - [`SpatialUpdate::BestNeighbor`] — adopt the strategy of the
//!   highest-scoring cell in the neighbourhood, self included (the
//!   deterministic imitation rule of Nowak & May's classic spatial
//!   dilemma, which produces the famous cooperator-cluster patterns);
//! - [`SpatialUpdate::Fermi`] — compare against one random neighbour and
//!   adopt with the Fermi probability of Eq. 1, the spatial analogue of
//!   the paper's pairwise-comparison rule.
//!
//! The module reuses the whole game substrate: any memory depth, pure or
//! mixed strategies, any payoff matrix, optional noise — one-shot
//! Nowak-May is simply `mem_steps = 0, rounds = 1`. Because payoffs
//! accumulate in the lattice's canonical neighbour order and every random
//! draw comes from a counter-based stream, trajectories are bit-identical
//! at any rayon thread count and across the shared and distributed
//! backends (`cluster::dist::graph`).

use crate::engine::{EvalScope, FitnessProvider, FitnessView, GenPlan, Provided};
use crate::fitness::{GameKernel, MemoSession, PairPayoff};
use crate::graph::{GraphScope, Lattice};
use crate::paycache::PayoffCache;
use crate::pool::{census, StratId, StrategyPool};
use crate::record::{
    check_schema, decode_tables, pool_table, CheckpointError, GenerationRecord, PopulationSnapshot,
    RunStats,
};
use crate::rngstream::{stream, Domain};
use ipd::game::GameConfig;
use ipd::state::StateSpace;
use ipd::strategy::Strategy;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::ops::Range;

pub use crate::graph::Neighborhood;

/// The synchronous update rule.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SpatialUpdate {
    /// Deterministic best-takes-over within the neighbourhood (self
    /// included). No randomness: the grid evolves as a cellular automaton.
    BestNeighbor,
    /// Fermi imitation of one uniformly chosen neighbour with selection
    /// intensity β.
    Fermi {
        /// Selection intensity (Eq. 1).
        beta: f64,
    },
}

/// Parameters of a spatial population.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpatialParams {
    /// Grid width (≥ 3 so neighbourhoods don't self-overlap via wrap).
    pub width: usize,
    /// Grid height (≥ 3).
    pub height: usize,
    /// Memory depth of the strategies.
    pub mem_steps: usize,
    /// Per-game settings. Nowak-May one-shot play is `rounds = 1`.
    pub game: GameConfig,
    /// Neighbourhood shape.
    pub neighborhood: Neighborhood,
    /// Update rule.
    pub update: SpatialUpdate,
    /// Each cell also plays a game against itself, as in Nowak & May's
    /// original model — self-interaction is what opens their celebrated
    /// 1.8 < b < 2 coexistence window.
    pub include_self: bool,
    /// Generations a full run executes (the CLI/service stop condition;
    /// [`SpatialPopulation::step`] itself is unbounded). `0` when absent
    /// from a serialised request (the vendored serde supports only bare
    /// defaults); the CLI and service always set it explicitly.
    #[serde(default)]
    pub generations: u64,
    /// Master seed.
    pub seed: u64,
}

impl Default for SpatialParams {
    fn default() -> Self {
        SpatialParams {
            width: 32,
            height: 32,
            mem_steps: 0,
            game: GameConfig {
                rounds: 1,
                ..GameConfig::default()
            },
            neighborhood: Neighborhood::Moore8,
            update: SpatialUpdate::BestNeighbor,
            include_self: true,
            generations: 100,
            seed: 0,
        }
    }
}

impl SpatialParams {
    /// Non-panicking validation, for service admission, CLI parsing and
    /// checkpoint decoding; returns the strategies' state space.
    pub fn validate(&self) -> Result<StateSpace, String> {
        if self.width < 3 || self.height < 3 {
            return Err(format!(
                "grid must be at least 3×3, got {}×{}",
                self.width, self.height
            ));
        }
        if let SpatialUpdate::Fermi { beta } = self.update {
            if !beta.is_finite() || beta < 0.0 {
                return Err(format!("Fermi beta must be finite and ≥ 0, got {beta}"));
            }
        }
        StateSpace::new(self.mem_steps).map_err(|e| format!("invalid memory depth: {e}"))
    }

    /// The torus topology these parameters describe.
    pub fn lattice(&self) -> Lattice {
        Lattice::new(self.width, self.height, self.neighborhood)
    }
}

/// How the grid is initially seeded.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum InitPattern {
    /// Every cell cooperates except a single defector at the centre —
    /// Nowak & May's kaleidoscope initial condition.
    SingleDefector,
    /// Each cell defects independently with the given probability.
    RandomDefectors(f64),
    /// Explicit strategies, row-major, `width × height` entries.
    Explicit(Vec<Strategy>),
}

impl InitPattern {
    /// Non-panicking validation against the given parameters.
    pub fn validate(&self, params: &SpatialParams) -> Result<(), String> {
        match self {
            InitPattern::SingleDefector => Ok(()),
            InitPattern::RandomDefectors(p) => {
                if (0.0..=1.0).contains(p) {
                    Ok(())
                } else {
                    Err(format!("defector probability must be in [0, 1], got {p}"))
                }
            }
            InitPattern::Explicit(strats) => {
                let n = params.width * params.height;
                if strats.len() == n {
                    Ok(())
                } else {
                    Err(format!(
                        "explicit init needs {n} strategies (width × height), got {}",
                        strats.len()
                    ))
                }
            }
        }
    }
}

/// Version of the [`SpatialCheckpoint`] JSON schema. Bump on any
/// backwards-incompatible change and update docs/FAULT_TOLERANCE.md.
pub const SPATIAL_CHECKPOINT_SCHEMA_VERSION: u32 = 1;

/// A serialisable snapshot of the complete spatial-run state. Because
/// every stream is `(seed, domain, entity, generation)`-keyed, pool +
/// grid + stats *is* the whole state: restoring and continuing is
/// bit-identical to never stopping (docs/FAULT_TOLERANCE.md,
/// docs/GRAPH.md).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpatialCheckpoint {
    /// Schema version this file was written with
    /// ([`SPATIAL_CHECKPOINT_SCHEMA_VERSION`]); 0 for pre-versioning
    /// files.
    #[serde(default)]
    pub schema_version: u32,
    /// The run's parameters (seed included).
    pub params: SpatialParams,
    /// Generation at which the checkpoint was taken.
    pub generation: u64,
    /// Every interned strategy, in id order.
    pub pool: Vec<Strategy>,
    /// Per-cell strategy ids, row-major.
    pub grid: Vec<StratId>,
    /// Aggregate statistics at checkpoint time.
    pub stats: RunStats,
}

impl SpatialCheckpoint {
    /// Snapshot a lattice run's tables at a generation boundary — the one
    /// place a [`SpatialCheckpoint`] is built.
    pub fn capture(
        params: &SpatialParams,
        generation: u64,
        pool: &StrategyPool,
        grid: &[StratId],
        stats: RunStats,
    ) -> Self {
        SpatialCheckpoint {
            schema_version: SPATIAL_CHECKPOINT_SCHEMA_VERSION,
            params: params.clone(),
            generation,
            pool: pool_table(pool),
            grid: grid.to_vec(),
            stats,
        }
    }

    /// Decode and validate the strategy tables: the parameters' state
    /// space, the rebuilt interning pool (ids as written) and the row-major
    /// grid. The lattice counterpart of
    /// [`crate::record::Checkpoint::tables`], behind every spatial resume.
    pub fn tables(&self) -> Result<(StateSpace, StrategyPool, Vec<StratId>), CheckpointError> {
        check_schema(self.schema_version, SPATIAL_CHECKPOINT_SCHEMA_VERSION)?;
        let space = self.params.validate().map_err(CheckpointError::Params)?;
        decode_tables(space, &self.pool, &self.grid, self.params.width * self.params.height)
    }
}

/// Per-row payoff sums, rows in order. This is the *canonical* f64
/// reduction order of the spatial record stream: the shared backend folds
/// these row sums in row order, and the distributed backend has each rank
/// compute the row sums of its owned rows and rank 0 fold them in the
/// identical order — so the mean payoff is bit-identical across backends
/// and rank counts despite f64 addition being non-associative.
pub fn row_sums(payoffs: &[f64], width: usize) -> Vec<f64> {
    payoffs.chunks(width).map(|row| row.iter().sum()).collect()
}

/// Mean cell payoff in the canonical reduction order of [`row_sums`].
pub fn row_major_mean(payoffs: &[f64], width: usize) -> f64 {
    let total: f64 = row_sums(payoffs, width).iter().sum();
    total / payoffs.len() as f64
}

/// The graph-structured [`FitnessProvider`]: plays every vertex against
/// its neighbours over an explicit topology and returns the payoff field
/// as [`FitnessView::Full`]. The shared backend borrows the population's
/// own tables; the distributed backend builds one over each rank's halo
/// view.
///
/// `provide` splits `range` into one contiguous block of cells per rayon
/// worker. Each block runs one probe session: one counter flush for the
/// block, and a small pair memo in front of the cache that answers the
/// block's recurring deterministic pairs without the hash probe or the read
/// lock, counted as the cache hits they replace. The read lock a cache
/// probe takes is given back after every cell. Every cell's value, the
/// cache's contents and the hit / miss totals are those of one session per
/// cell (docs/PERFORMANCE.md §2.2–2.3).
#[derive(Debug)]
pub struct LatticeProvider<'a> {
    /// State space of all strategies.
    pub space: &'a StateSpace,
    /// The topology.
    pub view: &'a Lattice,
    /// Per-vertex strategy ids (the full grid, or a rank's halo view).
    pub grid: &'a [StratId],
    /// The interning pool.
    pub pool: &'a StrategyPool,
    /// Game configuration.
    pub game: &'a GameConfig,
    /// Master seed.
    pub seed: u64,
    /// Read by nothing: [`PairPayoff`] plays every deterministic game
    /// through one kernel ([`GameKernel`] says why the field stays).
    pub kernel: GameKernel,
    /// Cross-generation payoff memo-cache (cost-only; docs/PERFORMANCE.md).
    pub cache: Option<&'a PayoffCache>,
    /// Restrict evaluation to `vertices[start..end)`. The shared backend
    /// passes the whole range; a distributed rank passes its owned rows
    /// plus the 1-ring halo it needs for the update phase.
    pub range: std::ops::Range<usize>,
}

impl LatticeProvider<'_> {
    /// Focal payoff of the game vertex `a` plays against vertex `b`: the
    /// shared pair primitive (within the block's [`MemoSession`]) over the
    /// two cells' strategies, with the per-pair `Domain::GamePlay` stream
    /// (entity = `a·n + b`, so the (a, b) and (b, a) games are independent)
    /// for the pairs it has to play. A thin call kept inlined: this is the
    /// lattice hot loop, ~9 probes per cell per generation.
    #[inline]
    fn pair_payoff(&self, session: &mut MemoSession<'_>, a: usize, b: usize, generation: u64) -> f64 {
        session.sampled(self.grid[a], self.grid[b], || {
            let entity = (a as u64) * self.grid.len() as u64 + b as u64;
            stream(self.seed, Domain::GamePlay, entity, generation)
        })
    }

    /// The payoffs of `cells`, in order, through one `session`: each cell's
    /// neighbour games in the lattice's canonical stencil order, then its
    /// self-game. The read lock goes back after every cell, so another
    /// worker's insert waits for one stencil of this block's lookups at
    /// most, never for the block.
    fn block(
        &self,
        session: &mut MemoSession<'_>,
        cells: Range<usize>,
        include_self: bool,
        generation: u64,
    ) -> Vec<f64> {
        cells
            .map(|i| {
                let mut total: f64 = self
                    .view
                    .stencil(i)
                    .map(|j| self.pair_payoff(session, i, j, generation))
                    .sum();
                if include_self {
                    total += self.pair_payoff(session, i, i, generation);
                }
                session.release();
                total
            })
            .collect()
    }

    /// The payoffs of `range`, walked as `blocks` (≥ 1) contiguous blocks,
    /// one task and one probe session each. Every cell's value is the same
    /// whatever the block count; only the cache's cold-miss race can move
    /// the hit / miss split between concurrent blocks.
    fn payoffs(&self, include_self: bool, generation: u64, blocks: usize) -> Vec<f64> {
        let pairs = PairPayoff::new(self.space, self.pool, self.game, self.cache);
        let (start, end) = (self.range.start, self.range.end);
        let size = self.range.len().div_ceil(blocks);
        let per_block: Vec<Vec<f64>> = (0..blocks)
            .into_par_iter()
            .map(|b| {
                let lo = (start + b * size).min(end);
                let cells = lo..(lo + size).min(end);
                self.block(&mut pairs.memo_session(), cells, include_self, generation)
            })
            .collect();
        per_block.concat()
    }
}

impl FitnessProvider for LatticeProvider<'_> {
    fn provide(&mut self, plan: &GenPlan) -> Provided {
        let scope = match plan.eval {
            EvalScope::Neighborhood(scope) => scope,
            // detlint: allow(panic-path, reason = "invariant: LatticeProvider is driven only by graph_plan() plans, which always carry EvalScope::Neighborhood; any other scope is a backend wiring bug, not a runtime condition")
            ref other => panic!("LatticeProvider needs a Neighborhood scope, got {other:?}"),
        };
        let _span = obs::span("spatial.fitness");
        let per_cell = self.view.degree(0) as u64 + u64::from(scope.include_self);
        // The payoff phase is embarrassingly parallel (§V-A): one block of
        // cells per worker, so the read lock and the counter flush are paid
        // once a block, not once a cell.
        let blocks = rayon::current_num_threads().min(self.range.len()).max(1);
        let payoffs = self.payoffs(scope.include_self, plan.generation, blocks);
        Provided {
            view: FitnessView::Full(payoffs),
            games: per_cell * self.range.len() as u64,
        }
    }
}

/// Resolve one cell's synchronous update against the frozen payoff field.
/// `payoff_of(j)` must be defined for `j == cell` and every neighbour of
/// `cell`. The *only* spatial RNG user: Fermi draws the cell's
/// `Domain::Graph` stream (entity = cell index), so the decision is a pure
/// function of `(seed, cell, generation, payoff field)` — which is what
/// lets distributed ranks resolve their owned cells with no decision
/// broadcast.
pub fn decide_cell(
    view: &Lattice,
    update: SpatialUpdate,
    seed: u64,
    generation: u64,
    cell: usize,
    grid_at: &impl Fn(usize) -> StratId,
    payoff_of: &impl Fn(usize) -> f64,
) -> StratId {
    match update {
        SpatialUpdate::BestNeighbor => {
            let mut best = cell;
            let mut best_pay = payoff_of(cell);
            for j in view.stencil(cell) {
                // Strict improvement, lowest-index tie-break: the rule
                // stays fully deterministic.
                if payoff_of(j) > best_pay || (payoff_of(j) == best_pay && j < best) {
                    best = j;
                    best_pay = payoff_of(j);
                }
            }
            grid_at(best)
        }
        SpatialUpdate::Fermi { beta } => {
            use rand::Rng;
            let mut rng = stream(seed, Domain::Graph, cell as u64, generation);
            let j = view.neighbor(cell, rng.random_range(0..view.degree(cell)));
            let p = crate::fermi::fermi_probability(beta, payoff_of(j), payoff_of(cell));
            if rng.random::<f64>() < p {
                grid_at(j)
            } else {
                grid_at(cell)
            }
        }
    }
}

/// A lattice population of strategies, stepped through the engine
/// contract.
#[derive(Debug, Clone)]
pub struct SpatialPopulation {
    params: SpatialParams,
    lattice: Lattice,
    space: StateSpace,
    pool: StrategyPool,
    grid: Vec<StratId>,
    payoffs: Vec<f64>,
    generation: u64,
    stats: RunStats,
    cache: PayoffCache,
}

impl SpatialPopulation {
    /// Build a grid population.
    pub fn new(params: SpatialParams, init: InitPattern) -> Self {
        assert!(params.width >= 3 && params.height >= 3, "grid must be at least 3x3");
        let lattice = params.lattice();
        // detlint: allow(panic-path, reason = "constructor contract: every outside input (CLI flags, svc admission, dist configs, checkpoints) passes SpatialParams::validate first, which rejects a bad memory depth typed; reaching this with one is a caller bug")
        let space = StateSpace::new(params.mem_steps).expect("valid memory steps");
        let mut pool = StrategyPool::new();
        let n = params.width * params.height;
        let grid: Vec<StratId> = match init {
            InitPattern::SingleDefector => {
                let c = pool.intern(Strategy::Pure(ipd::classic::all_c(&space)));
                let d = pool.intern(Strategy::Pure(ipd::classic::all_d(&space)));
                let centre = (params.height / 2) * params.width + params.width / 2;
                (0..n).map(|i| if i == centre { d } else { c }).collect()
            }
            InitPattern::RandomDefectors(p) => {
                assert!((0.0..=1.0).contains(&p));
                let c = pool.intern(Strategy::Pure(ipd::classic::all_c(&space)));
                let d = pool.intern(Strategy::Pure(ipd::classic::all_d(&space)));
                (0..n)
                    .map(|i| {
                        use rand::Rng;
                        let mut rng = stream(params.seed, Domain::Init, i as u64, 0);
                        if rng.random::<f64>() < p {
                            d
                        } else {
                            c
                        }
                    })
                    .collect()
            }
            InitPattern::Explicit(strats) => {
                assert_eq!(strats.len(), n, "need one strategy per cell");
                strats.into_iter().map(|s| pool.intern(s)).collect()
            }
        };
        let cache = PayoffCache::new(params.game);
        SpatialPopulation {
            params,
            lattice,
            space,
            pool,
            grid,
            payoffs: vec![0.0; n],
            generation: 0,
            stats: RunStats::default(),
            cache,
        }
    }

    /// Grid dimensions `(width, height)`.
    pub fn dims(&self) -> (usize, usize) {
        (self.params.width, self.params.height)
    }

    /// The run's parameters.
    pub fn params(&self) -> &SpatialParams {
        &self.params
    }

    /// The torus topology.
    pub fn lattice(&self) -> &Lattice {
        &self.lattice
    }

    /// Completed generations.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Aggregate statistics so far.
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// Strategy id at `(x, y)`.
    pub fn at(&self, x: usize, y: usize) -> StratId {
        self.grid[y * self.params.width + x]
    }

    /// Per-cell strategy ids, row-major.
    pub fn grid(&self) -> &[StratId] {
        &self.grid
    }

    /// The interning pool.
    pub fn pool(&self) -> &StrategyPool {
        &self.pool
    }

    /// Payoff of each cell from the most recent generation's games.
    pub fn payoffs(&self) -> &[f64] {
        &self.payoffs
    }

    /// Neighbour indices of cell `i` (torus wraparound, canonical stencil
    /// order).
    pub fn neighbors(&self, i: usize) -> Vec<usize> {
        self.lattice.neighbors(i)
    }

    /// Number of distinct strategies on the grid.
    pub fn distinct_strategies(&self) -> usize {
        census(&self.grid).len()
    }

    /// A full state view (grid ids plus per-cell feature vectors) — the
    /// structure the state digest and record snapshots are computed over,
    /// shared with the well-mixed engine.
    pub fn snapshot(&self) -> PopulationSnapshot {
        PopulationSnapshot {
            generation: self.generation,
            assignments: self.grid.clone(),
            features: self
                .grid
                .iter()
                .map(|&id| self.pool.get(id).feature_vector())
                .collect(),
        }
    }

    /// Serialise the complete run state (docs/GRAPH.md §checkpoints).
    pub fn checkpoint(&self) -> SpatialCheckpoint {
        SpatialCheckpoint::capture(&self.params, self.generation, &self.pool, &self.grid, self.stats)
    }

    /// Rebuild a population from a checkpoint, rejecting one whose tables
    /// do not hold together ([`SpatialCheckpoint::tables`]). Continuing is
    /// bit-identical to never stopping; the payoff cache restarts cold
    /// (cost-only).
    pub fn restore(cp: SpatialCheckpoint) -> Result<Self, CheckpointError> {
        let (space, pool, grid) = cp.tables()?;
        Ok(SpatialPopulation {
            lattice: cp.params.lattice(),
            space,
            pool,
            payoffs: vec![0.0; grid.len()],
            grid,
            generation: cp.generation,
            stats: cp.stats,
            cache: PayoffCache::new(cp.params.game),
            params: cp.params,
        })
    }

    /// Resolve every cell's update against the frozen payoff field — the
    /// spatial `decide` phase. Reads state, never writes it; Fermi draws
    /// per-cell `Domain::Graph` streams, so the result is rayon
    /// schedule-invariant.
    fn decide_update(&self, payoffs: &[f64]) -> Vec<StratId> {
        let gen = self.generation;
        (0..self.grid.len())
            .into_par_iter()
            .map(|i| {
                decide_cell(
                    &self.lattice,
                    self.params.update,
                    self.params.seed,
                    gen,
                    i,
                    &|j| self.grid[j],
                    &|j| payoffs[j],
                )
            })
            .collect()
    }

    /// Commit a decided update: write the grid and payoff field, account
    /// stats, and build the generation's record. Deterministic and
    /// RNG-free (detlint phase-purity root, like `engine::commit`).
    fn commit_update(
        &mut self,
        new_grid: Vec<StratId>,
        payoffs: Vec<f64>,
        games: u64,
    ) -> GenerationRecord {
        let gen = self.generation;
        let adoptions = self
            .grid
            .iter()
            .zip(&new_grid)
            .filter(|(old, new)| old != new)
            .count() as u64;
        let mean = row_major_mean(&payoffs, self.params.width);
        let max = payoffs.iter().cloned().fold(f64::MIN, f64::max);
        self.grid = new_grid;
        self.payoffs = payoffs;
        self.generation += 1;
        self.stats.generations += 1;
        self.stats.fitness_evaluations += 1;
        self.stats.games_played += games;
        self.stats.adoptions += adoptions;
        GenerationRecord {
            generation: gen,
            events: Vec::new(),
            mean_fitness: Some(mean),
            max_fitness: Some(max),
            distinct_strategies: self.distinct_strategies(),
        }
    }

    /// Advance one generation through the engine phases: `graph_plan`,
    /// [`LatticeProvider::provide`], then decide + commit. Deterministic
    /// for `BestNeighbor`; schedule-invariant for `Fermi` (counter-based
    /// streams).
    pub fn step(&mut self) -> GenerationRecord {
        let scope = GraphScope::of(&self.lattice, self.params.include_self);
        let plan = crate::engine::graph_plan(scope, self.generation);
        let mut provider = LatticeProvider {
            space: &self.space,
            view: &self.lattice,
            grid: &self.grid,
            pool: &self.pool,
            game: &self.params.game,
            seed: self.params.seed,
            kernel: GameKernel::Naive,
            cache: Some(&self.cache),
            range: 0..self.grid.len(),
        };
        let provided = provider.provide(&plan);
        let FitnessView::Full(payoffs) = provided.view else {
            // detlint: allow(panic-path, reason = "invariant: LatticeProvider always answers a Neighborhood plan with FitnessView::Full; anything else is a provider implementation bug")
            panic!("spatial provider must return the full payoff field")
        };
        let new_grid = self.decide_update(&payoffs);
        self.commit_update(new_grid, payoffs, provided.games)
    }

    /// Run `generations` steps, discarding the records.
    pub fn run(&mut self, generations: u64) {
        for _ in 0..generations {
            self.step();
        }
    }

    /// Fraction of cells whose strategy is fully cooperative (feature
    /// vector all ones) — the cooperator density of spatial-PD plots.
    pub fn cooperator_fraction(&self) -> f64 {
        let n = self.grid.len();
        let coop = self
            .grid
            .iter()
            .filter(|&&id| {
                self.pool
                    .get(id)
                    .feature_vector()
                    .iter()
                    .all(|&p| p == 1.0)
            })
            .count();
        coop as f64 / n as f64
    }

    /// ASCII frame: `#` cooperator, `.` defector, `o` anything mixed.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity((self.params.width + 1) * self.params.height);
        for y in 0..self.params.height {
            for x in 0..self.params.width {
                let fv = self.pool.get(self.at(x, y)).feature_vector();
                let ch = if fv.iter().all(|&p| p == 1.0) {
                    '#'
                } else if fv.iter().all(|&p| p == 0.0) {
                    '.'
                } else {
                    'o'
                };
                out.push(ch);
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipd::payoff::PayoffMatrix;

    /// Nowak-May payoffs: R = 1, T = b, S = P = 0 (weak dilemma). The
    /// canonical spatial-PD parameterisation.
    fn nowak_may(b: f64) -> GameConfig {
        GameConfig {
            rounds: 1,
            noise: 0.0,
            payoff: PayoffMatrix::from_rstp(1.0, 0.0, b, 0.0),
        }
    }

    fn params(b: f64, size: usize, update: SpatialUpdate) -> SpatialParams {
        SpatialParams {
            width: size,
            height: size,
            game: nowak_may(b),
            update,
            ..SpatialParams::default()
        }
    }

    #[test]
    fn uniform_grids_are_fixed_points() {
        for frac in [0.0, 1.0] {
            let mut pop = SpatialPopulation::new(
                params(1.5, 8, SpatialUpdate::BestNeighbor),
                InitPattern::RandomDefectors(frac),
            );
            let before: Vec<StratId> = (0..8)
                .flat_map(|y| (0..8).map(move |x| (x, y)))
                .map(|(x, y)| pop.at(x, y))
                .collect();
            pop.run(5);
            let after: Vec<StratId> = (0..8)
                .flat_map(|y| (0..8).map(move |x| (x, y)))
                .map(|(x, y)| pop.at(x, y))
                .collect();
            assert_eq!(before, after, "uniform grid must be invariant");
        }
    }

    #[test]
    fn low_temptation_defector_dies_out() {
        // With 9b < 8 + 1 (self-game), the lone defector scores below its
        // cooperating neighbours and is swept away next update.
        let mut pop = SpatialPopulation::new(
            params(0.8, 15, SpatialUpdate::BestNeighbor),
            InitPattern::SingleDefector,
        );
        pop.run(10);
        assert_eq!(pop.cooperator_fraction(), 1.0);
    }

    #[test]
    fn high_temptation_defection_spreads() {
        // b close to the T>R+? regime: a lone defector's cluster expands.
        let mut pop = SpatialPopulation::new(
            params(2.5, 15, SpatialUpdate::BestNeighbor),
            InitPattern::SingleDefector,
        );
        let start = pop.cooperator_fraction();
        pop.run(10);
        assert!(start > 0.99);
        assert!(
            pop.cooperator_fraction() < 0.6,
            "defection should spread, coop still {}",
            pop.cooperator_fraction()
        );
    }

    #[test]
    fn intermediate_temptation_sustains_coexistence() {
        // Nowak & May's celebrated regime (1.8 < b < 2): cooperators
        // survive in clusters alongside defectors.
        let mut pop = SpatialPopulation::new(
            params(1.85, 21, SpatialUpdate::BestNeighbor),
            InitPattern::RandomDefectors(0.3),
        );
        pop.run(60);
        let f = pop.cooperator_fraction();
        assert!(
            (0.05..=0.95).contains(&f),
            "expected coexistence, got cooperator fraction {f}"
        );
    }

    #[test]
    fn best_neighbor_is_deterministic() {
        let mk = || {
            SpatialPopulation::new(
                params(1.9, 12, SpatialUpdate::BestNeighbor),
                InitPattern::RandomDefectors(0.25),
            )
        };
        let mut a = mk();
        let mut b = mk();
        a.run(20);
        b.run(20);
        assert_eq!(a.render(), b.render());
    }

    #[test]
    fn fermi_update_reproducible_and_grid_conserved() {
        let mk = || {
            let mut p = params(1.9, 10, SpatialUpdate::Fermi { beta: 1.0 });
            p.seed = 3;
            SpatialPopulation::new(p, InitPattern::RandomDefectors(0.5))
        };
        let mut a = mk();
        let mut b = mk();
        a.run(15);
        b.run(15);
        assert_eq!(a.render(), b.render());
        assert_eq!(a.dims(), (10, 10));
        assert_eq!(a.payoffs().len(), 100);
    }

    #[test]
    fn neighborhood_sizes() {
        let pop = SpatialPopulation::new(
            params(1.5, 5, SpatialUpdate::BestNeighbor),
            InitPattern::SingleDefector,
        );
        assert_eq!(pop.neighbors(0).len(), 8);
        let mut p4 = params(1.5, 5, SpatialUpdate::BestNeighbor);
        p4.neighborhood = Neighborhood::VonNeumann4;
        let pop4 = SpatialPopulation::new(p4, InitPattern::SingleDefector);
        assert_eq!(pop4.neighbors(0).len(), 4);
        // Wraparound: corner cell's neighbours include the far corner.
        assert!(pop.neighbors(0).contains(&(5 * 5 - 1)));
    }

    #[test]
    fn iterated_spatial_games_work_with_memory() {
        // Memory-one TFT grid vs defectors over 20-round games: TFT's
        // retaliation caps the defectors' earnings, so cooperating clusters
        // persist.
        let space = StateSpace::new(1).unwrap();
        let tft = Strategy::Pure(ipd::classic::tft(&space));
        let alld = Strategy::Pure(ipd::classic::all_d(&space));
        let n = 9usize;
        let strategies: Vec<Strategy> = (0..n * n)
            .map(|i| if i % 5 == 0 { alld.clone() } else { tft.clone() })
            .collect();
        let mut params = SpatialParams {
            width: n,
            height: n,
            mem_steps: 1,
            game: GameConfig {
                rounds: 20,
                ..GameConfig::default()
            },
            ..SpatialParams::default()
        };
        params.update = SpatialUpdate::BestNeighbor;
        let mut pop = SpatialPopulation::new(params, InitPattern::Explicit(strategies));
        pop.run(15);
        // TFT survives (it is not fully cooperative by feature vector, so
        // count grid cells holding it via the pool).
        let tft_id = pop.pool().id_of(&tft).unwrap();
        let tft_cells = (0..n)
            .flat_map(|y| (0..n).map(move |x| (x, y)))
            .filter(|&(x, y)| pop.at(x, y) == tft_id)
            .count();
        assert!(
            tft_cells > n * n / 2,
            "TFT should hold the grid against sparse defectors, has {tft_cells}"
        );
    }

    #[test]
    fn render_marks_cooperators_and_defectors() {
        let pop = SpatialPopulation::new(
            params(1.5, 5, SpatialUpdate::BestNeighbor),
            InitPattern::SingleDefector,
        );
        let frame = pop.render();
        assert_eq!(frame.matches('.').count(), 1, "one defector");
        assert_eq!(frame.matches('#').count(), 24, "24 cooperators");
    }

    /// The walk the block walk replaced, as an independent reference: one
    /// probe session per cell, neighbours by the `rem_euclid` formula.
    /// Returns the payoffs and the sessions' summed `(hits, misses)`.
    fn per_cell_walk(p: &LatticeProvider<'_>, include_self: bool, generation: u64) -> (Vec<f64>, (u64, u64)) {
        let pairs = PairPayoff::new(p.space, p.pool, p.game, p.cache);
        let n = p.grid.len() as u64;
        let mut tally = (0, 0);
        let values = p
            .range
            .clone()
            .map(|i| {
                let mut session = pairs.session();
                let mut play = |j: usize| {
                    let game = || stream(p.seed, Domain::GamePlay, i as u64 * n + j as u64, generation);
                    session.sampled(p.grid[i], p.grid[j], game)
                };
                let (x, y) = p.view.coords(i);
                let mut total: f64 = p
                    .view
                    .neighborhood
                    .offsets()
                    .iter()
                    .map(|&(dx, dy)| play(p.view.index(x as i64 + dx, y as i64 + dy)))
                    .sum();
                if include_self {
                    total += play(i);
                }
                let (hits, misses) = session.tally();
                tally = (tally.0 + hits, tally.1 + misses);
                total
            })
            .collect();
        (values, tally)
    }

    /// The block walk against the per-cell walk: payoff bits at 1, 2 and 8
    /// blocks (what `provide` makes of `RAYON_NUM_THREADS` 1/2/8), with and
    /// without a cache; the one-block `(hits, misses)`; and the cache
    /// contents, cold and warm. The grids: the two-strategy weak dilemma;
    /// all 16 pure memory-one strategies, more distinct pairs than memo
    /// slots, so slots collide; pure and mixed strategies side by side,
    /// whose stochastic pairs the memo must never answer; the same pure
    /// grid under noise; and, on each, the row ranges a distributed rank
    /// evaluates (its owned rows and the two halo rows, which wrap).
    #[test]
    fn block_walk_equals_the_per_cell_walk() {
        let space = StateSpace::new(1).unwrap();
        let (w, h) = (12, 9);
        let mut rng = stream(5, Domain::Init, 0, 0);
        let pure: Vec<Strategy> = (0..w * h)
            .map(|i| {
                // Every index at least once, then at random.
                let index = if i < 16 { i as u8 } else { rand::Rng::random_range(&mut rng, 0..16) };
                Strategy::Pure(ipd::strategy::PureStrategy::from_memory_one_index(space, index))
            })
            .collect();
        let mixed: Vec<Strategy> = [0.2, 0.7]
            .map(|p| Strategy::Mixed(ipd::strategy::MixedStrategy::memory_one(space, [p, 0.5, 0.1, p]).unwrap()))
            .into();
        let with_mixed: Vec<Strategy> =
            pure.iter().enumerate().map(|(i, s)| if i % 3 == 0 { mixed[i % 2].clone() } else { s.clone() }).collect();
        let iterated = |noise: f64| SpatialParams {
            width: w,
            height: h,
            mem_steps: 1,
            game: GameConfig {
                rounds: 20,
                noise,
                ..GameConfig::default()
            },
            seed: 5,
            ..SpatialParams::default()
        };
        let mut weak = params(1.85, w, SpatialUpdate::BestNeighbor);
        weak.height = h;
        let grids = [
            ("weak dilemma", SpatialPopulation::new(weak, InitPattern::RandomDefectors(0.5))),
            ("16 pure", SpatialPopulation::new(iterated(0.0), InitPattern::Explicit(pure.clone()))),
            ("pure and mixed", SpatialPopulation::new(iterated(0.0), InitPattern::Explicit(with_mixed))),
            ("noisy", SpatialPopulation::new(iterated(0.05), InitPattern::Explicit(pure))),
        ];
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (name, pop) in &grids {
            let game = pop.params.game;
            for (include_self, range) in [(true, 0..w * h), (false, 3 * w..6 * w), (true, 0..w), (true, (h - 1) * w..h * w)] {
                let label = format!("{name} self {include_self} cells {range:?}");
                let provider = |cache| LatticeProvider {
                    space: &pop.space,
                    view: &pop.lattice,
                    grid: &pop.grid,
                    pool: &pop.pool,
                    game: &game,
                    seed: pop.params.seed,
                    kernel: GameKernel::Naive,
                    cache,
                    range: range.clone(),
                };
                let (want, _) = per_cell_walk(&provider(None), include_self, 3);
                let (reference, blocked) = (PayoffCache::new(game), PayoffCache::new(game));
                for pass in ["cold", "warm"] {
                    let (by_cell, tally) = per_cell_walk(&provider(Some(&reference)), include_self, 3);
                    assert_eq!(bits(&by_cell), bits(&want), "{label} {pass}: cached per-cell walk");
                    let block = provider(Some(&blocked));
                    let mut session = PairPayoff::new(&pop.space, &pop.pool, &game, Some(&blocked)).memo_session();
                    let got = block.block(&mut session, range.clone(), include_self, 3);
                    assert_eq!(bits(&got), bits(&want), "{label} {pass}: one block");
                    assert_eq!(session.tally(), tally, "{label} {pass}: (hits, misses)");
                    drop(session);
                    assert_eq!(blocked.len(), reference.len(), "{label} {pass}: cache entries");
                    for blocks in [1, 2, 8] {
                        for cache in [None, Some(&blocked)] {
                            let got = provider(cache).payoffs(include_self, 3, blocks);
                            assert_eq!(bits(&got), bits(&want), "{label} {pass}: {blocks} blocks, cached {}", cache.is_some());
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn step_record_reports_payoff_summary_and_accounting() {
        let mut pop = SpatialPopulation::new(
            params(1.85, 8, SpatialUpdate::BestNeighbor),
            InitPattern::RandomDefectors(0.3),
        );
        let rec = pop.step();
        assert_eq!(rec.generation, 0);
        assert!(rec.events.is_empty());
        let mean = rec.mean_fitness.expect("spatial records carry the mean");
        let max = rec.max_fitness.expect("spatial records carry the max");
        assert!(max >= mean);
        assert_eq!(mean, row_major_mean(pop.payoffs(), 8));
        assert!(rec.distinct_strategies >= 1);
        // 8×8 Moore grid with self-games: 64 cells × 9 games each.
        assert_eq!(pop.stats().games_played, 64 * 9);
        assert_eq!(pop.stats().generations, 1);
        assert_eq!(pop.stats().fitness_evaluations, 1);
    }

    #[test]
    fn checkpoint_resume_is_bit_identical_mid_run() {
        for update in [SpatialUpdate::BestNeighbor, SpatialUpdate::Fermi { beta: 1.2 }] {
            let mut p = params(1.9, 9, update);
            p.seed = 21;
            let mut straight = SpatialPopulation::new(p.clone(), InitPattern::RandomDefectors(0.35));
            let straight_records: Vec<String> = (0..20)
                .map(|_| serde_json::to_string(&straight.step()).unwrap())
                .collect();

            for split in [1u64, 7, 19] {
                let mut first =
                    SpatialPopulation::new(p.clone(), InitPattern::RandomDefectors(0.35));
                let mut records: Vec<String> = (0..split)
                    .map(|_| serde_json::to_string(&first.step()).unwrap())
                    .collect();
                // Through the wire format: the JSON round trip itself must
                // preserve every bit.
                let json = serde_json::to_string(&first.checkpoint()).unwrap();
                let cp: SpatialCheckpoint = serde_json::from_str(&json).unwrap();
                assert_eq!(cp.schema_version, SPATIAL_CHECKPOINT_SCHEMA_VERSION);
                let mut resumed = SpatialPopulation::restore(cp).unwrap();
                records.extend(
                    (split..20).map(|_| serde_json::to_string(&resumed.step()).unwrap()),
                );
                assert_eq!(records, straight_records, "{update:?} split {split}");
                assert_eq!(resumed.grid(), straight.grid(), "{update:?} split {split}");
                assert_eq!(resumed.stats(), straight.stats(), "{update:?} split {split}");
                assert_eq!(
                    crate::record::state_digest(
                        &resumed.snapshot().assignments,
                        &resumed.snapshot().features
                    ),
                    crate::record::state_digest(
                        &straight.snapshot().assignments,
                        &straight.snapshot().features
                    ),
                );
            }
        }
    }

    #[test]
    fn restore_rejects_corrupt_checkpoints() {
        let pop = SpatialPopulation::new(
            params(1.5, 5, SpatialUpdate::BestNeighbor),
            InitPattern::SingleDefector,
        );
        let reject = |cp: SpatialCheckpoint| SpatialPopulation::restore(cp).expect_err("must reject");
        let mut bad_grid = pop.checkpoint();
        bad_grid.grid.pop();
        assert_eq!(
            reject(bad_grid),
            CheckpointError::WrongLength {
                found: 24,
                expected: 25
            }
        );
        let mut bad_id = pop.checkpoint();
        bad_id.grid[0] = 999;
        assert_eq!(reject(bad_id), CheckpointError::UnknownStrategy { id: 999, pool: 2 });
        let mut bad_dims = pop.checkpoint();
        bad_dims.params.width = 2;
        assert!(matches!(reject(bad_dims), CheckpointError::Params(e) if e.contains("3×3")));
        let mut twin = pop.checkpoint();
        twin.pool[1] = twin.pool[0].clone();
        assert_eq!(reject(twin), CheckpointError::DuplicatePoolEntry { index: 1 });
        let mut future = pop.checkpoint();
        future.schema_version = SPATIAL_CHECKPOINT_SCHEMA_VERSION + 1;
        assert!(matches!(reject(future), CheckpointError::FutureSchema { .. }));
    }

    #[test]
    fn row_sums_define_the_canonical_mean() {
        let payoffs: Vec<f64> = (0..12).map(|i| i as f64 * 0.1).collect();
        let rs = row_sums(&payoffs, 4);
        assert_eq!(rs.len(), 3);
        let mean = row_major_mean(&payoffs, 4);
        assert_eq!(mean, rs.iter().sum::<f64>() / 12.0);
    }
}
