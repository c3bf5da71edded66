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
//! 3. [`SpatialPopulation::play_rows`] decides every cell of a range of
//!    rows synchronously against the frozen payoff field (the only spatial
//!    RNG user — per-cell `Domain::Graph` streams), commits the new cells
//!    and returns the block's [`GenSummary`];
//! 4. the RNG-free [`SpatialPopulation::fold`] folds the blocks' summaries
//!    in row order into the generation's [`GenerationRecord`] and accounts
//!    [`RunStats`].
//!
//! [`SpatialPopulation::step`] is the plan, the body over the whole torus
//! and the fold of its one block. A compute rank of the distributed
//! backend (`cluster::dist::graph`) runs the same body over its owned rows
//! and rank 0 folds the ranks' summaries, so the two backends share every
//! decision and every line of accounting.
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
    /// checkpoint decoding; returns the strategies' state space. A grid
    /// holds at most 2³² cells, so every pair game's stream entity
    /// `a·n + b` fits in a `u64`.
    pub fn validate(&self) -> Result<StateSpace, String> {
        if self.width < 3 || self.height < 3 {
            return Err(format!(
                "grid must be at least 3×3, got {}×{}",
                self.width, self.height
            ));
        }
        let cells = self.width.checked_mul(self.height);
        if cells.is_none_or(|n| n as u64 > 1 << 32) {
            return Err(format!(
                "grid must hold at most 2^32 cells, got {}×{}",
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
                let n = params.width.saturating_mul(params.height);
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

/// What one block of rows contributes to its generation's record: the
/// summary [`SpatialPopulation::play_rows`] returns and
/// [`SpatialPopulation::fold`] folds. The distributed backend ships one per
/// compute rank to rank 0.
#[derive(Debug, Clone, PartialEq)]
pub struct GenSummary {
    /// The generation the block ran (the distributed backend discards a
    /// fault-duplicated summary of an earlier one by it).
    pub generation: u64,
    /// Per-row payoff sums, rows in order. Folded in row order, they are
    /// the *canonical* f64 reduction of the record's mean: the same bits
    /// whatever the row partition, although f64 addition is not
    /// associative.
    pub row_sums: Vec<f64>,
    /// Max payoff over the block's cells (cell order).
    pub max: f64,
    /// Distinct strategy ids on the block's new cells, ascending.
    pub distinct: Vec<StratId>,
    /// Cells of the block whose strategy changed.
    pub adoptions: u64,
}

/// `f` over `range` cut into `blocks` (≥ 1) contiguous blocks, one rayon
/// task each, the results concatenated in range order.
fn in_blocks<T: Clone + Send>(
    range: Range<usize>,
    blocks: usize,
    f: impl Fn(Range<usize>) -> Vec<T> + Sync,
) -> Vec<T> {
    let size = range.len().div_ceil(blocks);
    let per_block: Vec<Vec<T>> = (0..blocks)
        .into_par_iter()
        .map(|b| {
            let lo = (range.start + b * size).min(range.end);
            f(lo..(lo + size).min(range.end))
        })
        .collect();
    per_block.concat()
}

/// Fewest cells [`SpatialPopulation::play_rows`] decides on one rayon
/// worker. On a 2-vCPU x86-64 box a decision took ≈ 50 ns a cell
/// (`BestNeighbor`) to ≈ 120 ns (`Fermi`, which opens a ChaCha8 stream)
/// and a two-worker fan-out of the vendored rayon ≈ 50 µs, so a smaller
/// block would save less than its worker thread costs. A 128×128 step
/// fans out; a 32×32 step and a compute rank owning fewer than 2048
/// cells do not.
const DECIDE_BLOCK_MIN: usize = 1024;

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
        in_blocks(self.range.clone(), blocks, |cells| {
            self.block(&mut pairs.memo_session(), cells, include_self, generation)
        })
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
        let lattice = params.lattice();
        // detlint: allow(panic-path, reason = "constructor contract: every outside input (CLI flags, svc admission, dist configs, checkpoints) passes SpatialParams::validate first, which rejects a bad grid or memory depth typed; reaching this with one is a caller bug")
        let space = params.validate().expect("valid spatial params");
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

    /// Serialise the complete run state (docs/GRAPH.md §checkpoints) — the
    /// one place a [`SpatialCheckpoint`] is built, on either backend.
    pub fn checkpoint(&self) -> SpatialCheckpoint {
        SpatialCheckpoint {
            schema_version: SPATIAL_CHECKPOINT_SCHEMA_VERSION,
            params: self.params.clone(),
            generation: self.generation,
            pool: pool_table(&self.pool),
            grid: self.grid.clone(),
            stats: self.stats,
        }
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

    /// Overwrite the cells of the rows from `first_row` on with `cells`, ids
    /// of this population's pool: the rows another copy of the population
    /// owns (a distributed rank's halo, or a block gathered at rank 0).
    pub fn write_rows(&mut self, first_row: usize, cells: &[StratId]) {
        let start = first_row * self.params.width;
        self.grid[start..start + cells.len()].copy_from_slice(cells);
    }

    /// One lattice generation over `rows`, the body both backends run: the
    /// payoffs of those rows and of the one-row ring outside them (empty
    /// when `rows` is the whole torus) through [`LatticeProvider`], every
    /// cell of `rows` decided against that frozen payoff field, and the new
    /// cells committed. It reads the strategies of the rows and of their
    /// two-row ring only, so a compute rank runs it on its own copy of the
    /// population, fresh there. Deterministic for `BestNeighbor`;
    /// schedule-invariant for `Fermi` (counter-based streams).
    pub fn play_rows(&mut self, plan: &GenPlan, rows: Range<usize>) -> GenSummary {
        let (w, h) = self.dims();
        let cells = rows.start * w..rows.end * w;
        let mut ranges = vec![cells.clone()];
        if rows.len() < h {
            for row in [(rows.start + h - 1) % h, rows.end % h] {
                ranges.push(row * w..(row + 1) * w);
            }
        }
        for range in ranges {
            let provided = LatticeProvider {
                space: &self.space,
                view: &self.lattice,
                grid: &self.grid,
                pool: &self.pool,
                game: &self.params.game,
                seed: self.params.seed,
                kernel: GameKernel::Naive,
                cache: Some(&self.cache),
                range: range.clone(),
            }
            .provide(plan);
            let FitnessView::Full(values) = provided.view else {
                // detlint: allow(panic-path, reason = "invariant: LatticeProvider always answers a Neighborhood plan with FitnessView::Full; anything else is a provider implementation bug")
                panic!("spatial provider must return the full payoff field")
            };
            self.payoffs[range].copy_from_slice(&values);
        }
        // Decide against the old grid: one block of cells per worker, none
        // smaller than `DECIDE_BLOCK_MIN`.
        let blocks = (cells.len() / DECIDE_BLOCK_MIN).clamp(1, rayon::current_num_threads());
        let new_cells = in_blocks(cells.clone(), blocks, |block| {
            block
                .map(|i| self.decide_cell(plan.generation, i))
                .collect()
        });
        self.commit_rows(plan.generation, cells, &new_cells)
    }

    /// Resolve one cell's synchronous update against the frozen payoff
    /// field, which must be filled at `cell` and at every neighbour. The
    /// *only* spatial RNG user: Fermi draws the cell's `Domain::Graph`
    /// stream (entity = cell index), so the decision is a pure function of
    /// `(seed, cell, generation, payoff field)` — which is what lets
    /// distributed ranks resolve their owned cells with no decision
    /// broadcast.
    fn decide_cell(&self, generation: u64, cell: usize) -> StratId {
        let pay = &self.payoffs;
        match self.params.update {
            SpatialUpdate::BestNeighbor => {
                let mut best = cell;
                for j in self.lattice.stencil(cell) {
                    // Strict improvement, lowest-index tie-break: the rule
                    // stays fully deterministic.
                    if pay[j] > pay[best] || (pay[j] == pay[best] && j < best) {
                        best = j;
                    }
                }
                self.grid[best]
            }
            SpatialUpdate::Fermi { beta } => {
                use rand::Rng;
                let mut rng = stream(self.params.seed, Domain::Graph, cell as u64, generation);
                let k = rng.random_range(0..self.lattice.degree(cell));
                let j = self.lattice.neighbor(cell, k);
                let p = crate::fermi::fermi_probability(beta, pay[j], pay[cell]);
                if rng.random::<f64>() < p {
                    self.grid[j]
                } else {
                    self.grid[cell]
                }
            }
        }
    }

    /// Commit a block's decided cells into the grid and summarise the block
    /// for its record. Deterministic and RNG-free (detlint phase-purity
    /// root).
    fn commit_rows(
        &mut self,
        generation: u64,
        cells: Range<usize>,
        new_cells: &[StratId],
    ) -> GenSummary {
        let old = &mut self.grid[cells.clone()];
        let adoptions = old.iter().zip(new_cells).filter(|(o, n)| o != n).count() as u64;
        old.copy_from_slice(new_cells);
        let payoffs = &self.payoffs[cells];
        GenSummary {
            generation,
            row_sums: payoffs
                .chunks(self.params.width)
                .map(|row| row.iter().sum())
                .collect(),
            max: payoffs.iter().copied().fold(f64::MIN, f64::max),
            distinct: census(new_cells).ids().to_vec(),
            adoptions,
        }
    }

    /// Fold a generation's block summaries, in row order, into the
    /// generation's record, and account its [`RunStats`] — games as
    /// `per_cell · n` from the params. The one place a lattice record is
    /// made and the lattice's `RunStats` change, on either backend.
    /// Deterministic and RNG-free (detlint phase-purity root, like
    /// `engine::commit`).
    pub fn fold(&mut self, blocks: &[GenSummary]) -> GenerationRecord {
        let n = self.grid.len();
        let per_cell =
            self.params.neighborhood.offsets().len() as u64 + u64::from(self.params.include_self);
        let total: f64 = blocks.iter().flat_map(|b| &b.row_sums).sum();
        let distinct: Vec<StratId> = blocks.iter().flat_map(|b| &b.distinct).copied().collect();
        let record = GenerationRecord {
            generation: self.generation,
            events: Vec::new(),
            mean_fitness: Some(total / n as f64),
            max_fitness: Some(blocks.iter().map(|b| b.max).fold(f64::MIN, f64::max)),
            distinct_strategies: census(&distinct).len(),
        };
        self.generation += 1;
        self.stats.generations += 1;
        self.stats.fitness_evaluations += 1;
        self.stats.games_played += per_cell * n as u64;
        self.stats.adoptions += blocks.iter().map(|b| b.adoptions).sum::<u64>();
        record
    }

    /// Advance one generation: [`crate::engine::graph_plan`], the body over
    /// the whole torus ([`SpatialPopulation::play_rows`]), then the fold of
    /// its one block.
    pub fn step(&mut self) -> GenerationRecord {
        let scope = GraphScope::of(&self.lattice, self.params.include_self);
        let plan = crate::engine::graph_plan(scope, self.generation);
        let block = self.play_rows(&plan, 0..self.params.height);
        self.fold(&[block])
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
        let row_sums = pop.payoffs().chunks(8).map(|row| row.iter().sum::<f64>());
        assert_eq!(mean, row_sums.sum::<f64>() / 64.0);
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

    /// GRAPH.md's rule 2 without the cluster: the body over every block of
    /// a row partition, each block on its own copy of the population (as a
    /// compute rank runs it), then the fold of the blocks in row order, gives
    /// the record bits, grid and `RunStats` of one block over the whole
    /// torus. The partitions include 1-row blocks and uneven cuts, which no
    /// distributed run makes (every compute rank owns ≥ 2 rows).
    #[test]
    fn any_row_partition_gives_the_same_bits() {
        let bits = |r: &GenerationRecord| {
            (r.generation, r.mean_fitness.map(f64::to_bits), r.max_fitness.map(f64::to_bits), r.distinct_strategies)
        };
        let partitions: [&[usize]; 5] = [&[1; 7], &[3, 1, 3], &[2, 5], &[6, 1], &[1, 2, 4]];
        for update in [SpatialUpdate::BestNeighbor, SpatialUpdate::Fermi { beta: 1.1 }] {
            for neighborhood in [Neighborhood::Moore8, Neighborhood::VonNeumann4] {
                for include_self in [true, false] {
                    let p = SpatialParams {
                        width: 5,
                        height: 7,
                        neighborhood,
                        include_self,
                        seed: 17,
                        ..params(1.7, 5, update)
                    };
                    let mut whole = SpatialPopulation::new(p.clone(), InitPattern::RandomDefectors(0.4));
                    for partition in partitions {
                        let label = format!("{update:?} {neighborhood:?} self {include_self} rows {partition:?}");
                        let mut merged = whole.clone();
                        for _ in 0..6 {
                            let want = whole.step();
                            let scope = GraphScope::of(&merged.lattice, include_self);
                            let plan = crate::engine::graph_plan(scope, merged.generation);
                            let mut blocks = Vec::new();
                            let mut start = 0;
                            let mut copies = Vec::new();
                            for &len in partition {
                                let mut copy = merged.clone();
                                blocks.push(copy.play_rows(&plan, start..start + len));
                                copies.push((start, len, copy));
                                start += len;
                            }
                            for (start, len, copy) in copies {
                                merged.write_rows(start, &copy.grid()[start * 5..(start + len) * 5]);
                            }
                            let got = merged.fold(&blocks);
                            assert_eq!(bits(&got), bits(&want), "{label}: record");
                            assert_eq!(merged.grid(), whole.grid(), "{label}: grid");
                            assert_eq!(merged.stats(), whole.stats(), "{label}: stats");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn validation_bounds_the_cell_count() {
        let wide = SpatialParams {
            width: 1 << 33,
            height: 3,
            ..SpatialParams::default()
        };
        assert!(wide.validate().unwrap_err().contains("2^32 cells"));
        let overflow = SpatialParams {
            width: usize::MAX / 2,
            height: 3,
            ..SpatialParams::default()
        };
        assert!(overflow.validate().unwrap_err().contains("2^32 cells"));
        let explicit = InitPattern::Explicit(Vec::new());
        assert!(explicit.validate(&overflow).unwrap_err().contains("strategies"));
        let largest = SpatialParams {
            width: 1 << 30,
            height: 4,
            ..SpatialParams::default()
        };
        assert!(largest.validate().is_ok());
    }
}
