//! Rank-sharded spatial games: contiguous lattice row partitions with
//! halo exchange (docs/GRAPH.md).
//!
//! The well-mixed distributed engine (`super`) replicates the whole
//! strategy table because any SSet may interact with any other. A lattice
//! interacts only locally, so the paper's decomposition tightens: rank 0
//! coordinates (plans, records, checkpoints) and owns no cells; compute
//! ranks `1..P` own contiguous *row blocks* of the torus and per
//! generation exchange only their two boundary rows with the ring-adjacent
//! ranks — never the full grid. One generation:
//!
//! 1. compute ranks swap halos: each sends its top-2/bottom-2 owned rows
//!    to the previous/next compute rank (wrapping), refreshing the 2-ring
//!    of strategies its payoff phase reads;
//! 2. rank 0 broadcasts the [`GenPlan`] ([`engine::graph_plan`] — an
//!    [`EvalScope::Neighborhood`] evaluation; pure, draws nothing);
//! 3. each compute rank runs a [`LatticeProvider`] over its owned rows
//!    plus the 1-ring halo rows and resolves its owned cells with
//!    [`spatial::decide_cell`]. The per-cell `Domain::Graph` streams are
//!    counter-based, so the update needs **no decision broadcast** —
//!    `graph_plan().has_update()` is `false` by construction;
//! 4. each compute rank sends rank 0 a per-generation summary (owned
//!    row sums, max, distinct ids, adoptions); rank 0 folds the row sums
//!    in row order — the canonical [`spatial::row_sums`] reduction — and
//!    emits the *identical* [`GenerationRecord`] the shared backend does.
//!
//! Full-grid gathers happen only at generation boundaries that need a
//! consistent snapshot: while a fault plan is active, at
//! `checkpoint_every` points, and at the end of the run. Which boundaries
//! those are, and fault handling (docs/FAULT_TOLERANCE.md), is the
//! generation frame's in `driver`; this file keeps one generation's body.

use super::driver::{self, Generations, RankError, Schedule};
use super::{Degraded, DistError};
use crate::collective::Collective;
use crate::comm::{Comm, Rank};
use crate::faults::FaultPlan;
use evo_core::engine::{self, EvalScope, FitnessProvider, FitnessView, GenPlan};
use evo_core::fitness::GameKernel;
use evo_core::graph::GraphScope;
use evo_core::paycache::PayoffCache;
use evo_core::pool::{census, StratId, StrategyPool};
use evo_core::record::{GenerationRecord, RunStats};
use evo_core::spatial::{self, InitPattern, LatticeProvider, SpatialCheckpoint, SpatialParams};
use ipd::state::StateSpace;
use serde::{Deserialize, Serialize};

/// Point-to-point tag for halo row exchanges.
const HALO_TAG: crate::comm::Tag = 2;
/// Point-to-point tag for per-generation summaries to rank 0.
const SUMMARY_TAG: crate::comm::Tag = 3;

/// Messages exchanged by the spatial distributed engine.
#[derive(Debug, Clone)]
enum SpatialMsg {
    /// Broadcast: this generation's plan (an `EvalScope::Neighborhood`
    /// evaluation over the lattice's scope).
    Plan(GenPlan),
    /// Point-to-point halo: two consecutive fresh rows of the sender's
    /// owned block. Carries its generation so a fault-duplicated message
    /// is recognised as stale and discarded.
    Halo {
        first_row: u32,
        cells: Vec<StratId>,
        generation: u64,
    },
    /// Point-to-point: one compute rank's per-generation summary.
    Summary(Box<GenSummary>),
    /// Gather leaf: one rank's owned rows (boundary snapshots and the
    /// final state — the only times the full grid travels).
    OwnedRows { first_row: u32, cells: Vec<StratId> },
    /// Collective plumbing (barriers / reductions of scalars).
    Scalar(#[allow(dead_code)] f64),
}

/// What one compute rank contributes to a generation's record.
#[derive(Debug, Clone)]
struct GenSummary {
    generation: u64,
    /// Per-owned-row payoff sums, rows in order — rank 0 folds these in
    /// row order so the mean is bit-identical to the shared backend's
    /// [`spatial::row_major_mean`].
    row_sums: Vec<f64>,
    /// Max payoff over the owned cells (cell order).
    max: f64,
    /// Distinct strategy ids present on the owned cells, ascending.
    distinct: Vec<StratId>,
    /// Owned cells whose strategy changed this generation.
    adoptions: u64,
}

/// Configuration of a distributed spatial run. Mirrors
/// [`super::DistConfig`]: the defaults are a fault-free, checkpoint-free
/// run from generation zero.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SpatialDistConfig {
    /// Lattice parameters (shared with [`spatial::SpatialPopulation`];
    /// `params.generations` is the stop condition).
    pub params: SpatialParams,
    /// Initial grid seeding (ignored on resume).
    pub init: InitPattern,
    /// Total ranks including the coordinator (rank 0); ≥ 2. Every compute
    /// rank must own at least two rows, so `ranks > 2` requires
    /// `height ≥ 2·(ranks − 1)`.
    pub ranks: usize,
    /// Deterministic fault schedule to execute (empty = fault-free).
    #[serde(default)]
    pub faults: FaultPlan,
    /// Have rank 0 refresh a restartable [`SpatialCheckpoint`] every N
    /// completed generations.
    #[serde(default)]
    pub checkpoint_every: Option<u64>,
    /// Resume from a checkpoint instead of initialising at generation
    /// zero. The checkpoint's own `params` drive the run; `params` and
    /// `init` above are ignored when this is set.
    #[serde(default)]
    pub resume: Option<SpatialCheckpoint>,
}

impl SpatialDistConfig {
    /// A fault-free, checkpoint-free run from generation zero.
    pub fn new(params: SpatialParams, init: InitPattern, ranks: usize) -> Self {
        SpatialDistConfig {
            params,
            init,
            ranks,
            faults: FaultPlan::default(),
            checkpoint_every: None,
            resume: None,
        }
    }
}

/// Result of a distributed spatial run.
#[derive(Debug, Clone)]
pub struct SpatialOutcome {
    /// Final per-cell strategy ids, row-major (pool-consistent with the
    /// shared backend's: both intern in the identical order).
    pub grid: Vec<StratId>,
    /// Final per-cell strategy feature vectors (the state-digest input).
    pub features: Vec<Vec<f64>>,
    /// Aggregate statistics (as accounted by rank 0 — identical to the
    /// shared backend's `RunStats`).
    pub stats: RunStats,
    /// Per-generation records, in order — bit-identical to the shared
    /// backend's stream. A resumed run reports only the generations it
    /// executed.
    pub records: Vec<GenerationRecord>,
    /// Total point-to-point messages the run sent (collectives included).
    pub messages_sent: u64,
    /// The most recent periodic checkpoint (`Some` only when
    /// [`SpatialDistConfig::checkpoint_every`] was set and at least one
    /// interval completed).
    pub checkpoint: Option<SpatialCheckpoint>,
}

/// A degraded lattice run: the restartable snapshot is a
/// [`SpatialCheckpoint`].
pub type SpatialDegradedRun = Degraded<SpatialCheckpoint>;

/// The rows owned by `rank` under a balanced block partition of `height`
/// rows over compute ranks `1..ranks` (empty for rank 0, the coordinator).
/// Blocks are contiguous and ascending in rank order, so the ring-adjacent
/// compute rank always owns the row-adjacent block.
pub fn owned_rows(rank: usize, height: usize, ranks: usize) -> std::ops::Range<usize> {
    super::owned_range(rank, height, ranks)
}

/// Run the spatial engine rank-sharded and return its outcome —
/// bit-identical to [`spatial::SpatialPopulation`] run shared-memory: the
/// record stream, final grid, stats, and state digest all match at any
/// rank count.
///
/// # Errors
///
/// - [`DistError::Params`] — invalid lattice parameters, init pattern, or
///   rank count (each compute rank must own ≥ 2 rows), or a resume
///   checkpoint whose tables do not hold together
///   ([`SpatialCheckpoint::tables`]); no rank is launched.
/// - [`DistError::Degraded`] — a fault (injected or emergent) was
///   detected; the payload carries a restartable [`SpatialCheckpoint`].
/// - [`DistError::Cluster`] / [`DistError::Protocol`] — low-level failures
///   with no degraded-mode context.
pub fn run_spatial_distributed(
    config: &SpatialDistConfig,
) -> Result<SpatialOutcome, DistError<SpatialCheckpoint>> {
    let _span = obs::span("dist.spatial");
    if config.ranks < 2 {
        return Err(DistError::Params(
            "need the coordinator plus at least one compute rank".into(),
        ));
    }
    // A resumed run is driven by the checkpoint's own params.
    let mut config = config.clone();
    if let Some(cp) = &config.resume {
        config.params = cp.params.clone();
    }
    let params = &config.params;
    let (space, restored) = match &config.resume {
        Some(cp) => {
            let (space, pool, grid) = cp.tables().map_err(|e| DistError::Params(e.to_string()))?;
            (space, Some((pool, grid)))
        }
        None => {
            let space = params.validate().map_err(DistError::Params)?;
            config.init.validate(params).map_err(DistError::Params)?;
            (space, None)
        }
    };
    let compute = config.ranks - 1;
    if compute > 1 && params.height < 2 * compute {
        return Err(DistError::Params(format!(
            "{} compute ranks need ≥ {} rows for 2-row halos, grid has {}",
            compute,
            2 * compute,
            params.height
        )));
    }
    let spec = Lattice {
        config,
        space,
        restored,
    };
    let (rank0, messages_sent) =
        driver::launch(spec.config.ranks, &spec.config.faults.clone(), spec)?;
    let st = rank0.state;
    Ok(SpatialOutcome {
        features: st.grid.iter().map(|&id| st.pool.get(id).feature_vector()).collect(),
        grid: st.grid,
        stats: st.stats,
        records: st.records,
        messages_sent,
        checkpoint: rank0.periodic,
    })
}

/// The lattice protocol: the run's configuration, its `params` already the
/// ones driving the run, the validated state space and, on resume, the
/// checkpoint's decoded strategy tables — shipped into the cluster closure
/// once.
struct Lattice {
    config: SpatialDistConfig,
    space: StateSpace,
    restored: Option<(StrategyPool, Vec<StratId>)>,
}

/// One rank's share of the lattice.
struct RankState {
    pool: StrategyPool,
    /// Full-size grid, row-major. A compute rank keeps only its owned
    /// rows + exchanged halo rows fresh; rank 0's copy is refreshed by
    /// boundary gathers.
    grid: Vec<StratId>,
    /// Full-size payoff field; a compute rank fills only the rows its
    /// decide phase reads.
    payoffs: Vec<f64>,
    stats: RunStats,
    /// Rank 0 only: the records of the generations run so far.
    records: Vec<GenerationRecord>,
    /// This rank's payoff memo-cache (cost-only, never checkpointed).
    cache: PayoffCache,
    /// The owned rows' cells (empty on the coordinator).
    cells: std::ops::Range<usize>,
}

impl Generations for Lattice {
    type Msg = SpatialMsg;
    type State = RankState;
    type Checkpoint = SpatialCheckpoint;
    const BARRIER: SpatialMsg = SpatialMsg::Scalar(0.0);

    fn schedule(&self) -> Schedule<'_> {
        let start = self.config.resume.as_ref().map_or(0, |cp| cp.generation);
        Schedule {
            faults: &self.config.faults,
            checkpoint_every: self.config.checkpoint_every,
            generations: start..self.config.params.generations,
        }
    }

    fn init(&self, rank: Rank, ranks: usize) -> RankState {
        let spec = &self.config;
        // Every rank rebuilds the identical pool and initial grid locally —
        // the same construction (and, for random seeding, the same
        // `Domain::Init` streams) the shared backend uses, so ids and layout
        // replicate without an initialisation broadcast. Resume copies the
        // tables `run_spatial_distributed` decoded from the checkpoint.
        let (pool, grid) = match &self.restored {
            Some(tables) => tables.clone(),
            None => {
                let seeded =
                    spatial::SpatialPopulation::new(spec.params.clone(), spec.init.clone());
                (seeded.pool().clone(), seeded.grid().to_vec())
            }
        };
        let rows = owned_rows(rank, spec.params.height, ranks);
        RankState {
            payoffs: vec![0.0; grid.len()],
            pool,
            grid,
            stats: spec.resume.as_ref().map_or_else(RunStats::default, |cp| cp.stats),
            records: Vec::new(),
            cache: PayoffCache::new(spec.params.game),
            cells: rows.start * spec.params.width..rows.end * spec.params.width,
        }
    }

    fn step(
        &self,
        comm: &Comm<SpatialMsg>,
        coll: &Collective<'_, Comm<SpatialMsg>>,
        st: &mut RankState,
        generation: u64,
        whole: bool,
    ) -> Result<(), RankError> {
        let (rank, ranks) = (comm.rank(), comm.size());
        let is_coord = rank == 0;
        let compute = ranks - 1;
        let p = &self.config.params;
        let (w, h) = (p.width, p.height);
        let n = w * h;
        let lattice = p.lattice();
        let cells = st.cells.clone();
        let rows = (cells.start / w)..(cells.end / w);
        let frecv = |src: Rank, tag| driver::recv_from(comm, &self.config.faults, src, tag);

        // (1) Halo exchange: refresh the 2-ring of strategies around the
        // owned block. Skipped on the first post-init/post-resume
        // generation (the whole grid is fresh) and with a single compute
        // rank (it owns every row).
        if !is_coord && compute > 1 && generation > self.schedule().generations.start {
            // Ring neighbours among compute ranks, row-adjacent by
            // construction.
            let prev = if rank == 1 { ranks - 1 } else { rank - 1 };
            let next = if rank == ranks - 1 { 1 } else { rank + 1 };
            // A two-row block sends the same rows both ways.
            for (first_row, dst) in [(rows.start, prev), (rows.end - 2, next)] {
                comm.send(
                    dst,
                    HALO_TAG,
                    SpatialMsg::Halo {
                        first_row: first_row as u32,
                        cells: st.grid[first_row * w..(first_row + 2) * w].to_vec(),
                        generation,
                    },
                )?;
            }
            // Expected blocks: the previous rank's bottom two rows and the
            // next rank's top two. With two compute ranks both come from
            // the same peer, so match by row, not arrival order.
            let mut pending: Vec<(Rank, usize)> = vec![
                (prev, owned_rows(prev, h, ranks).end - 2),
                (next, owned_rows(next, h, ranks).start),
            ];
            pending.sort_unstable();
            pending.dedup();
            let mut by_src: Vec<(Rank, Vec<usize>)> = Vec::new();
            for (src, row) in pending {
                match by_src.iter_mut().find(|(s, _)| *s == src) {
                    Some((_, wants)) => wants.push(row),
                    None => by_src.push((src, vec![row])),
                }
            }
            for (src, mut wants) in by_src {
                while !wants.is_empty() {
                    match frecv(src, HALO_TAG)?.payload {
                        SpatialMsg::Halo {
                            first_row,
                            cells,
                            generation: g,
                        } => {
                            if g != generation {
                                // Stale fault-duplicated halo: discard.
                                continue;
                            }
                            let fr = first_row as usize;
                            if let Some(i) = wants.iter().position(|&r| r == fr) {
                                st.grid[fr * w..fr * w + cells.len()]
                                    .copy_from_slice(&cells);
                                wants.remove(i);
                            }
                        }
                        _ => return Err(RankError::Protocol("halo rows")),
                    }
                }
            }
        }

        // (2) Rank 0 plans the generation and broadcasts the plan — the
        // only per-generation collective; the plan carries no update
        // decision, so nothing else is broadcast.
        let msg = is_coord.then(|| {
            SpatialMsg::Plan(engine::graph_plan(GraphScope::of(&lattice, p.include_self), generation))
        });
        let plan = match coll.bcast(0, msg)? {
            SpatialMsg::Plan(pl) => pl,
            _ => return Err(RankError::Protocol("generation plan")),
        };
        if !matches!(plan.eval, EvalScope::Neighborhood(_)) {
            return Err(RankError::Protocol("neighborhood scope"));
        }

        if !is_coord {
            // (3) Payoffs for the owned rows plus the 1-ring halo rows the
            // decide phase reads; every value is the identical f64 the
            // shared backend computes for that cell.
            let mut ranges: Vec<std::ops::Range<usize>> = vec![cells.clone()];
            if compute > 1 {
                let top = (rows.start + h - 1) % h;
                let bottom = rows.end % h;
                ranges.push(top * w..(top + 1) * w);
                ranges.push(bottom * w..(bottom + 1) * w);
            }
            for range in ranges {
                let provided = LatticeProvider {
                    space: &self.space,
                    view: &lattice,
                    grid: &st.grid,
                    pool: &st.pool,
                    game: &p.game,
                    seed: p.seed,
                    kernel: GameKernel::Naive,
                    cache: Some(&st.cache),
                    range: range.clone(),
                }
                .provide(&plan);
                let FitnessView::Full(values) = provided.view else {
                    return Err(RankError::Protocol("full payoff field"));
                };
                st.payoffs[range].copy_from_slice(&values);
            }

            // (4) Decide + commit the owned cells. Counter-based
            // `Domain::Graph` streams make the decision a pure function of
            // (seed, cell, generation, payoffs) — no broadcast needed.
            let new_cells: Vec<StratId> = cells
                .clone()
                .map(|i| {
                    spatial::decide_cell(
                        &lattice,
                        p.update,
                        p.seed,
                        plan.generation,
                        i,
                        &|j| st.grid[j],
                        &|j| st.payoffs[j],
                    )
                })
                .collect();
            let adoptions = st.grid[cells.clone()]
                .iter()
                .zip(&new_cells)
                .filter(|(old, new)| old != new)
                .count() as u64;
            st.grid[cells.clone()].copy_from_slice(&new_cells);

            // (5) Per-generation summary to rank 0.
            let owned_payoffs = &st.payoffs[cells.clone()];
            comm.send(
                0,
                SUMMARY_TAG,
                SpatialMsg::Summary(Box::new(GenSummary {
                    generation,
                    row_sums: spatial::row_sums(owned_payoffs, w),
                    max: owned_payoffs.iter().cloned().fold(f64::MIN, f64::max),
                    distinct: census(&st.grid[cells.clone()]).ids().to_vec(),
                    adoptions,
                })),
            )?;
        } else {
            // Rank 0 assembles the record: row sums concatenate in rank
            // order = row order, so the fold is the canonical
            // `row_major_mean` reduction bit for bit.
            let mut row_sums: Vec<f64> = Vec::with_capacity(h);
            let mut max = f64::MIN;
            // Every rank's distinct ids, counted once below.
            let mut distinct: Vec<StratId> = Vec::new();
            let mut adoptions = 0u64;
            for src in 1..ranks {
                loop {
                    match frecv(src, SUMMARY_TAG)?.payload {
                        SpatialMsg::Summary(s) => {
                            if s.generation != generation {
                                continue; // stale duplicate
                            }
                            row_sums.extend_from_slice(&s.row_sums);
                            max = max.max(s.max);
                            distinct.extend_from_slice(&s.distinct);
                            adoptions += s.adoptions;
                            break;
                        }
                        _ => return Err(RankError::Protocol("generation summary")),
                    }
                }
            }
            let mean = row_sums.iter().sum::<f64>() / n as f64;
            let per_cell = p.neighborhood.offsets().len() as u64 + u64::from(p.include_self);
            st.stats.generations += 1;
            st.stats.fitness_evaluations += 1;
            st.stats.games_played += per_cell * n as u64;
            st.stats.adoptions += adoptions;
            st.records.push(GenerationRecord {
                generation,
                events: Vec::new(),
                mean_fitness: Some(mean),
                max_fitness: Some(max),
                distinct_strategies: census(&distinct).len(),
            });
        }

        // (6) Boundary gather — the only full-grid traffic. SPMD: every
        // rank gets the same `whole` from the frame.
        if whole {
            let block = SpatialMsg::OwnedRows {
                first_row: rows.start as u32,
                cells: st.grid[cells].to_vec(),
            };
            if let Some(blocks) = coll.gather(0, block)? {
                for b in blocks {
                    match b {
                        SpatialMsg::OwnedRows { first_row, cells } => {
                            let start = first_row as usize * w;
                            st.grid[start..start + cells.len()].copy_from_slice(&cells);
                        }
                        _ => return Err(RankError::Protocol("owned rows block")),
                    }
                }
            }
        }
        Ok(())
    }

    /// Call only with rank 0's grid freshly gathered.
    fn snapshot(&self, st: &RankState, generation: u64) -> SpatialCheckpoint {
        SpatialCheckpoint::capture(&self.config.params, generation, &st.pool, &st.grid, st.stats)
    }

    fn records(st: RankState) -> Vec<GenerationRecord> {
        st.records
    }

    /// Rank 0's gathered grid against a compute rank's live owned rows —
    /// the spatial analogue of the replicated-table divergence check.
    fn agrees(rank0: &RankState, st: &RankState) -> bool {
        rank0.grid[st.cells.clone()] == st.grid[st.cells.clone()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultAction, MessageFault, MessageFaults, RankKill};
    use evo_core::record::state_digest;
    use evo_core::spatial::{SpatialPopulation, SpatialUpdate};
    use ipd::game::GameConfig;
    use ipd::payoff::PayoffMatrix;

    fn params(seed: u64, size: usize, gens: u64, update: SpatialUpdate) -> SpatialParams {
        SpatialParams {
            width: size,
            height: size,
            game: GameConfig {
                rounds: 1,
                noise: 0.0,
                payoff: PayoffMatrix::from_rstp(1.0, 0.0, 1.85, 0.0),
            },
            update,
            generations: gens,
            seed,
            ..SpatialParams::default()
        }
    }

    fn shared_reference(
        p: &SpatialParams,
        init: &InitPattern,
    ) -> (Vec<GenerationRecord>, Vec<StratId>, RunStats, u64) {
        let mut pop = SpatialPopulation::new(p.clone(), init.clone());
        let records: Vec<GenerationRecord> =
            (0..p.generations).map(|_| pop.step()).collect();
        let snap = pop.snapshot();
        let digest = state_digest(&snap.assignments, &snap.features);
        (records, pop.grid().to_vec(), *pop.stats(), digest)
    }

    #[test]
    fn owned_rows_partition_covers_all_rows() {
        for (h, r) in [(12usize, 3usize), (16, 5), (6, 4), (100, 9), (8, 2)] {
            let mut owners = vec![0usize; h];
            for rank in 1..r {
                let rows = owned_rows(rank, h, r);
                assert!(r == 2 || rows.len() >= 2, "h={h} r={r}: block ≥ 2 rows");
                for row in rows {
                    owners[row] += 1;
                }
            }
            assert!(owners.iter().all(|&c| c == 1), "h={h} r={r}: {owners:?}");
            assert!(owned_rows(0, h, r).is_empty(), "coordinator owns nothing");
        }
    }

    #[test]
    fn distributed_matches_shared_backend_bit_for_bit() {
        for update in [SpatialUpdate::BestNeighbor, SpatialUpdate::Fermi { beta: 0.9 }] {
            let p = params(5, 12, 15, update);
            let init = InitPattern::RandomDefectors(0.4);
            let (ref_records, ref_grid, ref_stats, ref_digest) =
                shared_reference(&p, &init);
            for ranks in [2usize, 3, 4] {
                let out = run_spatial_distributed(&SpatialDistConfig::new(
                    p.clone(),
                    init.clone(),
                    ranks,
                ))
                .unwrap();
                assert_eq!(out.records, ref_records, "{update:?} ranks {ranks}: records");
                assert_eq!(out.grid, ref_grid, "{update:?} ranks {ranks}: grid");
                assert_eq!(out.stats, ref_stats, "{update:?} ranks {ranks}: stats");
                assert_eq!(
                    state_digest(&out.grid, &out.features),
                    ref_digest,
                    "{update:?} ranks {ranks}: state digest"
                );
            }
        }
    }

    /// Blocks of the two-row minimum on 3-wide tori, where every halo row
    /// is a whole owned block and the end ranks' halos wrap. Each block
    /// sends its one pair of rows both ways; when the bottom pair went to
    /// the previous rank as well, the next one waited for it forever.
    #[test]
    fn two_row_blocks_exchange_halos_both_ways() {
        for (height, ranks) in [(6usize, 4usize), (8, 5), (9, 3), (4, 3)] {
            let mut p = params(13, 3, 10, SpatialUpdate::Fermi { beta: 0.9 });
            p.height = height;
            let init = InitPattern::RandomDefectors(0.4);
            let (ref_records, ref_grid, ref_stats, _) = shared_reference(&p, &init);
            let mut cfg = SpatialDistConfig::new(p, init, ranks);
            cfg.faults.recv_timeout_ms = Some(10_000);
            let out = run_spatial_distributed(&cfg).unwrap();
            assert_eq!(out.records, ref_records, "3×{height} ranks {ranks}: records");
            assert_eq!(out.grid, ref_grid, "3×{height} ranks {ranks}: grid");
            assert_eq!(out.stats, ref_stats, "3×{height} ranks {ranks}: stats");
        }
    }

    #[test]
    fn von_neumann_and_iterated_games_distribute() {
        let mut p = params(9, 10, 10, SpatialUpdate::Fermi { beta: 1.3 });
        p.neighborhood = evo_core::graph::Neighborhood::VonNeumann4;
        p.mem_steps = 1;
        p.game = GameConfig {
            rounds: 16,
            ..GameConfig::default()
        };
        p.include_self = false;
        let init = InitPattern::RandomDefectors(0.5);
        let (ref_records, ref_grid, ref_stats, _) = shared_reference(&p, &init);
        for ranks in [2usize, 4] {
            let out =
                run_spatial_distributed(&SpatialDistConfig::new(p.clone(), init.clone(), ranks))
                    .unwrap();
            assert_eq!(out.records, ref_records, "ranks {ranks}");
            assert_eq!(out.grid, ref_grid, "ranks {ranks}");
            assert_eq!(out.stats, ref_stats, "ranks {ranks}");
        }
    }

    #[test]
    fn invalid_configs_are_params_errors() {
        let p = params(1, 6, 5, SpatialUpdate::BestNeighbor);
        let too_few = SpatialDistConfig::new(p.clone(), InitPattern::SingleDefector, 1);
        assert!(matches!(
            run_spatial_distributed(&too_few).unwrap_err(),
            DistError::Params(_)
        ));
        // 6 rows cannot give 4 compute ranks 2 rows each.
        let too_thin = SpatialDistConfig::new(p.clone(), InitPattern::SingleDefector, 5);
        let err = run_spatial_distributed(&too_thin).unwrap_err();
        let DistError::Params(msg) = err else {
            panic!("expected Params error");
        };
        assert!(msg.contains("halo"), "{msg}");
        let bad_init =
            SpatialDistConfig::new(p, InitPattern::RandomDefectors(1.5), 3);
        assert!(matches!(
            run_spatial_distributed(&bad_init).unwrap_err(),
            DistError::Params(_)
        ));
        // A resume checkpoint whose grid names a strategy the pool lacks is
        // rejected before any rank indexes with it.
        let good = params(1, 6, 5, SpatialUpdate::BestNeighbor);
        let mut hostile =
            spatial::SpatialPopulation::new(good.clone(), InitPattern::SingleDefector).checkpoint();
        hostile.grid[0] = 9999;
        let mut resumed = SpatialDistConfig::new(good, InitPattern::SingleDefector, 3);
        resumed.resume = Some(hostile);
        let DistError::Params(msg) = run_spatial_distributed(&resumed).unwrap_err() else {
            panic!("expected Params error");
        };
        assert!(msg.contains("unknown strategy id 9999"), "{msg}");
    }

    #[test]
    fn rank_kill_degrades_cleanly_with_checkpoint() {
        let mut cfg = SpatialDistConfig::new(
            params(19, 12, 30, SpatialUpdate::Fermi { beta: 1.0 }),
            InitPattern::RandomDefectors(0.4),
            4,
        );
        cfg.faults.kills = vec![RankKill {
            rank: 2,
            generation: 11,
        }];
        let err = run_spatial_distributed(&cfg).unwrap_err();
        let DistError::Degraded(d) = err else {
            panic!("expected SpatialDegradedRun");
        };
        assert!(d.dead_ranks.contains(&2), "dead ranks: {:?}", d.dead_ranks);
        assert!(d.completed <= 30);
        let cp = d.checkpoint.expect("fault-aware runs always checkpoint");
        assert_eq!(cp.generation, d.completed);
        assert_eq!(cp.schema_version, spatial::SPATIAL_CHECKPOINT_SCHEMA_VERSION);
    }

    #[test]
    fn degraded_run_resumes_bit_identical_to_uninterrupted() {
        let p = params(23, 10, 24, SpatialUpdate::Fermi { beta: 0.8 });
        let init = InitPattern::RandomDefectors(0.35);
        let clean =
            run_spatial_distributed(&SpatialDistConfig::new(p.clone(), init.clone(), 3))
                .unwrap();

        let mut cfg = SpatialDistConfig::new(p, init, 3);
        cfg.faults.kills = vec![RankKill {
            rank: 1,
            generation: 9,
        }];
        let DistError::Degraded(d) = run_spatial_distributed(&cfg).unwrap_err() else {
            panic!("expected degraded run");
        };
        let mut resumed_cfg = cfg.clone();
        resumed_cfg.faults = cfg.faults.spent();
        resumed_cfg.resume = Some(d.checkpoint.expect("checkpoint present"));
        let resume_from = resumed_cfg.resume.as_ref().unwrap().generation as usize;
        let resumed = run_spatial_distributed(&resumed_cfg).unwrap();

        assert_eq!(resumed.grid, clean.grid, "final grid");
        assert_eq!(resumed.stats, clean.stats, "full RunStats");
        assert_eq!(
            resumed.records,
            clean.records[resume_from..].to_vec(),
            "record tail from generation {resume_from}"
        );
    }

    #[test]
    fn periodic_checkpoint_resumes_bit_identical_across_backends() {
        // Kill the distributed run's checkpoint into the *shared* backend
        // and vice versa: the checkpoint schema is one format.
        let p = params(29, 9, 20, SpatialUpdate::BestNeighbor);
        let init = InitPattern::RandomDefectors(0.3);
        let (ref_records, ref_grid, ref_stats, _) = shared_reference(&p, &init);

        let mut cfg = SpatialDistConfig::new(p.clone(), init, 3);
        cfg.checkpoint_every = Some(8);
        let out = run_spatial_distributed(&cfg).unwrap();
        assert_eq!(out.grid, ref_grid, "checkpointing is inert");
        let cp = out.checkpoint.expect("periodic checkpoint present");
        assert_eq!(cp.generation, 16, "latest multiple of 8 within 20");

        // Resume distributed.
        let mut resumed_cfg = SpatialDistConfig::new(
            cp.params.clone(),
            InitPattern::SingleDefector, // ignored on resume
            4,                           // a different rank count, deliberately
        );
        resumed_cfg.resume = Some(cp.clone());
        let resumed = run_spatial_distributed(&resumed_cfg).unwrap();
        assert_eq!(resumed.grid, ref_grid);
        assert_eq!(resumed.stats, ref_stats);
        assert_eq!(resumed.records, ref_records[16..].to_vec());

        // Resume shared from the distributed checkpoint.
        let mut pop = SpatialPopulation::restore(cp).unwrap();
        let tail: Vec<GenerationRecord> = (16..20).map(|_| pop.step()).collect();
        assert_eq!(tail, ref_records[16..].to_vec());
        assert_eq!(pop.grid(), &ref_grid[..]);
        assert_eq!(*pop.stats(), ref_stats);
    }

    #[test]
    fn duplicate_message_faults_leave_trajectory_bit_identical() {
        let p = params(31, 10, 15, SpatialUpdate::Fermi { beta: 1.1 });
        let init = InitPattern::RandomDefectors(0.45);
        let clean =
            run_spatial_distributed(&SpatialDistConfig::new(p.clone(), init.clone(), 4))
                .unwrap();
        let mut cfg = SpatialDistConfig::new(p, init, 4);
        cfg.faults.messages = MessageFaults {
            faults: (0..10)
                .map(|i| MessageFault {
                    src: 1 + (i % 3) as usize,
                    nth_send: (i * 4) as u64,
                    action: FaultAction::Duplicate,
                })
                .collect(),
        };
        let out = run_spatial_distributed(&cfg).unwrap();
        assert_eq!(out.records, clean.records);
        assert_eq!(out.grid, clean.grid);
        assert_eq!(out.stats, clean.stats);
    }

    #[test]
    fn dropped_message_degrades_instead_of_hanging() {
        let mut cfg = SpatialDistConfig::new(
            params(37, 10, 20, SpatialUpdate::Fermi { beta: 1.0 }),
            InitPattern::RandomDefectors(0.4),
            3,
        );
        cfg.faults.messages = MessageFaults {
            faults: vec![MessageFault {
                src: 1,
                nth_send: 7,
                action: FaultAction::Drop,
            }],
        };
        cfg.faults.recv_timeout_ms = Some(200);
        match run_spatial_distributed(&cfg) {
            Err(DistError::Degraded(d)) => {
                assert!(d.checkpoint.is_some(), "degraded run leaves a checkpoint");
            }
            Ok(_) => {
                // Tolerated loss; the property under test is "no hang".
            }
            Err(other) => panic!("expected degraded or clean, got {other}"),
        }
    }
}
