//! Rank-sharded spatial games: contiguous lattice row partitions with
//! halo exchange (docs/GRAPH.md).
//!
//! The well-mixed distributed engine (`super`) replicates the whole
//! strategy table because any SSet may interact with any other. A lattice
//! interacts only locally, so the paper's decomposition tightens: rank 0
//! coordinates (records, checkpoints) and owns no cells; compute ranks
//! `1..P` own contiguous *row blocks* of the torus and per generation
//! exchange only their two boundary rows with the ring-adjacent ranks —
//! never the full grid. One generation:
//!
//! 1. compute ranks swap halos: each sends its top-2/bottom-2 owned rows
//!    to the previous/next compute rank (wrapping), refreshing the 2-ring
//!    of strategies its payoff phase reads;
//! 2. each compute rank computes the generation's plan itself
//!    ([`engine::graph_plan`] — a neighbourhood evaluation; pure in the
//!    generation, draws nothing), so nothing is broadcast;
//! 3. each compute rank runs the shared backend's generation body,
//!    [`SpatialPopulation::play_rows`], over its owned rows on its own copy
//!    of the population: payoffs for those rows plus the 1-ring halo rows,
//!    then every owned cell decided and committed. The per-cell
//!    `Domain::Graph` streams are counter-based, so the update needs **no
//!    decision broadcast** — `graph_plan()` schedules no Nature event;
//! 4. each compute rank sends rank 0 the body's [`GenSummary`] (owned row
//!    sums, max, distinct ids, adoptions); rank 0 folds the summaries in
//!    row order with [`SpatialPopulation::fold`], the fold behind every
//!    shared step, so its [`GenerationRecord`] and `RunStats` are the
//!    shared backend's.
//!
//! Rank 0 therefore sends nothing between the setup and teardown barriers.
//! Halos and summaries carry their generation and arrive through the one
//! stamped receive (`driver::Inbox::recv_stamped`).
//!
//! Full-grid gathers happen only at generation boundaries that need a
//! consistent snapshot: while a fault plan is active, at
//! `checkpoint_every` points, and at the end of the run. Which boundaries
//! those are, and fault handling (docs/FAULT_TOLERANCE.md), is the
//! generation frame's in `driver`; this file keeps one generation's body.

use super::driver::{self, Generations, Inbox, RankError, Schedule};
use super::{Degraded, DistError};
use crate::collective::{Collective, Messenger};
use crate::comm::Rank;
use crate::faults::FaultPlan;
use evo_core::engine;
use evo_core::graph::GraphScope;
use evo_core::pool::StratId;
use evo_core::record::{GenerationRecord, RunStats};
use evo_core::spatial::{
    GenSummary, InitPattern, SpatialCheckpoint, SpatialParams, SpatialPopulation,
};
use serde::{Deserialize, Serialize};

/// Point-to-point tag for halo row exchanges.
const HALO_TAG: crate::comm::Tag = 2;
/// Point-to-point tag for per-generation summaries to rank 0.
const SUMMARY_TAG: crate::comm::Tag = 3;

/// Messages exchanged by the spatial distributed engine.
#[derive(Debug, Clone)]
enum SpatialMsg {
    /// Point-to-point halo: two consecutive fresh rows of the sender's
    /// owned block, stamped with their generation.
    Halo {
        first_row: u32,
        cells: Vec<StratId>,
        generation: u64,
    },
    /// Point-to-point: one compute rank's per-generation summary, stamped
    /// with its own generation.
    Summary(Box<GenSummary>),
    /// Gather leaf: one rank's owned rows (boundary snapshots and the
    /// final state — the only times the full grid travels).
    OwnedRows { first_row: u32, cells: Vec<StratId> },
    /// The setup and teardown barriers' token.
    Barrier,
}

impl driver::Stamped for SpatialMsg {
    fn stamp(&self) -> Option<u64> {
        match self {
            SpatialMsg::Halo { generation, .. } => Some(*generation),
            SpatialMsg::Summary(s) => Some(s.generation),
            SpatialMsg::OwnedRows { .. } | SpatialMsg::Barrier => None,
        }
    }
}

/// Configuration of a distributed spatial run. Mirrors
/// [`super::DistConfig`]: the defaults are a fault-free, checkpoint-free
/// run from generation zero.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SpatialDistConfig {
    /// Lattice parameters (shared with [`SpatialPopulation`];
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
/// bit-identical to [`SpatialPopulation`] run shared-memory: the
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
    let restored = match &config.resume {
        Some(cp) => Some(
            SpatialPopulation::restore(cp.clone()).map_err(|e| DistError::Params(e.to_string()))?,
        ),
        None => {
            params.validate().map_err(DistError::Params)?;
            config.init.validate(params).map_err(DistError::Params)?;
            None
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
    // Every rank starts from a copy of this population: the shared
    // backend's construction (and, for random seeding, its `Domain::Init`
    // streams) or the checkpoint's tables, so ids and layout replicate
    // without an initialisation broadcast.
    let start =
        restored.unwrap_or_else(|| SpatialPopulation::new(params.clone(), config.init.clone()));
    let spec = Lattice { config, start };
    let (rank0, messages_sent) =
        driver::launch(spec.config.ranks, &spec.config.faults.clone(), spec)?;
    let st = rank0.state;
    let snap = st.pop.snapshot();
    Ok(SpatialOutcome {
        grid: snap.assignments,
        features: snap.features,
        stats: *st.pop.stats(),
        records: st.records,
        messages_sent,
        checkpoint: rank0.periodic,
    })
}

/// The lattice protocol: the run's configuration, its `params` already the
/// ones driving the run, and the population every rank starts from —
/// shipped into the cluster closure once.
struct Lattice {
    config: SpatialDistConfig,
    start: SpatialPopulation,
}

/// One rank's share of the lattice.
struct RankState {
    /// This rank's copy of the population. A compute rank keeps only its
    /// owned rows and exchanged halo rows fresh, and never folds; rank 0's
    /// grid is refreshed by boundary gathers, and its folds account the
    /// run's `RunStats`. Each copy has its own payoff cache (cost-only,
    /// never checkpointed).
    pop: SpatialPopulation,
    /// Rank 0 only: the records of the generations run so far.
    records: Vec<GenerationRecord>,
    /// The owned rows (empty on the coordinator).
    rows: std::ops::Range<usize>,
}

impl Generations for Lattice {
    type Msg = SpatialMsg;
    type State = RankState;
    type Checkpoint = SpatialCheckpoint;
    const BARRIER: SpatialMsg = SpatialMsg::Barrier;

    fn schedule(&self) -> Schedule<'_> {
        Schedule {
            faults: &self.config.faults,
            checkpoint_every: self.config.checkpoint_every,
            generations: self.start.generation()..self.config.params.generations,
        }
    }

    fn init(&self, rank: Rank, ranks: usize) -> RankState {
        RankState {
            pop: self.start.clone(),
            records: Vec::new(),
            rows: owned_rows(rank, self.config.params.height, ranks),
        }
    }

    fn step<C: Messenger<Payload = SpatialMsg>>(
        &self,
        coll: &Collective<'_, C>,
        inbox: &mut Inbox<SpatialMsg>,
        st: &mut RankState,
        generation: u64,
        whole: bool,
    ) -> Result<(), RankError> {
        let comm = coll.comm();
        let (rank, ranks) = (comm.rank(), comm.size());
        let compute = ranks - 1;
        let p = &self.config.params;
        let (w, h) = (p.width, p.height);
        let rows = st.rows.clone();

        if rank != 0 {
            // (1) Halo exchange: refresh the 2-ring of strategies around the
            // owned block. Skipped on the first post-init/post-resume
            // generation (the whole grid is fresh) and with a single
            // compute rank (it owns every row).
            if compute > 1 && generation > self.start.generation() {
                // Ring neighbours among compute ranks, row-adjacent by
                // construction.
                let prev = if rank == 1 { ranks - 1 } else { rank - 1 };
                let next = if rank == ranks - 1 { 1 } else { rank + 1 };
                // A two-row block sends the same rows both ways.
                for (first_row, dst) in [(rows.start, prev), (rows.end - 2, next)] {
                    let cells = st.pop.grid()[first_row * w..(first_row + 2) * w].to_vec();
                    let halo = SpatialMsg::Halo { first_row: first_row as u32, cells, generation };
                    comm.send(dst, HALO_TAG, halo)?;
                }
                // Expected: the previous rank's bottom two rows and the next
                // rank's top two. With two compute ranks both come from the
                // same peer (the same pair when it owns two rows), so a
                // halo fills whichever wanted rows it names.
                let mut wants = vec![
                    (prev, owned_rows(prev, h, ranks).end - 2),
                    (next, owned_rows(next, h, ranks).start),
                ];
                wants.dedup();
                while let Some(&(src, _)) = wants.first() {
                    let SpatialMsg::Halo { first_row, cells, .. } =
                        inbox.recv_stamped(comm, src, HALO_TAG, generation)?
                    else {
                        return Err(RankError::Protocol("halo rows"));
                    };
                    if let Some(i) = wants.iter().position(|&want| want == (src, first_row as usize)) {
                        st.pop.write_rows(first_row as usize, &cells);
                        wants.remove(i);
                    }
                }
            }

            // (2) The rank plans the generation itself: the plan is pure
            // and draws nothing. (3) The shared backend's generation body
            // over the owned rows, and (4) its summary to rank 0.
            let plan = engine::graph_plan(GraphScope::of(st.pop.lattice(), p.include_self), generation);
            let summary = st.pop.play_rows(&plan, rows.clone());
            comm.send(0, SUMMARY_TAG, SpatialMsg::Summary(Box::new(summary)))?;
        } else {
            // (5) Rank 0 folds the summaries in rank order = row order, with
            // the fold behind every shared step.
            let mut blocks = Vec::with_capacity(compute);
            for src in 1..ranks {
                let SpatialMsg::Summary(summary) = inbox.recv_stamped(comm, src, SUMMARY_TAG, generation)? else {
                    return Err(RankError::Protocol("generation summary"));
                };
                blocks.push(*summary);
            }
            st.records.push(st.pop.fold(&blocks));
        }

        // (6) Boundary gather — the only full-grid traffic. SPMD: every
        // rank gets the same `whole` from the frame.
        if whole {
            let block = SpatialMsg::OwnedRows {
                first_row: rows.start as u32,
                cells: st.pop.grid()[rows.start * w..rows.end * w].to_vec(),
            };
            if let Some(blocks) = coll.gather(0, block)? {
                for b in blocks {
                    match b {
                        SpatialMsg::OwnedRows { first_row, cells } => {
                            st.pop.write_rows(first_row as usize, &cells);
                        }
                        _ => return Err(RankError::Protocol("owned rows block")),
                    }
                }
            }
        }
        Ok(())
    }

    /// Call only with rank 0's grid freshly gathered. Rank 0's folds keep
    /// its population's generation at the frame's.
    fn snapshot(&self, st: &RankState, generation: u64) -> SpatialCheckpoint {
        debug_assert_eq!(st.pop.generation(), generation);
        st.pop.checkpoint()
    }

    fn records(st: RankState) -> Vec<GenerationRecord> {
        st.records
    }

    /// Rank 0's gathered grid against a compute rank's live owned rows —
    /// the spatial analogue of the replicated-table divergence check.
    fn agrees(rank0: &RankState, st: &RankState) -> bool {
        let w = st.pop.params().width;
        let cells = st.rows.start * w..st.rows.end * w;
        rank0.pop.grid()[cells.clone()] == st.pop.grid()[cells]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultAction, MessageFault, MessageFaults, RankKill};
    use evo_core::record::state_digest;
    use evo_core::spatial::{self, SpatialUpdate};
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
            SpatialPopulation::new(good.clone(), InitPattern::SingleDefector).checkpoint();
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

    /// How many messages `rank` sends in the binomial broadcast rooted at
    /// rank 0 over `ranks` ranks: one to each child `rank + m`, for the
    /// powers of two `m` below `rank`'s lowest set bit.
    fn bcast_children(rank: usize, ranks: usize) -> u64 {
        let low = if rank == 0 { ranks.next_power_of_two() } else { 1 << rank.trailing_zeros() };
        (0..usize::BITS).map(|k| 1usize << k).take_while(|&m| m < low).filter(|&m| rank + m < ranks).count() as u64
    }

    /// A run's messages are its two barriers (a reduce and a broadcast,
    /// `ranks − 1` messages each), each compute rank's summary per
    /// generation, its two halos per generation after the first when there
    /// is more than one compute rank, and one gather leaf per rank at each
    /// boundary that needs the whole grid. Rank 0 sends only its share of
    /// the barriers' broadcasts.
    #[test]
    fn messages_are_the_barriers_plus_summaries_halos_and_boundary_gathers() {
        let gens = 10u64;
        let p = params(41, 8, gens, SpatialUpdate::Fermi { beta: 1.0 });
        let init = InitPattern::RandomDefectors(0.4);
        for ranks in [2u64, 3, 4] {
            let compute = ranks - 1;
            let halos = if compute > 1 { 2 * compute * (gens - 1) } else { 0 };
            for (every, gathers) in [(None, 1), (Some(4), 3), (Some(5), 2)] {
                let mut cfg = SpatialDistConfig::new(p.clone(), init.clone(), ranks as usize);
                cfg.checkpoint_every = every;
                let out = run_spatial_distributed(&cfg).unwrap();
                let expected = 4 * (ranks - 1) + gens * compute + halos + gathers * (ranks - 1);
                assert_eq!(out.messages_sent, expected, "{ranks} ranks, checkpoint every {every:?}");
            }

            // Rank 0's first send after the setup barrier is dropped. Were
            // it a message of some generation, a compute rank would wait on
            // it and the run would degrade; it is the teardown barrier's
            // broadcast, which rank 0's outcome does not wait on.
            let clean = run_spatial_distributed(&SpatialDistConfig::new(p.clone(), init.clone(), ranks as usize))
                .unwrap();
            let mut cfg = SpatialDistConfig::new(p.clone(), init.clone(), ranks as usize);
            cfg.faults.messages = MessageFaults {
                faults: vec![MessageFault {
                    src: 0,
                    nth_send: bcast_children(0, ranks as usize),
                    action: FaultAction::Drop,
                }],
            };
            cfg.faults.recv_timeout_ms = Some(100);
            let out = run_spatial_distributed(&cfg)
                .unwrap_or_else(|e| panic!("{ranks} ranks: rank 0 sent mid-run: {e}"));
            assert_eq!(out.records, clean.records, "{ranks} ranks");
            assert_eq!(out.grid, clean.grid, "{ranks} ranks");
        }
    }

    /// One delay on each send a compute rank makes between the barriers —
    /// halos, summaries and the boundary gathers a fault plan turns on
    /// every generation — leaves the run bit-identical. Rank 0 makes no
    /// such send.
    #[test]
    fn a_delay_on_any_non_barrier_send_leaves_the_trajectory_bit_identical() {
        let gens = 15u64;
        let p = params(31, 10, gens, SpatialUpdate::Fermi { beta: 1.1 });
        let init = InitPattern::RandomDefectors(0.45);
        for ranks in [2usize, 3, 4] {
            let clean = run_spatial_distributed(&SpatialDistConfig::new(p.clone(), init.clone(), ranks)).unwrap();
            let halos = if ranks > 2 { 2 * (gens - 1) } else { 0 };
            let mid_run = halos + 2 * gens;
            for src in 1..ranks {
                let setup = 1 + bcast_children(src, ranks);
                for nth_send in setup..setup + mid_run {
                    let mut cfg = SpatialDistConfig::new(p.clone(), init.clone(), ranks);
                    cfg.faults.messages = MessageFaults {
                        faults: vec![MessageFault { src, nth_send, action: FaultAction::Delay }],
                    };
                    cfg.faults.recv_timeout_ms = Some(300);
                    let label = format!("{ranks} ranks, delay on rank {src}'s send {nth_send}");
                    let out = run_spatial_distributed(&cfg).unwrap_or_else(|e| panic!("{label}: {e}"));
                    assert_eq!(out.records, clean.records, "{label}");
                    assert_eq!(out.grid, clean.grid, "{label}");
                    assert_eq!(out.stats, clean.stats, "{label}");
                }
            }
        }
    }

    #[test]
    fn a_plan_that_can_lose_a_message_needs_a_deadline() {
        for action in [FaultAction::Drop, FaultAction::Delay] {
            let mut cfg = SpatialDistConfig::new(
                params(37, 10, 20, SpatialUpdate::Fermi { beta: 1.0 }),
                InitPattern::RandomDefectors(0.4),
                3,
            );
            cfg.faults.messages = MessageFaults {
                faults: vec![MessageFault { src: 1, nth_send: 7, action }],
            };
            let err = run_spatial_distributed(&cfg).unwrap_err();
            assert!(matches!(err, DistError::Params(_)), "{action:?}: {err}");
        }
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
