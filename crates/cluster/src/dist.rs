//! The distributed engine: the paper's Blue Gene mapping on the virtual
//! cluster (§V).
//!
//! Rank 0 is the **Nature Agent**; every other rank owns a contiguous block
//! of SSets and keeps a full local copy of the strategy table ("all nodes
//! need to maintain an up to date view of the strategies assigned to all
//! other SSets", §V-B). Every rank runs the Nature Agent on its own
//! replica: the counter-based streams let each rank "calculate its position
//! individually" (§V), so one generation drives the three phases of the
//! engine core (`evo_core::engine`, docs/ENGINE_CORE.md) on every rank:
//!
//! 1. every rank computes the generation's [`GenPlan`] itself — it is pure
//!    in `(seed, generation)`, so nothing is broadcast;
//! 2. compute ranks run their owned SSets' games locally — "handled locally
//!    with no communication" (§V-A) — and move only what the plan needs:
//!    the owner of a selected teacher or learner **pushes** that fitness to
//!    every other rank, and under full-vector rules (Moran, ImitateBest)
//!    each compute rank pushes its owned block to every other rank. A
//!    generation that schedules no comparison sends nothing;
//! 3. every rank resolves the plan against those values — drawing any
//!    mutant from `Domain::Mutation` itself — and commits the decision to
//!    its own table. Rank 0 keeps the events and the authoritative
//!    `RunStats`.
//!
//! This departs from the paper's §V-B, where rank 0 broadcasts the pair and
//! the update: the same streams give every rank the same decision, so such
//! a broadcast would carry nothing a rank cannot compute, and a PC
//! generation waits on one hop (owner → every rank), not two.
//!
//! Because every phase is the engine core's own code driven by the same
//! counter-based streams as the shared-memory engine, the distributed run
//! produces the *identical* trajectory — events, assignments, fitness bits,
//! and `RunStats` — for all three update rules; the integration tests
//! assert this rank-count by rank-count.
//!
//! A rank scores its owned SSets through the shared engine's own
//! evaluation, [`PairPayoff::evaluate_rows`], with its owned block and its
//! [`TableMemo`] (docs/PERFORMANCE.md §2.2); this file moves the values.
//!
//! # Fault tolerance
//!
//! The engine is built to terminate with a *typed* outcome under any
//! [`FaultPlan`] — never a panic, never a hang (docs/FAULT_TOLERANCE.md):
//!
//! - every receive is either source-filtered (aliveness-aware: a killed
//!   peer surfaces as [`ClusterError::RankDead`]) or deadline-bound
//!   (`FaultPlan::recv_timeout_ms`, surfacing lost messages as
//!   [`ClusterError::Timeout`]);
//! - every point-to-point message names its unit (a generation; a
//!   replicate for fixation) and arrives through one stamped receive
//!   shared by all three families: an earlier stamp is a fault duplicate
//!   and is dropped, a later one waits in the rank's stash for its unit;
//! - any rank that fails **kills itself** before returning, so the failure
//!   cascades: peers blocked on it unblock with `RankDead` within one
//!   generation instead of deadlocking;
//! - a push to a rank that is already dead is not the sender's failure: a
//!   rank learns of a death only through a receive it needs, or at the
//!   teardown barrier. A killed rank therefore degrades the run at the
//!   first generation at or after the kill whose need includes one of its
//!   SSets — a pure function of the plan, the same on every run;
//! - a degraded run surfaces a generation-boundary [`Checkpoint`] in the
//!   [`DegradedRun`] it returns, and resuming from it reproduces the
//!   uninterrupted trajectory bit for bit.
//!
//! All of that is the `driver` module's — the launch, kill cascade and
//! degraded payload shared with the lattice ([`graph`]) and fixation
//! ([`fixation`]) runners, and the generation frame (boundary snapshots,
//! kill checks, periodic checkpoints, teardown) shared with the lattice;
//! this file keeps one well-mixed generation's body.
//!
//! The frame and this body are generic over the [`Messenger`], so
//! [`run_distributed_timed`] runs and prices the same protocol on
//! virtual-time ranks. Under `OnDemand` the pair's two owners alone play
//! its games, which [`crate::perf`] instead divides over all the ranks.

mod driver;
pub mod fixation;
pub mod graph;

pub use driver::Degraded;

use crate::collective::{Collective, Messenger};
use crate::comm::{ClusterError, Rank};
use crate::faults::FaultPlan;
use crate::perf::MachineProfile;
use crate::simtime::NetCosts;
use driver::{Generations, Inbox, RankError, Schedule};
use evo_core::engine::{self, EvalScope, FitnessNeed, FitnessView, GenPlan, Provided};
use evo_core::fitness::{FitnessPolicy, PairPayoff, Rows, TableMemo};
use evo_core::nature::{Event, NatureAgent};
use evo_core::params::Params;
use evo_core::paycache::{PayoffCache, PayoffKind};
use evo_core::pool::{StratId, StrategyPool};
use evo_core::population::initial_tables;
use evo_core::record::{Checkpoint, RunStats};
use ipd::state::StateSpace;
use serde::{Deserialize, Serialize};

/// Point-to-point tag for fitness pushes (collective tags live in their
/// own range, see `collective.rs`).
const FITNESS_TAG: crate::comm::Tag = 1;

/// Messages exchanged by the distributed engine.
#[derive(Debug, Clone)]
enum DistMsg {
    /// Point-to-point push from an owner to every other rank: the fitness
    /// of SSets `start..start + values.len()` — one SSet of a selected
    /// pair, or a compute rank's owned block — stamped with its generation
    /// (`driver::Inbox::recv_stamped`).
    Fitness { start: u32, values: Vec<f64>, generation: u64 },
    /// The setup and teardown barriers' token.
    Barrier,
}

impl driver::Stamped for DistMsg {
    fn stamp(&self) -> Option<u64> {
        match self {
            DistMsg::Fitness { generation, .. } => Some(*generation),
            DistMsg::Barrier => None,
        }
    }
}

/// Configuration of a distributed run. Construct with [`DistConfig::new`]
/// and set the optional fault-tolerance fields as needed; the defaults are
/// a fault-free, checkpoint-free run from generation zero.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DistConfig {
    /// Engine parameters (shared with the shared-memory engine).
    pub params: Params,
    /// Total ranks including the Nature Agent (rank 0); ≥ 2.
    pub ranks: usize,
    /// When compute ranks evaluate fitness. `OnDemand` computes only the
    /// teacher's and learner's fitness in generations with a PC event —
    /// the configuration that makes Blue Gene-scale weak scaling feasible
    /// (see DESIGN.md §5, Fig 6/7 discussion).
    pub policy: FitnessPolicy,
    /// Deterministic fault schedule to execute (empty = fault-free; an
    /// empty plan leaves the run bit-identical to one without fault
    /// support).
    #[serde(default)]
    pub faults: FaultPlan,
    /// Have rank 0 refresh a restartable [`Checkpoint`] every N completed
    /// generations, surfaced as [`DistOutcome::checkpoint`].
    #[serde(default)]
    pub checkpoint_every: Option<u64>,
    /// Resume from a checkpoint instead of initialising at generation
    /// zero. The checkpoint's own `params` drive the run (they carry the
    /// seed and generation target of the original run); `params` above is
    /// ignored when this is set.
    #[serde(default)]
    pub resume: Option<Checkpoint>,
    /// Disable the per-rank cross-generation payoff memo-cache
    /// ([`PayoffCache`], docs/PERFORMANCE.md §2.3). Caching is on by
    /// default and is cost-only — trajectories and message schedules are
    /// bit-identical either way. No front-end sets it: its one caller is
    /// the ledger's `cluster.perf.pred_ratio` check, which times the
    /// uncached run because `cluster::perf`'s LogGP model knows no cache
    /// (ROADMAP item 5).
    #[serde(default)]
    pub disable_payoff_cache: bool,
}

impl DistConfig {
    /// A fault-free, checkpoint-free run from generation zero — the
    /// configuration every pre-fault-tolerance caller used.
    pub fn new(params: Params, ranks: usize, policy: FitnessPolicy) -> Self {
        DistConfig {
            params,
            ranks,
            policy,
            faults: FaultPlan::default(),
            checkpoint_every: None,
            resume: None,
            disable_payoff_cache: false,
        }
    }
}

/// Result of a distributed run.
#[derive(Debug, Clone)]
pub struct DistOutcome {
    /// Final strategy id per SSet (ids are pool-consistent with the
    /// shared-memory engine's, as updates intern in the same order).
    pub assignments: Vec<StratId>,
    /// Final per-SSet strategy feature vectors.
    pub features: Vec<Vec<f64>>,
    /// Aggregate event statistics (as counted by the Nature Agent).
    pub stats: RunStats,
    /// Total point-to-point messages the run sent (collectives included —
    /// they are built from point-to-point sends).
    pub messages_sent: u64,
    /// Events per generation, in order (for trajectory comparison). A
    /// resumed run reports only the generations it executed.
    pub events: Vec<Vec<Event>>,
    /// Per-generation wall times (ns) observed by the Nature Agent.
    /// Empty unless the observability timing layer ([`obs::set_enabled`])
    /// was on; capped at [`obs::GENERATION_TIMING_CAP`] entries.
    pub generation_ns: Vec<u64>,
    /// The most recent periodic checkpoint (`Some` only when
    /// [`DistConfig::checkpoint_every`] was set and at least one interval
    /// completed).
    pub checkpoint: Option<Checkpoint>,
}

/// A degraded well-mixed run: the restartable snapshot is a [`Checkpoint`].
pub type DegradedRun = Degraded<Checkpoint>;

/// Typed failure of a distributed run — what every `expect`/`panic!` in
/// the old message loop became. `C` is the checkpoint type of the family
/// that ran ([`Checkpoint`] here, [`evo_core::spatial::SpatialCheckpoint`]
/// for [`graph::run_spatial_distributed`],
/// [`evo_core::fixation::FixationCheckpoint`] for
/// [`fixation::run_fixation_distributed`]).
#[derive(Debug, Clone, PartialEq)]
pub enum DistError<C = Checkpoint> {
    /// Parameter validation failed before any rank was spawned.
    Params(String),
    /// A communication primitive failed in a context with no degraded-mode
    /// recovery (e.g. rank 0's result never materialised).
    Cluster(ClusterError),
    /// A rank received a message of an unexpected kind — a protocol bug,
    /// not a fault-model outcome.
    Protocol {
        /// The rank that observed the unexpected message.
        rank: Rank,
        /// What the protocol expected at that point.
        expected: &'static str,
    },
    /// A compute rank's replicated state diverged from rank 0's at the end
    /// of a fault-free run — the replication protocol itself is broken (a
    /// rank decided from a fitness push of another generation or SSet, a
    /// stale halo), so the trajectory cannot be trusted.
    ReplicaDivergence {
        /// The first compute rank whose state diverged.
        rank: Rank,
    },
    /// The run degraded: a peer failure was detected and survived. The
    /// boxed [`Degraded`] carries the restartable checkpoint.
    Degraded(Box<Degraded<C>>),
}

impl<C> std::fmt::Display for DistError<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistError::Params(e) => write!(f, "invalid parameters: {e}"),
            DistError::Cluster(e) => write!(f, "communication failed: {e}"),
            DistError::Protocol { rank, expected } => {
                write!(f, "protocol violation at rank {rank}: expected {expected}")
            }
            DistError::ReplicaDivergence { rank } => write!(
                f,
                "rank {rank} diverged from the Nature Agent's strategy table in a fault-free run"
            ),
            DistError::Degraded(d) => write!(
                f,
                "run degraded after {} generations or replicates (dead ranks {:?}): {}",
                d.completed, d.dead_ranks, d.reason
            ),
        }
    }
}

impl<C: std::fmt::Debug> std::error::Error for DistError<C> {}

impl<C> From<ClusterError> for DistError<C> {
    fn from(e: ClusterError) -> Self {
        DistError::Cluster(e)
    }
}

/// Owner rank of `sset` under a balanced block distribution over compute
/// ranks `1..ranks`.
pub fn owner_of(sset: usize, num_ssets: usize, ranks: usize) -> usize {
    assert!(ranks >= 2, "need the Nature Agent plus at least one compute rank");
    // Inverse of the balanced block partition used by `owned_range`.
    let compute = ranks - 1;
    1 + ((sset + 1) * compute - 1) / num_ssets
}

/// The SSets owned by `rank` (empty for rank 0, the Nature Agent).
pub fn owned_range(rank: usize, num_ssets: usize, ranks: usize) -> std::ops::Range<usize> {
    if rank == 0 {
        return 0..0;
    }
    // Standard balanced block partition: [r·n/c, (r+1)·n/c).
    let compute = ranks - 1;
    let r = rank - 1;
    (r * num_ssets / compute)..((r + 1) * num_ssets / compute)
}

/// The well-mixed protocol: the run's configuration (its `params` already
/// the ones driving the run), the validated state space, the Nature Agent
/// and, on resume, the checkpoint's decoded strategy tables — shipped into
/// the cluster closure once.
struct WellMixed {
    config: DistConfig,
    space: StateSpace,
    nature: NatureAgent,
    restored: Option<(StrategyPool, Vec<StratId>)>,
    /// Virtual seconds a rank charges per game it evaluates.
    game_cost: f64,
}

impl WellMixed {
    /// The set-up both entry points share: validate `config` and decode
    /// its resume checkpoint. A timed run's `profile` prices its games.
    fn new(config: &DistConfig, profile: Option<&MachineProfile>) -> Result<Self, DistError> {
        if config.ranks < 2 {
            return Err(DistError::Params(
                "need the Nature Agent plus at least one compute rank".into(),
            ));
        }
        // A resumed run is driven by the checkpoint's own params: they carry
        // the seed and the original generation target.
        let mut config = config.clone();
        if let Some(cp) = &config.resume {
            config.params = cp.params.clone();
        }
        let (space, restored) = match &config.resume {
            Some(cp) => {
                let (space, pool, assignments) =
                    cp.tables().map_err(|e| DistError::Params(e.to_string()))?;
                (space, Some((pool, assignments)))
            }
            None => (
                config.params.validate().map_err(|e| DistError::Params(e.to_string()))?,
                None,
            ),
        };
        Ok(WellMixed {
            nature: NatureAgent::from_params(&config.params),
            game_cost: profile.map_or(0.0, |p| p.game_cost[config.params.mem_steps]),
            config,
            space,
            restored,
        })
    }
}

/// The outcome rank 0's final context and the exact message total make.
fn outcome(rank0: driver::RankCtx<RankState, Checkpoint>, messages_sent: u64) -> DistOutcome {
    let st = rank0.state;
    DistOutcome {
        features: st.assignments.iter().map(|&id| st.pool.get(id).feature_vector()).collect(),
        assignments: st.assignments,
        stats: st.stats,
        messages_sent,
        events: st.events,
        generation_ns: rank0.generation_ns,
        checkpoint: rank0.periodic,
    }
}

/// Run the distributed engine and return its outcome. Spawns `ranks`
/// virtual ranks; intended for functional validation at small scale (the
/// performance model, not this, extrapolates to 262,144 processors).
///
/// # Errors
///
/// - [`DistError::Params`] — invalid parameters or rank count, or a
///   resume checkpoint whose tables do not hold together
///   ([`Checkpoint::tables`]); no rank is launched.
/// - [`DistError::Degraded`] — a fault (injected or emergent) was detected;
///   the payload carries the dead ranks and a restartable checkpoint.
/// - [`DistError::Cluster`] / [`DistError::Protocol`] — low-level failures
///   with no degraded-mode context.
pub fn run_distributed(config: &DistConfig) -> Result<DistOutcome, DistError> {
    let _span = obs::span("dist.run");
    let spec = WellMixed::new(config, None)?;
    let (rank0, messages_sent) =
        driver::launch(spec.config.ranks, &spec.config.faults.clone(), spec)?;
    Ok(outcome(rank0, messages_sent))
}

/// [`run_distributed`] on a healthy virtual-time machine priced by
/// `profile` ([`crate::simtime`]): the identical [`DistOutcome`] plus the
/// makespan in virtual seconds. A rank charges `game_cost[mem_steps]` per
/// game it evaluates (focal SSets × `num_ssets`, cached or not).
///
/// # Errors
///
/// As [`run_distributed`]; a fault plan that schedules a fault or sets a
/// receive deadline is [`DistError::Params`].
pub fn run_distributed_timed(
    config: &DistConfig,
    profile: &MachineProfile,
) -> Result<(DistOutcome, f64), DistError> {
    // `is_empty` counts scheduled faults only; a deadline is refused too,
    // because virtual-time receives cannot honour one.
    if !config.faults.is_empty() || config.faults.recv_timeout_ms.is_some() {
        return Err(DistError::Params(
            "a timed run models a healthy machine: the fault plan must be empty and set no receive deadline"
                .into(),
        ));
    }
    let spec = WellMixed::new(config, Some(profile))?;
    let net = NetCosts::from_profile(profile, spec.config.ranks);
    let (rank0, messages_sent, makespan) = driver::launch_timed(spec.config.ranks, net, spec)?;
    Ok((outcome(rank0, messages_sent), makespan))
}

/// One rank's replicated strategy table and the SSets it owns.
struct RankState {
    pool: StrategyPool,
    assignments: Vec<StratId>,
    stats: RunStats,
    /// Rank 0 only: events per generation.
    events: Vec<Vec<Event>>,
    owned: std::ops::Range<usize>,
    /// This rank's payoff memo-cache, surviving across generations.
    /// Excluded from checkpoints by design: a resumed run restarts it
    /// cold and still reproduces the identical trajectory (cost-only).
    cache: PayoffCache,
    /// The [`TableMemo`] of this rank's owned fitness block, kept only
    /// when the run has a cache and every game of that table was
    /// deterministic. Cost-only and left out of checkpoints like the cache:
    /// a resumed rank starts without one.
    memo: Option<TableMemo>,
}

impl Generations for WellMixed {
    type Msg = DistMsg;
    type State = RankState;
    type Checkpoint = Checkpoint;
    const BARRIER: DistMsg = DistMsg::Barrier;

    fn schedule(&self) -> Schedule<'_> {
        let start = self.config.resume.as_ref().map_or(0, |cp| cp.generation);
        Schedule {
            faults: &self.config.faults,
            checkpoint_every: self.config.checkpoint_every,
            generations: start..self.config.params.generations,
        }
    }

    fn init(&self, rank: Rank, ranks: usize) -> RankState {
        // Every rank builds the identical initial table (paper: the global
        // strategy view is set up in the initialisation broadcast; here the
        // counter-based streams make it reproducible locally). Resume copies
        // the tables `run_distributed` decoded from the checkpoint.
        let (pool, assignments) = match &self.restored {
            Some(tables) => tables.clone(),
            None => initial_tables(&self.config.params, self.space),
        };
        let state = RankState {
            pool,
            assignments,
            stats: self.config.resume.as_ref().map_or_else(RunStats::default, |cp| cp.stats),
            events: Vec::new(),
            owned: owned_range(rank, self.config.params.num_ssets, ranks),
            cache: PayoffCache::new(self.config.params.game),
            memo: None,
        };
        if !self.config.disable_payoff_cache && self.config.resume.is_some() {
            // Resume cold-start fix (docs/PERFORMANCE.md): the cache is
            // excluded from checkpoints, so pre-warm it from the restored
            // strategy table instead of replaying the pair matrix on the
            // first post-resume evaluation. Cost-only; every value comes
            // from the same pure functions a cache miss would call.
            PairPayoff::new(
                &self.space,
                &state.pool,
                &self.config.params.game,
                Some(&state.cache),
            )
            .prewarm(&state.assignments, PayoffKind::Sampled);
        }
        state
    }

    fn step<C: Messenger<Payload = DistMsg>>(
        &self,
        coll: &Collective<'_, C>,
        inbox: &mut Inbox<DistMsg>,
        st: &mut RankState,
        generation: u64,
        _whole: bool,
    ) -> Result<(), RankError> {
        let params = &self.config.params;
        let num_ssets = params.num_ssets;

        // (1) Every rank plans the generation itself: the plan is pure in
        // `(seed, generation)`.
        let plan = engine::plan(&self.nature, num_ssets as u32, params.rule, self.config.policy, generation);

        // (2) Game dynamics and fitness movement through the provider.
        let provided = RankProvider {
            comm: coll.comm(),
            owned: st.owned.clone(),
            num_ssets,
            // The rank's own cache: entries never travel over the wire, and
            // every rank computes identical values from the replicated table.
            pairs: PairPayoff::new(
                &self.space,
                &st.pool,
                &params.game,
                (!self.config.disable_payoff_cache).then_some(&st.cache),
            ),
            assignments: &st.assignments,
            seed: params.seed,
            inbox,
            memo: &mut st.memo,
            game_cost: self.game_cost,
        }
        .provide(&plan)?;

        // (3) Every rank decides and commits on its own table. Rank 0's
        // `apply` keeps the events and the authoritative stats, and is the
        // one count of the decision in the obs counters.
        if coll.comm().rank() == 0 {
            let delta = engine::apply(
                &self.nature,
                &self.space,
                &plan,
                &provided,
                &mut st.assignments,
                &mut st.pool,
                &mut st.stats,
            );
            st.events.push(delta.events);
        } else {
            let decision =
                engine::decide(&self.nature, &self.space, &plan, &provided.view, &st.assignments, &st.pool);
            engine::commit(&decision, &mut st.assignments, &mut st.pool, &mut RunStats::default());
        }
        Ok(())
    }

    fn snapshot(&self, st: &RankState, generation: u64) -> Checkpoint {
        Checkpoint::capture(&self.config.params, generation, &st.pool, &st.assignments, st.stats)
    }

    /// A compute rank's replicated strategy table against rank 0's.
    fn agrees(rank0: &RankState, st: &RankState) -> bool {
        st.assignments == rank0.assignments
    }
}

/// Phase-2 fitness provider for one rank: evaluates the owned SSets the
/// plan asks for ([`PairPayoff::evaluate_rows`]), pushes the owned part of
/// the plan's need to every other rank and receives the rest from its
/// owners, so every rank ends with the same [`FitnessView`].
struct RankProvider<'a, C> {
    comm: &'a C,
    owned: std::ops::Range<usize>,
    num_ssets: usize,
    /// Over the rank's tables and its payoff cache (`None` when the run
    /// disabled it).
    pairs: PairPayoff<'a>,
    assignments: &'a [StratId],
    seed: u64,
    /// Where an owner's pushes from generations ahead wait for their turn.
    inbox: &'a mut Inbox<DistMsg>,
    /// The rank's owned block's [`TableMemo`].
    memo: &'a mut Option<TableMemo>,
    game_cost: f64,
}

impl<C: Messenger<Payload = DistMsg>> RankProvider<'_, C> {
    /// Move the values of `pieces` — contiguous SSet ranges, each owned by
    /// one compute rank — so that every rank holds them all: this rank
    /// pushes the pieces it owns (their values in `local`, its evaluation
    /// of `rows`) to every other rank, then receives each other piece from
    /// its owner. Returns the values in piece order.
    fn exchange(
        &mut self,
        rows: &Rows,
        local: &[f64],
        pieces: &[std::ops::Range<usize>],
        generation: u64,
    ) -> Result<Vec<f64>, RankError> {
        let comm = self.comm;
        let owner = |piece: &std::ops::Range<usize>| owner_of(piece.start, self.num_ssets, comm.size());
        let mut got: Vec<Option<Vec<f64>>> = pieces
            .iter()
            .map(|piece| {
                let mine = rows.ssets(self.num_ssets).zip(local).filter(|(s, _)| piece.contains(s));
                (owner(piece) == comm.rank()).then(|| mine.map(|(_, &f)| f).collect())
            })
            .collect();
        // Sends never block, so every owner's pushes are on the wire before
        // any rank waits.
        for (piece, values) in pieces.iter().zip(&got) {
            let Some(values) = values else { continue };
            for dst in (0..comm.size()).filter(|&r| r != comm.rank()) {
                let msg = DistMsg::Fitness { start: piece.start as u32, values: values.clone(), generation };
                match comm.send(dst, FITNESS_TAG, msg) {
                    // A dead receiver is not this rank's failure: it learns
                    // of a death only through a receive it needs.
                    Ok(()) | Err(ClusterError::RankDead(_)) => {}
                    Err(e) => return Err(e.into()),
                }
            }
        }
        // Receive from each missing piece's owner. A message fills the
        // piece it names, whichever was asked for: one owner's two pushes
        // may arrive reordered by a delay fault.
        while let Some(want) = got.iter().position(Option::is_none) {
            let msg = self.inbox.recv_stamped(comm, owner(&pieces[want]), FITNESS_TAG, generation)?;
            let DistMsg::Fitness { start, values, .. } = msg else {
                return Err(RankError::Protocol("fitness message"));
            };
            let i = pieces
                .iter()
                .position(|p| p.start == start as usize && p.len() == values.len())
                .ok_or(RankError::Protocol("a needed fitness piece"))?;
            got[i] = Some(values);
        }
        Ok(got.into_iter().flatten().flatten().collect())
    }

    fn provide(&mut self, plan: &GenPlan) -> Result<Provided, RankError> {
        // (2) Game dynamics: local, no communication (§V-A).
        let owned = |s: u32| self.owned.contains(&(s as usize)).then_some(s as usize);
        let rows = match plan.eval {
            // Nothing scheduled, so nothing is needed either.
            EvalScope::None => return Ok(Provided { view: FitnessView::None, games: 0 }),
            EvalScope::Pair { teacher, learner } => Rows::Pair([owned(teacher), owned(learner)]),
            EvalScope::Full => Rows::Block(self.owned.clone()),
            // Lattice plans belong to the spatial engine
            // ([`graph::run_spatial_distributed`]), which shards by rows,
            // not SSet blocks.
            EvalScope::Neighborhood(_) => return Err(RankError::Protocol("well-mixed evaluation scope")),
        };
        let (local, games) = self.pairs.evaluate_rows(self.assignments, self.seed, plan.generation, None, &rows, self.memo);
        // Each focal SSet is `num_ssets` games, charged before any fitness
        // leaves this rank.
        self.comm.compute((local.len() * self.num_ssets) as f64 * self.game_cost);

        // (2b) Every rank gets what the decision needs.
        let view = match plan.need {
            FitnessNeed::None => FitnessView::None,
            FitnessNeed::Pair { teacher, learner } => {
                let (t, l) = (teacher as usize, learner as usize);
                let [teacher, learner] = self.exchange(&rows, &local, &[t..t + 1, l..l + 1], plan.generation)?[..] else {
                    return Err(RankError::Protocol("one value per selected SSet"));
                };
                FitnessView::Pair { teacher, learner }
            }
            FitnessNeed::Full => {
                let ranks = self.comm.size();
                let blocks: Vec<_> = (1..ranks)
                    .map(|r| owned_range(r, self.num_ssets, ranks))
                    .filter(|block| !block.is_empty())
                    .collect();
                FitnessView::Full(self.exchange(&rows, &local, &blocks, plan.generation)?)
            }
        };
        Ok(Provided { view, games })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultAction, MessageFault, MessageFaults, RankKill};
    use evo_core::population::Population;
    use ipd::game::GameConfig;

    fn params(seed: u64, ssets: usize, gens: u64) -> Params {
        Params {
            mem_steps: 1,
            num_ssets: ssets,
            generations: gens,
            seed,
            game: GameConfig {
                rounds: 16,
                ..GameConfig::default()
            },
            ..Params::default()
        }
    }

    fn config(p: Params, ranks: usize, policy: FitnessPolicy) -> DistConfig {
        DistConfig::new(p, ranks, policy)
    }

    #[test]
    fn owner_block_partition_covers_all_ssets() {
        for (s, r) in [(10usize, 3usize), (16, 5), (7, 2), (100, 9), (5, 7)] {
            let mut owners = vec![0usize; s];
            for rank in 1..r {
                for i in owned_range(rank, s, r) {
                    owners[i] += 1;
                    assert_eq!(owner_of(i, s, r), rank, "sset {i} (s={s}, r={r})");
                }
            }
            assert!(owners.iter().all(|&c| c == 1), "s={s} r={r}: {owners:?}");
            assert!(owned_range(0, s, r).is_empty(), "Nature owns nothing");
        }
    }

    #[test]
    fn distributed_matches_shared_memory_engine() {
        for seed in [1u64, 2, 3] {
            let p = params(seed, 10, 40);
            let mut reference = Population::new(p.clone()).unwrap();
            let mut ref_events = Vec::new();
            for _ in 0..40 {
                ref_events.push(reference.step().events);
            }
            let out =
                run_distributed(&config(p, 4, FitnessPolicy::EveryGeneration)).unwrap();
            assert_eq!(out.assignments, reference.assignments(), "seed {seed}");
            assert_eq!(out.events, ref_events, "seed {seed}");
            assert_eq!(out.stats, *reference.stats(), "seed {seed}: full RunStats");
        }
    }

    #[test]
    fn payoff_cache_off_is_bit_identical_to_on() {
        // The per-rank memo-cache is cost-only: every fitness value a rank
        // sends or gathers must be the identical f64 with caching
        // disabled, so events (which embed fitness bits), assignments,
        // and stats all match.
        for policy in [FitnessPolicy::EveryGeneration, FitnessPolicy::OnDemand] {
            let p = params(17, 10, 50);
            let on = run_distributed(&config(p.clone(), 4, policy)).unwrap();
            let mut cfg_off = config(p, 4, policy);
            cfg_off.disable_payoff_cache = true;
            let off = run_distributed(&cfg_off).unwrap();
            assert_eq!(on.assignments, off.assignments, "{policy:?}");
            assert_eq!(on.events, off.events, "{policy:?}");
            assert_eq!(on.stats, off.stats, "{policy:?}: games accounting");
        }
    }

    #[test]
    fn all_update_rules_match_shared_memory_bit_for_bit() {
        use evo_core::params::UpdateRule;
        // The engine core lifts the old PairwiseComparison-only restriction:
        // Moran and ImitateBest gather the full fitness vector over the
        // collective tree and must reproduce shared memory exactly —
        // events (fitness bits included), assignments, and RunStats.
        for rule in [
            UpdateRule::PairwiseComparison,
            UpdateRule::Moran,
            UpdateRule::ImitateBest,
        ] {
            for policy in [FitnessPolicy::EveryGeneration, FitnessPolicy::OnDemand] {
                let mut p = params(21, 9, 40);
                p.rule = rule;
                let mut reference = Population::new(p.clone()).unwrap();
                reference.fitness_policy = policy;
                let mut ref_events = Vec::new();
                for _ in 0..40 {
                    ref_events.push(reference.step().events);
                }
                let out = run_distributed(&config(p, 4, policy)).unwrap();
                assert_eq!(
                    out.assignments,
                    reference.assignments(),
                    "{rule:?}/{policy:?}: assignments"
                );
                assert_eq!(out.events, ref_events, "{rule:?}/{policy:?}: events");
                assert_eq!(
                    out.stats,
                    *reference.stats(),
                    "{rule:?}/{policy:?}: full RunStats (games_played included)"
                );
                assert!(out.stats.pc_events > 0, "{rule:?}: rule events occurred");
            }
        }
    }

    #[test]
    fn full_vector_rules_are_rank_count_invariant() {
        use evo_core::params::UpdateRule;
        for rule in [UpdateRule::Moran, UpdateRule::ImitateBest] {
            let mut p = params(33, 11, 30);
            p.rule = rule;
            let base =
                run_distributed(&config(p.clone(), 2, FitnessPolicy::EveryGeneration)).unwrap();
            for ranks in [3usize, 6, 13] {
                let out = run_distributed(&config(p.clone(), ranks, FitnessPolicy::EveryGeneration))
                    .unwrap();
                assert_eq!(out.assignments, base.assignments, "{rule:?} at {ranks} ranks");
                assert_eq!(out.events, base.events, "{rule:?} at {ranks} ranks");
                assert_eq!(out.stats, base.stats, "{rule:?} at {ranks} ranks");
            }
        }
    }

    #[test]
    fn trajectory_invariant_to_rank_count() {
        let base =
            run_distributed(&config(params(9, 12, 30), 2, FitnessPolicy::EveryGeneration))
                .unwrap();
        for ranks in [3usize, 5, 8, 13] {
            let out = run_distributed(&config(
                params(9, 12, 30),
                ranks,
                FitnessPolicy::EveryGeneration,
            ))
            .unwrap();
            assert_eq!(out.assignments, base.assignments, "ranks {ranks}");
            assert_eq!(out.events, base.events, "ranks {ranks}");
        }
    }

    #[test]
    fn on_demand_policy_gives_same_trajectory() {
        let every =
            run_distributed(&config(params(5, 8, 50), 3, FitnessPolicy::EveryGeneration))
                .unwrap();
        let lazy =
            run_distributed(&config(params(5, 8, 50), 3, FitnessPolicy::OnDemand)).unwrap();
        assert_eq!(every.assignments, lazy.assignments);
        assert_eq!(every.events, lazy.events);
        assert!(
            lazy.stats.games_played < every.stats.games_played,
            "OnDemand skips PC-free generations"
        );
    }

    #[test]
    fn on_demand_stats_match_shared_memory() {
        // The RunStats drift this refactor fixed: the distributed engine
        // used to report games_played = 0. Both policies must now account
        // evaluation work identically to the shared-memory engine.
        for policy in [FitnessPolicy::EveryGeneration, FitnessPolicy::OnDemand] {
            let p = params(7, 8, 50);
            let mut reference = Population::new(p.clone()).unwrap();
            reference.fitness_policy = policy;
            reference.run_to_end();
            let out = run_distributed(&config(p, 3, policy)).unwrap();
            assert_eq!(out.stats, *reference.stats(), "{policy:?}");
            assert!(out.stats.games_played > 0);
        }
    }

    #[test]
    fn more_ranks_than_ssets_still_works() {
        let out = run_distributed(&config(
            params(11, 4, 20),
            9, // 8 compute ranks for 4 SSets: some own nothing
            FitnessPolicy::EveryGeneration,
        ))
        .unwrap();
        assert_eq!(out.assignments.len(), 4);
        assert_eq!(out.stats.generations, 20);
    }

    /// `p`'s shared-memory run: its events per generation, and the
    /// population it ends on.
    fn reference_run(p: &Params) -> (Vec<Vec<Event>>, Population) {
        let mut reference = Population::new(p.clone()).unwrap();
        let events = (0..p.generations).map(|_| reference.step().events).collect();
        (events, reference)
    }

    /// A distributed outcome against the shared-memory run of the same
    /// params: events (fitness bits included), assignments and `RunStats`.
    fn assert_matches_reference(out: &DistOutcome, reference: &(Vec<Vec<Event>>, Population), label: &str) {
        assert_eq!(out.events, reference.0, "{label}: events");
        assert_eq!(out.assignments, reference.1.assignments(), "{label}: assignments");
        assert_eq!(out.stats, *reference.1.stats(), "{label}: RunStats");
    }

    #[test]
    fn mixed_strategy_population_distributes() {
        // Mixed strategies play stochastic games, so a rank may not reuse
        // its owned fitness block even while the table is unchanged: a
        // reused row would change fitness bits without flipping a decision.
        let mut p = params(13, 8, 30);
        p.kind = evo_core::params::StrategyKind::Mixed;
        let out = run_distributed(&config(p.clone(), 4, FitnessPolicy::EveryGeneration)).unwrap();
        assert_matches_reference(&out, &reference_run(&p), "mixed");
    }

    /// A run's messages are its two barriers — a reduce and a broadcast,
    /// `ranks − 1` messages each — plus `ranks − 1` pushes of every piece
    /// a generation needs: the pair's two values in a PC generation, every
    /// compute rank's block in a Moran one, nothing in a generation that
    /// schedules no comparison (a mutation alone included).
    #[test]
    fn messages_are_the_barriers_plus_one_push_per_needed_piece() {
        use evo_core::params::UpdateRule;
        let ranks = 4u64;
        let barriers = 2 * 2 * (ranks - 1);
        for (rule, pieces) in [(UpdateRule::PairwiseComparison, 2), (UpdateRule::Moran, ranks - 1)] {
            for policy in [FitnessPolicy::OnDemand, FitnessPolicy::EveryGeneration] {
                let mut p = params(3, 6, 100);
                p.rule = rule;
                let out = run_distributed(&config(p.clone(), ranks as usize, policy)).unwrap();
                let label = format!("{rule:?}/{policy:?}");
                assert!(out.stats.pc_events > 0, "{label}");
                assert_eq!(out.messages_sent, barriers + out.stats.pc_events * pieces * (ranks - 1), "{label}");

                p.pc_rate = 0.0;
                p.mutation_rate = 0.5;
                let quiet = run_distributed(&config(p, ranks as usize, policy)).unwrap();
                assert!(quiet.stats.mutations > 0, "{label}");
                assert_eq!(quiet.messages_sent, barriers, "{label}: mutations send nothing");
            }
        }
    }

    #[test]
    fn noisy_games_still_match_reference() {
        // Noise makes pure strategies' games stochastic: as for mixed ones,
        // every generation's fitness is played afresh.
        let mut p = params(17, 6, 30);
        p.game.noise = 0.05;
        let out = run_distributed(&config(p.clone(), 3, FitnessPolicy::EveryGeneration)).unwrap();
        assert_matches_reference(&out, &reference_run(&p), "noisy");
    }

    #[test]
    fn long_every_generation_runs_match_every_oracle() {
        use evo_core::params::UpdateRule;
        // At the default PC and mutation rates most generations leave the
        // strategy table unchanged, so a compute rank answers them from
        // its owned fitness block. The run must still be the shared-memory
        // run, the uncached run (which never reuses a block), and a resume
        // from a mid-run checkpoint (whose ranks start with no block).
        for rule in [
            UpdateRule::PairwiseComparison,
            UpdateRule::Moran,
            UpdateRule::ImitateBest,
        ] {
            let mut p = params(43, 10, 300);
            p.rule = rule;
            let reference = reference_run(&p);
            let unchanged = reference.0.iter().filter(|events| events.is_empty()).count();
            assert!(unchanged > 150, "{rule:?}: {unchanged} event-free generations");

            let mut cfg = config(p.clone(), 4, FitnessPolicy::EveryGeneration);
            cfg.checkpoint_every = Some(160);
            let out = run_distributed(&cfg).unwrap();
            assert_matches_reference(&out, &reference, &format!("{rule:?}"));

            let mut off = config(p, 4, FitnessPolicy::EveryGeneration);
            off.disable_payoff_cache = true;
            let off = run_distributed(&off).unwrap();
            assert_matches_reference(&off, &reference, &format!("{rule:?} uncached"));

            let cp = out.checkpoint.expect("periodic checkpoint present");
            assert_eq!(cp.generation, 160, "{rule:?}");
            let mut resumed = config(cp.params.clone(), 4, FitnessPolicy::EveryGeneration);
            resumed.resume = Some(cp);
            let resumed = run_distributed(&resumed).unwrap();
            assert_eq!(resumed.events, reference.0[160..], "{rule:?} resumed: events");
            assert_eq!(resumed.assignments, reference.1.assignments(), "{rule:?} resumed: assignments");
            assert_eq!(resumed.stats, *reference.1.stats(), "{rule:?} resumed: RunStats");
        }
    }

    #[test]
    fn too_few_ranks_is_a_params_error() {
        let err = run_distributed(&config(params(1, 4, 5), 1, FitnessPolicy::OnDemand))
            .unwrap_err();
        assert!(matches!(err, DistError::Params(_)));
    }

    #[test]
    fn hostile_resume_checkpoint_is_a_params_error_before_any_rank_runs() {
        let mut pop = Population::new(params(2, 6, 20)).unwrap();
        pop.run(5);
        let mut dangling = pop.checkpoint();
        dangling.assignments[0] = 9999;
        let mut short = pop.checkpoint();
        short.assignments.truncate(3);
        let mut future = pop.checkpoint();
        future.schema_version += 1;
        for (cp, names) in [(dangling, "unknown strategy id"), (short, "3 strategy"), (future, "newer")] {
            let mut cfg = config(params(2, 6, 20), 3, FitnessPolicy::EveryGeneration);
            cfg.resume = Some(cp);
            let DistError::Params(msg) = run_distributed(&cfg).unwrap_err() else {
                panic!("expected Params error");
            };
            assert!(msg.contains(names), "{msg}");
        }
    }

    #[test]
    fn rank_kill_degrades_cleanly_with_checkpoint() {
        // The headline acceptance test: an injected rank kill terminates
        // with a typed DegradedRun — no panic, no hang — carrying a
        // restartable checkpoint at a committed generation boundary.
        let mut cfg = config(params(19, 10, 40), 4, FitnessPolicy::EveryGeneration);
        cfg.faults.kills = vec![RankKill {
            rank: 2,
            generation: 13,
        }];
        let err = run_distributed(&cfg).unwrap_err();
        let DistError::Degraded(d) = err else {
            panic!("expected DegradedRun, got something else");
        };
        assert!(d.dead_ranks.contains(&2), "dead ranks: {:?}", d.dead_ranks);
        // Ranks commit generations past the kill until one needs a value
        // the dead rank owns — never past the end of the run.
        assert!((13..=40).contains(&d.completed));
        let cp = d.checkpoint.expect("fault-aware runs always checkpoint");
        assert_eq!(cp.generation, d.completed);
        assert_eq!(cp.schema_version, evo_core::record::CHECKPOINT_SCHEMA_VERSION);
    }

    /// Where a kill of `rank` at generation `kill` degrades a run of `p` on
    /// `ranks` ranks: the first generation at or after the kill whose need
    /// includes an SSet `rank` owns — the first receive that can observe
    /// the death — else the end of the run, where the teardown barrier
    /// observes it.
    fn predicted_boundary(p: &Params, ranks: usize, rank: usize, kill: u64) -> u64 {
        let nature = NatureAgent::from_params(p);
        let n = p.num_ssets;
        let owned = owned_range(rank, n, ranks);
        (kill..p.generations)
            .find(|&g| match engine::plan(&nature, n as u32, p.rule, FitnessPolicy::OnDemand, g).need {
                FitnessNeed::None => false,
                FitnessNeed::Pair { teacher, learner } => {
                    owned.contains(&(teacher as usize)) || owned.contains(&(learner as usize))
                }
                FitnessNeed::Full => !owned.is_empty(),
            })
            .unwrap_or(p.generations)
    }

    #[test]
    fn a_killed_rank_degrades_the_run_where_the_plan_predicts() {
        use evo_core::params::UpdateRule;
        // A push to a dead rank is not the sender's failure, so nothing
        // races the first receive that needs the dead rank: every repeat
        // degrades at the same generation, the one the plan predicts. The
        // pairwise kill is placed so that a PC generation which needs no
        // SSet of the dead rank comes first: its owners push to the dead
        // rank, and must carry on.
        for (rule, repeats) in [(UpdateRule::PairwiseComparison, 50), (UpdateRule::Moran, 10)] {
            let mut p = params(19, 10, 40);
            p.rule = rule;
            let nature = NatureAgent::from_params(&p);
            let first_pc = |k: u64| (k..p.generations).find(|&g| nature.schedule(10, g).pc.is_some());
            let kill = match rule {
                UpdateRule::PairwiseComparison => (1..p.generations)
                    .find(|&k| first_pc(k) < Some(predicted_boundary(&p, 4, 2, k)))
                    .expect("a PC generation between the kill and the boundary"),
                _ => 13,
            };
            let boundary = predicted_boundary(&p, 4, 2, kill);
            assert!(boundary < p.generations, "{rule:?}: a receive past the kill observes it");
            for policy in [FitnessPolicy::OnDemand, FitnessPolicy::EveryGeneration] {
                let mut cfg = config(p.clone(), 4, policy);
                cfg.faults.kills = vec![RankKill { rank: 2, generation: kill }];
                for run in 0..repeats {
                    let Err(DistError::Degraded(d)) = run_distributed(&cfg) else {
                        panic!("{rule:?}/{policy:?} run {run}: expected a degraded run");
                    };
                    let label = format!("{rule:?}/{policy:?} run {run}");
                    assert_eq!(d.completed, boundary, "{label}");
                    assert_eq!(d.checkpoint.map(|cp| cp.generation), Some(boundary), "{label}");
                    assert!(d.dead_ranks.contains(&2), "{label}: {:?}", d.dead_ranks);
                }
            }
        }
        // Rank 0 owns no SSet, so no rank needs it: the kill stops rank 0
        // at the kill itself and the compute ranks at the teardown barrier.
        let mut cfg = config(params(19, 10, 40), 4, FitnessPolicy::OnDemand);
        cfg.faults.kills = vec![RankKill { rank: 0, generation: 13 }];
        let Err(DistError::Degraded(d)) = run_distributed(&cfg) else {
            panic!("a killed rank 0 degrades the run");
        };
        assert_eq!(d.completed, 13);
    }

    #[test]
    fn degraded_run_resumes_bit_identical_to_uninterrupted() {
        let p = params(23, 8, 40);
        let clean =
            run_distributed(&config(p.clone(), 4, FitnessPolicy::EveryGeneration)).unwrap();

        let mut cfg = config(p, 4, FitnessPolicy::EveryGeneration);
        cfg.faults.kills = vec![RankKill {
            rank: 1,
            generation: 17,
        }];
        let DistError::Degraded(d) = run_distributed(&cfg).unwrap_err() else {
            panic!("expected degraded run");
        };
        let cp = d.checkpoint.expect("checkpoint present");
        let resume_from = cp.generation;

        let mut resumed_cfg = config(cp.params.clone(), 4, FitnessPolicy::EveryGeneration);
        resumed_cfg.resume = Some(cp);
        let resumed = run_distributed(&resumed_cfg).unwrap();

        assert_eq!(resumed.assignments, clean.assignments, "assignments");
        assert_eq!(resumed.stats, clean.stats, "full RunStats");
        // The resumed run's events are exactly the clean run's tail.
        assert_eq!(
            resumed.events,
            clean.events[resume_from as usize..].to_vec(),
            "event tail from generation {resume_from}"
        );
    }

    #[test]
    fn periodic_checkpoint_resumes_bit_identical() {
        let p = params(29, 9, 40);
        let clean = run_distributed(&config(p.clone(), 3, FitnessPolicy::OnDemand)).unwrap();

        let mut cfg = config(p, 3, FitnessPolicy::OnDemand);
        cfg.checkpoint_every = Some(15);
        let out = run_distributed(&cfg).unwrap();
        assert_eq!(out.assignments, clean.assignments, "checkpointing is inert");
        let cp = out.checkpoint.expect("periodic checkpoint present");
        assert_eq!(cp.generation, 30, "latest multiple of 15 within 40");

        let resume_from = cp.generation;
        let mut resumed_cfg = config(cp.params.clone(), 3, FitnessPolicy::OnDemand);
        resumed_cfg.resume = Some(cp);
        let resumed = run_distributed(&resumed_cfg).unwrap();
        assert_eq!(resumed.assignments, clean.assignments);
        assert_eq!(resumed.stats, clean.stats);
        assert_eq!(resumed.events, clean.events[resume_from as usize..].to_vec());
    }

    #[test]
    fn duplicate_message_faults_leave_trajectory_bit_identical() {
        // Duplicated messages are absorbed: collective tags are never
        // reused and fitness messages carry their generation, so a stale
        // duplicate is discarded instead of matched.
        let p = params(31, 8, 40);
        let clean =
            run_distributed(&config(p.clone(), 4, FitnessPolicy::EveryGeneration)).unwrap();
        let mut cfg = config(p, 4, FitnessPolicy::EveryGeneration);
        cfg.faults.messages = MessageFaults {
            faults: (0..12)
                .map(|i| MessageFault {
                    src: (i % 4) as usize,
                    nth_send: (i * 3) as u64,
                    action: FaultAction::Duplicate,
                })
                .collect(),
        };
        let out = run_distributed(&cfg).unwrap();
        assert_eq!(out.assignments, clean.assignments);
        assert_eq!(out.events, clean.events);
        assert_eq!(out.stats, clean.stats);
    }

    #[test]
    fn a_push_delayed_past_its_owners_next_generation_is_kept() {
        // Ranks meet only where a value is needed, so an owner may run
        // generations ahead of a rank still waiting on it. With one compute
        // rank, delay its second push (send #2, the learner's value; #0 is
        // the setup barrier's reduce): it is delivered after rank 1's next
        // send, the teacher's push of the next PC generation. Rank 0 must
        // keep that push for its own generation, not discard it as stale,
        // and the run stays the clean run.
        let mut p = params(37, 8, 40);
        p.pc_rate = 0.3;
        let clean = run_distributed(&config(p.clone(), 2, FitnessPolicy::OnDemand)).unwrap();
        assert!(clean.stats.pc_events >= 2, "a second PC generation carries the next push");
        let mut cfg = config(p, 2, FitnessPolicy::OnDemand);
        cfg.faults.messages = MessageFaults {
            faults: vec![MessageFault {
                src: 1,
                nth_send: 2,
                action: FaultAction::Delay,
            }],
        };
        cfg.faults.recv_timeout_ms = Some(2_000);
        let out = run_distributed(&cfg).unwrap();
        assert_eq!(out.events, clean.events);
        assert_eq!(out.assignments, clean.assignments);
        assert_eq!(out.stats, clean.stats);
    }

    #[test]
    fn a_plan_that_can_lose_a_message_needs_a_deadline() {
        // Without the refusal, a delayed push whose owner next sends only
        // after waiting on its receiver would hang both ranks.
        for action in [FaultAction::Drop, FaultAction::Delay] {
            let mut cfg = config(params(37, 8, 40), 3, FitnessPolicy::OnDemand);
            cfg.faults.messages = MessageFaults {
                faults: vec![MessageFault { src: 1, nth_send: 1, action }],
            };
            let Err(DistError::Params(msg)) = run_distributed(&cfg) else {
                panic!("{action:?} without a deadline must be refused");
            };
            assert!(msg.contains("recv_timeout_ms"), "{msg}");
        }
    }

    #[test]
    fn dropped_message_degrades_instead_of_hanging() {
        // Drop rank 1's first push (its send #1; #0 is the setup barrier's
        // reduce), the one to rank 0 in the first generation whose pair
        // holds an SSet of rank 1. With a receive deadline the run must
        // degrade cleanly at that generation rather than hang.
        let p = params(37, 8, 40);
        let nature = NatureAgent::from_params(&p);
        let first_push = (0..p.generations)
            .find(|&g| {
                nature.schedule(8, g).pc.is_some_and(|(t, l)| {
                    owner_of(t as usize, 8, 4) == 1 || owner_of(l as usize, 8, 4) == 1
                })
            })
            .expect("rank 1 owns a selected SSet within 40 generations");
        let mut cfg = config(p, 4, FitnessPolicy::EveryGeneration);
        cfg.faults.messages = MessageFaults {
            faults: vec![MessageFault {
                src: 1,
                nth_send: 1,
                action: FaultAction::Drop,
            }],
        };
        cfg.faults.recv_timeout_ms = Some(200);
        let Err(DistError::Degraded(d)) = run_distributed(&cfg) else {
            panic!("a lost push must degrade the run");
        };
        // Rank 0 times out, unless the teardown barrier's deadline cascades
        // rank 1's death to it first: either way at that generation.
        assert_eq!(d.completed, first_push);
        assert!(d.checkpoint.is_some(), "degraded run leaves a checkpoint");
    }

    #[test]
    fn fault_free_plan_with_deadline_is_bit_identical() {
        // A deadline alone (no scheduled faults) must not perturb the
        // trajectory: fault-free runs never reach a timeout branch.
        let p = params(41, 8, 30);
        let clean =
            run_distributed(&config(p.clone(), 3, FitnessPolicy::EveryGeneration)).unwrap();
        let mut cfg = config(p, 3, FitnessPolicy::EveryGeneration);
        cfg.faults.recv_timeout_ms = Some(5_000);
        let out = run_distributed(&cfg).unwrap();
        assert_eq!(out.assignments, clean.assignments);
        assert_eq!(out.events, clean.events);
        assert_eq!(out.stats, clean.stats);
    }

    #[test]
    fn seeded_fault_plans_terminate_without_hanging() {
        // Property sweep: every seeded fault plan must produce a typed
        // outcome (clean or degraded) — the no-panic/no-hang guarantee.
        for seed in 0..5u64 {
            let mut cfg = config(params(seed, 8, 30), 4, FitnessPolicy::EveryGeneration);
            cfg.faults = FaultPlan::seeded(seed, 4, 30, 1, 2);
            match run_distributed(&cfg) {
                Ok(_) => {}
                Err(DistError::Degraded(d)) => {
                    assert!(d.checkpoint.is_some(), "seed {seed}: checkpoint present");
                }
                Err(other) => panic!("seed {seed}: unexpected error {other}"),
            }
        }
    }

    /// A machine whose every cost is a power of two, so that the clock
    /// sums below are exact in `f64`: game cost 2⁻¹⁰ s at memory one,
    /// α = 2⁻¹², a hop 2⁻¹⁶, receive overhead 2⁻¹⁴. `network` false
    /// zeroes the three message costs.
    fn dyadic_profile(network: bool) -> MachineProfile {
        let net = if network { 1.0 } else { 0.0 };
        MachineProfile {
            name: "dyadic".into(),
            game_cost: [0.0, 2f64.powi(-10), 0.0, 0.0, 0.0, 0.0, 0.0],
            alpha_coll: net * 2f64.powi(-14),
            alpha_p2p: net * 2f64.powi(-12),
            per_hop: net * 2f64.powi(-16),
            mutation_per_state: 0.0,
            serial_per_gen: 0.0,
            nonpow2_penalty: 0.0,
        }
    }

    #[test]
    fn timed_run_returns_the_untimed_outcome() {
        use evo_core::params::UpdateRule;
        let profile = MachineProfile::bluegene_p();
        for rule in [
            UpdateRule::PairwiseComparison,
            UpdateRule::Moran,
            UpdateRule::ImitateBest,
        ] {
            for policy in [FitnessPolicy::EveryGeneration, FitnessPolicy::OnDemand] {
                for compute_ranks in [2usize, 4] {
                    let mut p = params(21, 9, 40);
                    p.rule = rule;
                    let cfg = config(p, compute_ranks + 1, policy);
                    let plain = run_distributed(&cfg).unwrap();
                    let (timed, makespan) = run_distributed_timed(&cfg, &profile).unwrap();
                    let label = format!("{rule:?}/{policy:?}/{compute_ranks} compute ranks");
                    assert_eq!(timed.assignments, plain.assignments, "{label}");
                    assert_eq!(timed.stats, plain.stats, "{label}");
                    assert_eq!(timed.events, plain.events, "{label}");
                    assert_eq!(timed.features, plain.features, "{label}");
                    assert_eq!(timed.messages_sent, plain.messages_sent, "{label}");
                    assert!(makespan > 0.0, "{label}");
                }
            }
        }
    }

    /// One compute rank, four SSets, a PC event in each of three
    /// generations, no mutation, `OnDemand`. With L = α + 1 hop (two ranks
    /// sit one hop apart) and o the receive overhead:
    /// - each barrier (a reduce and a broadcast over one edge) is 2L + 2o;
    /// - a generation is rank 1's 2·4 games of the selected pair, which it
    ///   owns whole, and its two pushes to rank 0 (L + 2o). Rank 1 never
    ///   waits, so its 3·8c run back to back; rank 0 ends the last
    ///   generation L + 2o after rank 1 does;
    /// - the teardown barrier's reduce then waits on rank 0 (o), and its
    ///   broadcast reaches rank 1 (L + o).
    ///
    /// The total is 2L + 2o + 24c + (L + 2o) + o + (L + o) = 4L + 6o + 24c.
    #[test]
    fn timed_makespan_of_a_tiny_run_is_exact() {
        let profile = dyadic_profile(true);
        let mut p = params(3, 4, 3);
        p.pc_rate = 1.0;
        p.mutation_rate = 0.0;
        let (out, makespan) =
            run_distributed_timed(&config(p, 2, FitnessPolicy::OnDemand), &profile).unwrap();
        assert_eq!(out.stats.pc_events, 3);
        let l = profile.alpha_p2p + profile.per_hop;
        let o = profile.alpha_coll;
        let c = profile.game_cost[1];
        assert_eq!(makespan, 4.0 * l + 6.0 * o + 24.0 * c);
    }

    #[test]
    fn every_generation_policy_costs_more_than_on_demand() {
        let profile = MachineProfile::bluegene_p();
        let p = Params {
            mem_steps: 3,
            num_ssets: 128,
            generations: 20,
            pc_rate: 0.1,
            mutation_rate: 0.05,
            seed: 1,
            ..Params::default()
        };
        let timed =
            |policy| run_distributed_timed(&config(p.clone(), 5, policy), &profile).unwrap().1;
        let every = timed(FitnessPolicy::EveryGeneration);
        let lazy = timed(FitnessPolicy::OnDemand);
        assert!(
            every > lazy * 3.0,
            "full evaluation {every} should dwarf on-demand {lazy}"
        );
    }

    /// Under `OnDemand` the teacher's owner and the learner's owner each
    /// play their SSet's S games, in parallel when they differ and one
    /// after the other when one rank owns both. On a machine whose
    /// messages cost nothing the makespan is exactly that charge on the
    /// critical path: S games per PC generation, 2S when one rank owns
    /// the pair. Going from 2 to 8 compute ranks only makes a shared
    /// owner rarer: the charge never drops below S games per PC
    /// generation, where `cluster::perf` divides 2S by the rank count.
    #[test]
    fn on_demand_critical_path_charge_barely_falls_with_ranks() {
        let profile = dyadic_profile(false);
        let p = Params {
            pc_rate: 0.5,
            ..params(11, 24, 60)
        };
        let s = p.num_ssets;
        let unit = s as f64 * profile.game_cost[1];
        let nature = NatureAgent::from_params(&p);
        let pairs: Vec<(usize, usize)> = (0..p.generations)
            .filter_map(|g| nature.schedule(s as u32, g).pc)
            .map(|(t, l)| (t as usize, l as usize))
            .collect();
        let mut charged = Vec::new();
        for compute_ranks in [2usize, 4, 8] {
            let ranks = compute_ranks + 1;
            let cfg = config(p.clone(), ranks, FitnessPolicy::OnDemand);
            let (_, makespan) = run_distributed_timed(&cfg, &profile).unwrap();
            let shared = pairs
                .iter()
                .filter(|&&(t, l)| owner_of(t, s, ranks) == owner_of(l, s, ranks))
                .count();
            let label = format!("{compute_ranks} compute ranks");
            assert_eq!(makespan, (pairs.len() + shared) as f64 * unit, "{label}");
            charged.push(makespan / unit);
        }
        // 32 PC generations: 50 → 37 S-game units from 2 to 8 compute
        // ranks (0.74×), where the model's 2S / P charge gives 32 → 8.
        assert_eq!(pairs.len(), 32, "PC generations");
        assert_eq!(charged, [50.0, 38.0, 37.0], "S-game units at 2, 4, 8 compute ranks");
    }

    #[test]
    fn timed_run_refuses_a_fault_plan() {
        let kill = FaultPlan {
            kills: vec![RankKill {
                rank: 1,
                generation: 4,
            }],
            ..FaultPlan::default()
        };
        // A deadline alone schedules no fault, but a timed run cannot
        // honour it, so it is refused rather than silently dropped.
        let deadline = FaultPlan {
            recv_timeout_ms: Some(2_000),
            ..FaultPlan::default()
        };
        assert!(deadline.is_empty(), "a deadline alone leaves the plan empty");
        for (faults, label) in [(kill, "kill"), (deadline, "deadline only")] {
            let mut cfg = config(params(1, 6, 10), 3, FitnessPolicy::OnDemand);
            cfg.faults = faults;
            let err = run_distributed_timed(&cfg, &MachineProfile::bluegene_p()).unwrap_err();
            let DistError::Params(msg) = err else {
                panic!("{label}: expected a Params error, got {err}");
            };
            assert!(msg.contains("fault plan"), "{label}: {msg}");
        }
    }
}
