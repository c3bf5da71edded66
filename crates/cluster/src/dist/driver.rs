//! The lifecycle every distributed runner shares (paper §V): rank 0
//! coordinates, compute ranks own a contiguous block, results fold home in
//! rank order. A runner implements [`Protocol`] — its message type and
//! the two rank bodies — and [`launch`] does the rest once: spawn the
//! virtual cluster under the plan's message faults, fold the per-rank
//! results, count the messages exactly, check the replicas of a fault-free
//! run, and on any rank's failure run the kill cascade and surface the
//! restartable [`Degraded`] payload (docs/FAULT_TOLERANCE.md).
//!
//! The bodies are generic over the [`Messenger`] they talk through:
//! [`launch`] runs them on [`Comm`] ranks, [`launch_timed`] on
//! virtual-time [`TimedComm`] ranks, settled by the same fold.
//!
//! The generation-stepped runners (well-mixed, lattice) implement
//! [`Generations`] instead, and its one [`Protocol`] impl is the
//! generation frame: the boundary snapshot, kill check, generation timer,
//! periodic checkpoint, teardown barrier and failure report around each
//! family's per-generation body.

use super::DistError;
use crate::collective::{Collective, Messenger};
use crate::comm::{ClusterError, Comm, Rank, Tag, VirtualCluster};
use crate::faults::{FaultAction, FaultPlan};
use crate::simtime::{self, NetCosts, TimedComm};
use evo_core::record::GenerationRecord;
use std::ops::Range;
use std::time::Duration;

/// Why a rank's protocol body stopped early.
#[derive(Debug, Clone, PartialEq)]
pub(super) enum RankError {
    /// A communication primitive surfaced a peer failure or deadline.
    Cluster(ClusterError),
    /// An unexpected message kind arrived.
    Protocol(&'static str),
    /// The fault plan killed this rank.
    Killed,
}

impl std::fmt::Display for RankError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RankError::Cluster(e) => write!(f, "{e}"),
            RankError::Protocol(expected) => write!(f, "protocol violation: expected {expected}"),
            RankError::Killed => write!(f, "killed by fault plan"),
        }
    }
}

impl From<ClusterError> for RankError {
    fn from(e: ClusterError) -> Self {
        RankError::Cluster(e)
    }
}

fn recv_deadline(faults: &FaultPlan) -> Option<Duration> {
    faults.recv_timeout_ms.map(Duration::from_millis)
}

/// A protocol message that names the progress unit it belongs to: a
/// generation, or a replicate index for fixation batches.
pub(super) trait Stamped {
    /// The message's unit; `None` for collective plumbing (barrier tokens,
    /// gather leaves), which travels under collective tags.
    fn stamp(&self) -> Option<u64>;
}

/// One rank's point-to-point receive: the fault plan's deadline, and the
/// messages that arrived ahead of their unit with their sender and tag (none
/// in a fault-free run).
pub(super) struct Inbox<M> {
    deadline: Option<Duration>,
    stash: Vec<(Rank, Tag, M)>,
}

impl<M: Stamped> Inbox<M> {
    pub(super) fn new(faults: &FaultPlan) -> Self {
        Inbox { deadline: recv_deadline(faults), stash: Vec::new() }
    }

    /// Receive from `src` under `tag` the message stamped `unit` (each
    /// sender's units are asked for in ascending order). An earlier stamp is
    /// a fault duplicate and is dropped; a later one — its sender ran ahead,
    /// or a delay reordered two sends — is stashed until its unit asks.
    /// Source-filtered, so a dead `src` surfaces as `RankDead`, and
    /// deadline-bound when the fault plan set one.
    pub(super) fn recv_stamped<C: Messenger<Payload = M>>(
        &mut self,
        comm: &C,
        src: Rank,
        tag: Tag,
        unit: u64,
    ) -> Result<M, RankError> {
        if let Some(i) = self.stash.iter().position(|(s, t, m)| (*s, *t, m.stamp()) == (src, tag, Some(unit))) {
            return Ok(self.stash.remove(i).2);
        }
        loop {
            let msg = match self.deadline {
                Some(t) => comm.recv_timeout(Some(src), Some(tag), t),
                // detlint: allow(comm-discipline, reason = "explicit opt-out: no fault deadline in the plan; the source filter keeps it aliveness-aware (a dead peer surfaces as RankDead, not a hang)")
                None => comm.recv(Some(src), Some(tag)),
            }?
            .payload;
            match msg.stamp().ok_or(RankError::Protocol("a stamped message"))? {
                s if s == unit => return Ok(msg),
                s if s > unit => self.stash.push((src, tag, msg)),
                _ => {}
            }
        }
    }
}

/// The fault plan's kill schedule, checked by `rank` at the boundary before
/// progress unit `unit` (a generation; a replicate for fixation batches).
pub(super) fn check_kill(faults: &FaultPlan, rank: Rank, unit: u64) -> Result<(), RankError> {
    if faults.kills_at(rank, unit) {
        obs::counters().add(obs::Counter::FaultsInjected, 1);
        return Err(RankError::Killed);
    }
    Ok(())
}

/// A distributed run that terminated early but *cleanly*: dead peers were
/// detected, surviving state was snapshotted, and restarting from
/// [`Degraded::checkpoint`] reproduces the uninterrupted outcome bit for
/// bit; [`FaultPlan::spent`] is the fault plan that restart runs under.
/// `C` is the family's checkpoint type.
#[derive(Debug, Clone, PartialEq)]
pub struct Degraded<C> {
    /// Ranks observed dead when rank 0 degraded. Includes ranks killed by
    /// the fault plan *and* survivors that killed themselves while
    /// cascading the failure.
    pub dead_ranks: Vec<Rank>,
    /// Progress units fully committed before the failure: generations, or
    /// received replicates for a fixation batch.
    pub completed: u64,
    /// Human-readable description of the detected failure.
    pub reason: String,
    /// Restartable snapshot at the last consistent boundary. The
    /// generation engines maintain one only while a fault plan is active
    /// (`None` for failures outside any plan); a fixation batch always
    /// has one — completed replicates are self-consistent at any instant.
    pub checkpoint: Option<C>,
    /// Records this attempt committed up to the checkpoint that a resumed
    /// run will not report again. Empty for runners whose outcome carries
    /// no record stream (well-mixed) or whose checkpoint already holds the
    /// results (fixation).
    pub records: Vec<GenerationRecord>,
}

/// Rank 0's failure report: everything in [`Degraded`] the protocol body
/// knows; the driver fills in the dead-rank census after the self-kill.
pub(super) fn stopped<C>(
    error: &RankError,
    completed: u64,
    checkpoint: Option<C>,
    records: Vec<GenerationRecord>,
) -> Box<Degraded<C>> {
    Box::new(Degraded {
        dead_ranks: Vec::new(),
        completed,
        reason: error.to_string(),
        checkpoint,
        records,
    })
}

/// What differs between the distributed runners once the lifecycle is
/// factored out: the wire format and the two rank bodies.
pub(super) trait Protocol: Send + Sync + 'static {
    /// Messages the ranks exchange.
    type Msg: Send + Clone + Stamped + 'static;
    /// What rank 0 assembles.
    type Outcome: Send + 'static;
    /// A compute rank's live share of the replicated state, checked
    /// against the outcome in fault-free runs.
    type Piece: Send + 'static;
    /// The restartable snapshot a degraded run carries.
    type Checkpoint: Send + 'static;

    /// Rank 0's whole run; on failure, the report built by [`stopped`].
    fn coordinate<C: Messenger<Payload = Self::Msg>>(
        &self,
        comm: &C,
    ) -> Result<Self::Outcome, Box<Degraded<Self::Checkpoint>>>;
    /// A compute rank's whole run.
    fn compute<C: Messenger<Payload = Self::Msg>>(
        &self,
        comm: &C,
    ) -> Result<Self::Piece, RankError>;
    /// Does a compute rank's final piece match rank 0's outcome?
    fn agrees(outcome: &Self::Outcome, piece: &Self::Piece) -> bool;
}

/// What the generation frame reads of a run's configuration.
pub(super) struct Schedule<'a> {
    /// Kills are checked before every generation; a non-empty plan has
    /// rank 0 keep a boundary checkpoint.
    pub faults: &'a FaultPlan,
    /// Rank 0 snapshots at absolute multiples of this (0 never does).
    pub checkpoint_every: Option<u64>,
    /// The resume point (0 on a fresh run) up to the generation target.
    pub generations: Range<u64>,
}

/// A protocol whose ranks step through generations in lockstep. It
/// declares what differs between families — replicated state, one
/// generation's body, the snapshot — and the frame (its [`Protocol`] impl)
/// does the rest once. The run's outcome is rank 0's final [`RankCtx`]; a
/// compute rank's piece is its final state.
pub(super) trait Generations: Send + Sync + 'static {
    /// Messages the ranks exchange.
    type Msg: Send + Clone + Stamped + 'static;
    /// One rank's replicated state.
    type State: Send + 'static;
    /// The restartable snapshot.
    type Checkpoint: Send + 'static;
    /// The message the setup and teardown barriers carry.
    const BARRIER: Self::Msg;

    /// The run's fault plan, checkpoint interval and generation span.
    fn schedule(&self) -> Schedule<'_>;
    /// Rank `rank`'s state at the first generation: fresh, or restored
    /// from the resume checkpoint.
    fn init(&self, rank: Rank, ranks: usize) -> Self::State;
    /// Run `generation` on this rank, receiving its point-to-point
    /// messages through `inbox`. With `whole` set, rank 0 must hold the
    /// complete state when it returns: a snapshot or the outcome follows.
    fn step<C: Messenger<Payload = Self::Msg>>(
        &self,
        coll: &Collective<'_, C>,
        inbox: &mut Inbox<Self::Msg>,
        state: &mut Self::State,
        generation: u64,
        whole: bool,
    ) -> Result<(), RankError>;
    /// A restartable checkpoint of rank 0's `state` at boundary
    /// `generation`.
    fn snapshot(&self, state: &Self::State, generation: u64) -> Self::Checkpoint;
    /// The records rank 0's `state` holds (none unless the family keeps
    /// a record stream).
    fn records(_state: Self::State) -> Vec<GenerationRecord> {
        Vec::new()
    }
    /// Does a compute rank's final state match rank 0's?
    fn agrees(rank0: &Self::State, state: &Self::State) -> bool;
}

/// Per-rank run state, kept outside the generation loop so the failure
/// path can report from it; rank 0's is the outcome of a finished run.
pub(super) struct RankCtx<S, C> {
    pub(super) state: S,
    /// Generations fully committed so far (the resume point).
    generation: u64,
    /// Rank 0 only: consistent snapshot at the current generation
    /// boundary, refreshed while a fault plan is active (mid-generation
    /// failures must not checkpoint half-applied state). Whenever a rank
    /// body fails it is the snapshot at `generation`.
    boundary: Option<C>,
    /// Rank 0 only: the latest `checkpoint_every` snapshot.
    pub(super) periodic: Option<C>,
    /// Rank 0 only: per-generation wall times while obs timing is on.
    pub(super) generation_ns: Vec<u64>,
}

impl<G: Generations> Protocol for G {
    type Msg = G::Msg;
    type Outcome = RankCtx<G::State, G::Checkpoint>;
    type Piece = G::State;
    type Checkpoint = G::Checkpoint;

    fn coordinate<C: Messenger<Payload = G::Msg>>(
        &self,
        comm: &C,
    ) -> Result<Self::Outcome, Box<Degraded<G::Checkpoint>>> {
        let (ctx, result) = run(self, comm);
        match result {
            Ok(()) => Ok(ctx),
            Err(e) => {
                // Only the records up to the boundary are final: a resumed
                // run re-executes everything past it.
                let start = self.schedule().generations.start;
                let kept = if ctx.boundary.is_some() { ctx.generation - start } else { 0 };
                let mut records = G::records(ctx.state);
                records.truncate(kept as usize);
                Err(stopped(&e, ctx.generation, ctx.boundary, records))
            }
        }
    }

    fn compute<C: Messenger<Payload = G::Msg>>(&self, comm: &C) -> Result<G::State, RankError> {
        let (ctx, result) = run(self, comm);
        result.map(|()| ctx.state)
    }

    fn agrees(rank0: &Self::Outcome, state: &G::State) -> bool {
        <G as Generations>::agrees(&rank0.state, state)
    }
}

/// One rank's whole run: initialise (or resume), then the generation loop
/// from the setup barrier to the teardown barrier. Returns the rank's
/// state alongside the loop's verdict: `Err` on the first fault-plan kill,
/// detected peer failure, deadline expiry or protocol violation, with the
/// state left at the last committed generation boundary.
fn run<G: Generations, C: Messenger<Payload = G::Msg>>(
    family: &G,
    comm: &C,
) -> (RankCtx<G::State, G::Checkpoint>, Result<(), RankError>) {
    let schedule = family.schedule();
    let rank = comm.rank();
    let is_nature = rank == 0;
    let fault_aware = !schedule.faults.is_empty();
    let Range { start, end: target } = schedule.generations;
    let state = family.init(rank, comm.size());
    let mut ctx = RankCtx {
        boundary: (is_nature && fault_aware).then(|| family.snapshot(&state, start)),
        state,
        generation: start,
        periodic: None,
        generation_ns: Vec::new(),
    };
    // Collectives are deadline-bound when the fault plan set one.
    let coll = match recv_deadline(schedule.faults) {
        Some(t) => Collective::with_recv_timeout(comm, t),
        None => Collective::new(comm),
    };
    let mut inbox = Inbox::new(schedule.faults);
    let result = (|| -> Result<(), RankError> {
        // The setup barrier stands in for the paper's initial broadcast.
        coll.barrier(G::BARRIER)?;
        for generation in start..target {
            if is_nature && fault_aware {
                ctx.boundary = Some(family.snapshot(&ctx.state, generation));
            }
            check_kill(schedule.faults, rank, generation)?;

            // Only rank 0 times generations: its view spans the whole
            // generation, matching what the shared-memory engine's
            // per-step timing measures.
            // detlint: allow(wall-clock, reason = "obs-gated timing; measures the cycle, never feeds simulation state")
            let timer = (is_nature && obs::enabled()).then(std::time::Instant::now);

            let next = generation + 1;
            let periodic = schedule
                .checkpoint_every
                .is_some_and(|e| e > 0 && next.is_multiple_of(e));
            let whole = fault_aware || periodic || next == target;
            family.step(&coll, &mut inbox, &mut ctx.state, generation, whole)?;
            ctx.generation = next;

            if is_nature && periodic {
                ctx.periodic = Some(family.snapshot(&ctx.state, next));
            }
            if let Some(t0) = timer {
                let ns = t0.elapsed().as_nanos() as u64;
                if ctx.generation_ns.len() < obs::GENERATION_TIMING_CAP {
                    ctx.generation_ns.push(ns);
                }
            }
        }

        // Refresh the boundary one last time: a peer death first observed
        // at the teardown barrier must still checkpoint the *final* state.
        if is_nature && fault_aware {
            ctx.boundary = Some(family.snapshot(&ctx.state, ctx.generation));
        }
        coll.barrier(G::BARRIER)?;
        Ok(())
    })();
    (ctx, result)
}

/// What rank 0 (`Ok(Outcome)` / `Err(Some)`) or a compute rank
/// (`Ok(Piece)` / `Err(None)`) hands back to [`launch`].
type RankResult<O, P, C> = Result<Finished<O, P>, Option<Box<Degraded<C>>>>;

enum Finished<O, P> {
    Outcome(O),
    Piece(P),
}

/// Run `protocol` on `ranks` virtual ranks under `faults` and settle the
/// result: the outcome plus the cluster's message total. The total is read
/// after every rank joined, so it is exact — rank 0's own view could miss
/// peers' in-flight final sends and would vary run to run.
///
/// A plan that drops or delays a message must set a receive deadline, or
/// no rank is spawned: a rank waiting on a lost push, or on a delayed one
/// whose sender waits on it in turn, would never return.
pub(super) fn launch<P: Protocol>(
    ranks: usize,
    faults: &FaultPlan,
    protocol: P,
) -> Result<(P::Outcome, u64), DistError<P::Checkpoint>> {
    let loses = faults.messages.faults.iter().any(|f| f.action != FaultAction::Duplicate);
    if loses && faults.recv_timeout_ms.is_none() {
        return Err(DistError::Params("a fault plan that drops or delays a message needs recv_timeout_ms".into()));
    }
    let (results, messages_sent) = VirtualCluster::run_with_faults_counted(
        ranks,
        faults.messages.clone(),
        move |comm: Comm<P::Msg>| run_rank(&protocol, &comm),
    );
    Ok((fold(results, faults.is_empty(), P::agrees)?, messages_sent))
}

/// [`launch`] on a healthy virtual-time machine priced by `net`, plus the
/// makespan.
pub(super) fn launch_timed<P: Protocol>(
    ranks: usize,
    net: NetCosts,
    protocol: P,
) -> Result<(P::Outcome, u64, f64), DistError<P::Checkpoint>> {
    let (results, makespan, messages_sent) =
        simtime::run_timed_counted(ranks, net, move |comm: &TimedComm<P::Msg>| {
            run_rank(&protocol, comm)
        });
    Ok((fold(results, true, P::agrees)?, messages_sent, makespan))
}

/// Run one rank's body. A rank that fails kills itself before returning —
/// the cascade: peers blocked on it observe the death instead of waiting
/// forever — and rank 0 then takes the dead-rank census.
fn run_rank<P: Protocol, C: Messenger<Payload = P::Msg>>(
    protocol: &P,
    comm: &C,
) -> RankResult<P::Outcome, P::Piece, P::Checkpoint> {
    let rank = comm.rank();
    if rank == 0 {
        protocol.coordinate(comm).map(Finished::Outcome).map_err(|mut degraded| {
            comm.kill();
            degraded.dead_ranks = (0..comm.size())
                .filter(|&r| r != rank && !comm.is_alive(r))
                .collect();
            Some(degraded)
        })
    } else {
        protocol.compute(comm).map(Finished::Piece).map_err(|_| {
            comm.kill();
            None
        })
    }
}

/// Settle the per-rank results, which arrive in rank order.
fn fold<O, P, C>(
    results: Vec<RankResult<O, P, C>>,
    fault_free: bool,
    agrees: impl Fn(&O, &P) -> bool,
) -> Result<O, DistError<C>> {
    let mut outcome = None;
    let mut pieces: Vec<(Rank, P)> = Vec::new();
    for (rank, result) in results.into_iter().enumerate() {
        match result {
            Ok(Finished::Outcome(o)) => outcome = Some(o),
            Ok(Finished::Piece(p)) => pieces.push((rank, p)),
            Err(Some(degraded)) => return Err(DistError::Degraded(degraded)),
            Err(None) => {}
        }
    }
    let outcome = outcome.ok_or(DistError::Cluster(ClusterError::Disconnected))?;
    if fault_free {
        // Consistency of the replicated state — only meaningful when no
        // rank was killed mid-run. Divergence is a typed error, not a
        // panic: the caller decides whether to rerun or alert.
        if let Some(&(rank, _)) = pieces.iter().find(|(_, p)| !agrees(&outcome, p)) {
            return Err(DistError::ReplicaDivergence { rank });
        }
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn divergence_names_the_rank_that_sent_the_mismatching_piece() {
        let results: Vec<RankResult<u8, u8, ()>> = vec![
            Ok(Finished::Outcome(7)),
            Ok(Finished::Piece(7)),
            Ok(Finished::Piece(9)),
            Ok(Finished::Piece(7)),
        ];
        let err = fold(results, true, |o, p| o == p).unwrap_err();
        assert_eq!(err, DistError::ReplicaDivergence { rank: 2 });
    }
}
