//! The lifecycle every distributed runner shares (paper §V): rank 0
//! coordinates, compute ranks own a contiguous block, results fold home in
//! rank order. A runner implements [`Protocol`] — its message type and
//! the two rank bodies — and [`launch`] does the rest once: spawn the
//! virtual cluster under the plan's message faults, fold the per-rank
//! results, count the messages exactly, check the replicas of a fault-free
//! run, and on any rank's failure run the kill cascade and surface the
//! restartable [`Degraded`] payload (docs/FAULT_TOLERANCE.md).

use super::DistError;
use crate::collective::Collective;
use crate::comm::{ClusterError, Comm, Envelope, Rank, Tag, VirtualCluster};
use crate::faults::FaultPlan;
use evo_core::record::GenerationRecord;
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

/// Source-filtered receive, deadline-bound when the fault plan set one.
pub(super) fn recv_from<M: Send + Clone + 'static>(
    comm: &Comm<M>,
    faults: &FaultPlan,
    src: Rank,
    tag: Tag,
) -> Result<Envelope<M>, ClusterError> {
    match recv_deadline(faults) {
        Some(t) => comm.recv_timeout(Some(src), Some(tag), t),
        // detlint: allow(comm-discipline, reason = "explicit opt-out: no fault deadline in the plan; the source filter keeps it aliveness-aware (a dead peer surfaces as RankDead, not a hang)")
        None => comm.recv(Some(src), Some(tag)),
    }
}

/// Collectives over `comm`, deadline-bound when the fault plan set one.
pub(super) fn collective<'a, M: Send + Clone + 'static>(
    comm: &'a Comm<M>,
    faults: &FaultPlan,
) -> Collective<'a, Comm<M>> {
    match recv_deadline(faults) {
        Some(t) => Collective::with_recv_timeout(comm, t),
        None => Collective::new(comm),
    }
}

/// The fault plan's kill schedule, checked by `rank` at the boundary before
/// progress unit `unit` (a generation; a replicate for fixation batches).
pub(super) fn check_kill(faults: &FaultPlan, rank: Rank, unit: u64) -> Result<(), RankError> {
    if faults.kills_at(rank, unit) {
        obs::counters().add_fault_injected();
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
    type Msg: Send + Clone + 'static;
    /// What rank 0 assembles.
    type Outcome: Send + 'static;
    /// A compute rank's live share of the replicated state, checked
    /// against the outcome in fault-free runs.
    type Piece: Send + 'static;
    /// The restartable snapshot a degraded run carries.
    type Checkpoint: Send + 'static;

    /// Rank 0's whole run; on failure, the report built by [`stopped`].
    fn coordinate(
        &self,
        comm: &Comm<Self::Msg>,
    ) -> Result<Self::Outcome, Box<Degraded<Self::Checkpoint>>>;
    /// A compute rank's whole run.
    fn compute(&self, comm: &Comm<Self::Msg>) -> Result<Self::Piece, RankError>;
    /// Does a compute rank's final piece match rank 0's outcome?
    fn agrees(outcome: &Self::Outcome, piece: &Self::Piece) -> bool;
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
pub(super) fn launch<P: Protocol>(
    ranks: usize,
    faults: &FaultPlan,
    protocol: P,
) -> Result<(P::Outcome, u64), DistError<P::Checkpoint>> {
    let (results, messages_sent) = VirtualCluster::run_with_faults_counted(
        ranks,
        faults.messages.clone(),
        move |comm: Comm<P::Msg>| run_rank(&protocol, &comm),
    );
    Ok((fold(results, faults.is_empty(), P::agrees)?, messages_sent))
}

/// Run one rank's body. A rank that fails kills itself before returning —
/// the cascade: peers blocked on it observe the death instead of waiting
/// forever — and rank 0 then takes the dead-rank census.
fn run_rank<P: Protocol>(
    protocol: &P,
    comm: &Comm<P::Msg>,
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
