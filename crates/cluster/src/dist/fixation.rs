//! Distributed fixation batches: replicate sharding over the virtual
//! cluster (docs/FIXATION.md).
//!
//! A fixation batch is embarrassingly parallel — every replicate is a pure
//! function of `(spec, replicate index)` (the `Domain::Fixation` stream
//! contract, `evo_core::fixation`) — so the distributed mapping is plain
//! block sharding: rank 0 coordinates, compute ranks `1..ranks` each own a
//! contiguous block of replicate indices ([`super::owned_range`] over the
//! replicate axis), run them locally in ascending order, and return each
//! [`ReplicateResult`] to rank 0 point-to-point. No broadcasts, no
//! collectives: nothing global ever changes mid-run.
//!
//! Because results are recorded by replicate index (never by arrival), the
//! assembled [`FixationOutcome`] — counts, records, digest — is
//! bit-identical to [`evo_core::fixation::FixationBatch::run`] on shared
//! memory at any rank count, thread count, or resume split; the
//! integration tests pin this down.
//!
//! # Fault tolerance
//!
//! Same typed-termination contract as the well-mixed engine
//! (docs/FAULT_TOLERANCE.md): a fault-plan kill lands on a compute rank
//! *between* replicates (the replicate index is the kill schedule's
//! generation axis), the rank kills itself, and rank 0's source-filtered
//! (or deadline-bound) receive surfaces the death as a typed
//! [`FixationDegradedRun`] that always carries a [`FixationCheckpoint`] of
//! every replicate completed so far. Resuming runs only the missing replicates,
//! so the stitched outcome is bit-identical to an uninterrupted run.

use super::driver::{self, Inbox, Protocol, RankError};
use super::{owned_range, Degraded, DistError};
use crate::collective::Messenger;
use crate::faults::FaultPlan;
use evo_core::fixation::{
    FixationBatch, FixationCheckpoint, FixationOutcome, FixationSpec, ReplicateResult,
};
use evo_core::paycache::PayoffCache;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Point-to-point tag for replicate results (disjoint from the well-mixed
/// engine's fitness tag by construction — the two protocols never share a
/// cluster).
const RESULT_TAG: crate::comm::Tag = 2;

/// The runner's one message, a finished replicate returned to rank 0, is
/// stamped with its replicate index.
impl driver::Stamped for ReplicateResult {
    fn stamp(&self) -> Option<u64> {
        Some(u64::from(self.replicate))
    }
}

/// Configuration of a distributed fixation batch. Construct with
/// [`FixationDistConfig::new`] and set the optional fault-tolerance fields
/// as needed; the defaults are a fault-free run of the full batch.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FixationDistConfig {
    /// The batch to run (shared with the shared-memory runner).
    pub spec: FixationSpec,
    /// Total ranks including the coordinator (rank 0); ≥ 2.
    pub ranks: usize,
    /// Deterministic fault schedule. The **replicate index** is the kill
    /// schedule's generation axis: `kills_at(rank, r)` kills `rank` just
    /// before it would run replicate `r`. Empty = fault-free.
    #[serde(default)]
    pub faults: FaultPlan,
    /// Resume from a checkpoint: its `spec` drives the run (`spec` above
    /// is ignored when set) and its completed replicates are skipped.
    #[serde(default)]
    pub resume: Option<FixationCheckpoint>,
}

impl FixationDistConfig {
    /// A fault-free run of the full batch.
    pub fn new(spec: FixationSpec, ranks: usize) -> Self {
        FixationDistConfig {
            spec,
            ranks,
            faults: FaultPlan::default(),
            resume: None,
        }
    }
}

/// Result of a distributed fixation batch.
#[derive(Debug, Clone)]
pub struct FixationDistOutcome {
    /// The assembled batch outcome — bit-identical to the shared-memory
    /// runner's.
    pub outcome: FixationOutcome,
    /// Total point-to-point messages the run sent.
    pub messages_sent: u64,
}

/// A degraded fixation batch: the restartable snapshot is a
/// [`FixationCheckpoint`] of every replicate received so far, and it is
/// *always* present — completed replicate results are self-consistent at
/// any instant, so no fault plan is needed to maintain one.
pub type FixationDegradedRun = Degraded<FixationCheckpoint>;

/// The replicate-farm protocol: the batch's configuration, its `spec`
/// already the one driving the run, shipped into the cluster closure once.
struct Farm {
    config: FixationDistConfig,
}

impl Farm {
    /// The replicates the resume checkpoint already holds.
    fn completed(&self) -> &[ReplicateResult] {
        self.config.resume.as_ref().map_or(&[], |cp| &cp.completed)
    }

    /// Whether the resume checkpoint holds replicate `r` (its results are
    /// in replicate order: `run_fixation_distributed` sorts them).
    fn is_completed(&self, r: u32) -> bool {
        self.completed().binary_search_by_key(&r, |c| c.replicate).is_ok()
    }
}

/// Run a fixation batch across `ranks` virtual ranks and return the
/// assembled outcome — bit-identical to the shared-memory
/// [`FixationBatch::run`] for the same spec.
///
/// # Errors
///
/// - [`DistError::Params`] — invalid spec or rank count.
/// - [`DistError::Degraded`] — a fault (injected or emergent) was
///   detected; the payload carries the dead ranks and a restartable
///   checkpoint of every completed replicate.
/// - [`DistError::Cluster`] / [`DistError::Protocol`] — low-level failures
///   with no degraded-mode context.
pub fn run_fixation_distributed(
    config: &FixationDistConfig,
) -> Result<FixationDistOutcome, DistError<FixationCheckpoint>> {
    let _span = obs::span("dist.fixation");
    if config.ranks < 2 {
        return Err(DistError::Params(
            "need the coordinator plus at least one compute rank".into(),
        ));
    }
    // A resumed run is driven by the checkpoint's own spec (it carries the
    // batch seed and replicate count of the original run).
    let mut config = config.clone();
    match &mut config.resume {
        Some(cp) => {
            cp.validate().map_err(|e| DistError::Params(e.to_string()))?;
            cp.completed.sort_by_key(|r| r.replicate);
            config.spec = cp.spec.clone();
        }
        None => {
            config.spec.validate().map_err(|e| DistError::Params(e.to_string()))?;
        }
    }
    let (outcome, messages_sent) =
        driver::launch(config.ranks, &config.faults.clone(), Farm { config })?;
    Ok(FixationDistOutcome { outcome, messages_sent })
}

/// Compute ranks run their owned replicates in ascending index order and
/// send each result to rank 0; rank 0 asks for them in the same order
/// through the stamped receive, which drops a duplicated result and keeps
/// one that a delay put ahead of its turn, and assembles the outcome.
impl Protocol for Farm {
    type Msg = ReplicateResult;
    type Outcome = FixationOutcome;
    /// Nothing is replicated: every result already travelled to rank 0.
    type Piece = ();
    type Checkpoint = FixationCheckpoint;

    /// Coordinator body: stamped receives in deterministic (rank-major,
    /// replicate-ascending) order, recording each result into a
    /// bookkeeping [`FixationBatch`]. On error, the report snapshots exactly
    /// what was received.
    fn coordinate<C: Messenger<Payload = ReplicateResult>>(
        &self,
        comm: &C,
    ) -> Result<FixationOutcome, Box<FixationDegradedRun>> {
        let mut batch = FixationBatch::new(self.config.spec.clone())
            // detlint: allow(panic-path, reason = "run_fixation_distributed validated this exact spec before any rank started; re-validation cannot fail")
            .expect("spec validated by run_fixation_distributed");
        for c in self.completed() {
            batch.record(*c);
        }

        let stopped = |e: RankError, batch: &FixationBatch| {
            let completed = batch.completed().len() as u64;
            driver::stopped(&e, completed, Some(batch.checkpoint()), Vec::new())
        };

        let mut inbox = Inbox::new(&self.config.faults);
        for src in 1..comm.size() {
            for r in owned_range(src, self.config.spec.replicates as usize, comm.size()) {
                let r = r as u32;
                if self.is_completed(r) {
                    continue;
                }
                match inbox.recv_stamped(comm, src, RESULT_TAG, u64::from(r)) {
                    Ok(result) => batch.record(result),
                    Err(e) => return Err(stopped(e, &batch)),
                }
            }
        }
        Ok(batch.outcome())
    }

    /// Compute-rank body: run owned, not-yet-completed replicates in ascending
    /// order, sharing one payoff cache across them, and send each result home.
    fn compute<C: Messenger<Payload = ReplicateResult>>(&self, comm: &C) -> Result<(), RankError> {
        let rank = comm.rank();
        let owned = owned_range(rank, self.config.spec.replicates as usize, comm.size());
        let cache = Arc::new(PayoffCache::new(self.config.spec.params.game));
        for r in owned {
            let r = r as u32;
            if self.is_completed(r) {
                continue;
            }
            driver::check_kill(&self.config.faults, rank, u64::from(r))?;
            let result = self.config.spec.run_replicate(r, Some(&cache));
            comm.send(0, RESULT_TAG, result)?;
        }
        Ok(())
    }

    fn agrees(_: &FixationOutcome, (): &()) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultAction, MessageFault, MessageFaults, RankKill};
    use evo_core::params::{Params, UpdateRule};
    use ipd::state::StateSpace;
    use ipd::strategy::Strategy;

    fn spec(seed: u64, replicates: u32) -> FixationSpec {
        let space = StateSpace::new(1).unwrap();
        let mut params = Params {
            mem_steps: 1,
            num_ssets: 8,
            generations: 150,
            seed,
            pc_rate: 1.0,
            mutation_rate: 0.0,
            rule: UpdateRule::Moran,
            ..Params::default()
        };
        params.game.rounds = 10;
        FixationSpec {
            params,
            resident: Strategy::Pure(ipd::classic::all_c(&space)),
            mutant: Strategy::Pure(ipd::classic::all_d(&space)),
            replicates,
        }
    }

    #[test]
    fn distributed_matches_shared_memory_at_any_rank_count() {
        let expected = FixationBatch::new(spec(5, 12)).unwrap().run();
        for ranks in [2usize, 3, 4, 7] {
            let out =
                run_fixation_distributed(&FixationDistConfig::new(spec(5, 12), ranks)).unwrap();
            assert_eq!(out.outcome, expected, "ranks {ranks}");
            assert_eq!(out.outcome.digest(), expected.digest(), "ranks {ranks}");
            assert!(out.messages_sent >= 12, "every replicate travels once");
        }
    }

    #[test]
    fn more_ranks_than_replicates_still_works() {
        let expected = FixationBatch::new(spec(6, 3)).unwrap().run();
        let out = run_fixation_distributed(&FixationDistConfig::new(spec(6, 3), 9)).unwrap();
        assert_eq!(out.outcome, expected);
    }

    #[test]
    fn too_few_ranks_is_a_params_error() {
        let err = run_fixation_distributed(&FixationDistConfig::new(spec(1, 4), 1)).unwrap_err();
        assert!(matches!(err, DistError::Params(_)));
    }

    #[test]
    fn invalid_spec_is_a_params_error() {
        let mut s = spec(1, 4);
        s.params.mutation_rate = 0.1;
        let err = run_fixation_distributed(&FixationDistConfig::new(s, 3)).unwrap_err();
        assert!(matches!(err, DistError::Params(_)));
    }

    #[test]
    fn a_plan_that_can_lose_a_message_needs_a_deadline() {
        for action in [FaultAction::Drop, FaultAction::Delay] {
            let mut cfg = FixationDistConfig::new(spec(9, 10), 3);
            cfg.faults.messages = MessageFaults {
                faults: vec![MessageFault { src: 1, nth_send: 1, action }],
            };
            let err = run_fixation_distributed(&cfg).unwrap_err();
            assert!(matches!(err, DistError::Params(_)), "{action:?}: {err}");
        }
    }

    /// Rank 1 owns replicates 0..5 and sends one result each. A duplicated
    /// result is dropped when the next replicate is asked for; a delayed
    /// one arrives behind its successor, which waits in the inbox.
    #[test]
    fn duplicated_and_delayed_results_leave_the_outcome_clean() {
        let clean = FixationBatch::new(spec(9, 10)).unwrap().run();
        let plans = [
            (FaultAction::Duplicate, 0),
            (FaultAction::Duplicate, 1),
            (FaultAction::Duplicate, 3),
            (FaultAction::Delay, 0),
        ];
        for (action, nth_send) in plans {
            let mut cfg = FixationDistConfig::new(spec(9, 10), 3);
            cfg.faults.messages = MessageFaults {
                faults: vec![MessageFault { src: 1, nth_send, action }],
            };
            cfg.faults.recv_timeout_ms = Some(2_000);
            let out = run_fixation_distributed(&cfg)
                .unwrap_or_else(|e| panic!("{action:?} on send {nth_send}: {e}"));
            assert_eq!(out.outcome, clean, "{action:?} on send {nth_send}");
        }
    }

    #[test]
    fn rank_kill_degrades_cleanly_with_checkpoint() {
        let mut cfg = FixationDistConfig::new(spec(9, 10), 3);
        // Kill rank 1 just before its third owned replicate (global index 2).
        cfg.faults.kills = vec![RankKill {
            rank: 1,
            generation: 2,
        }];
        let err = run_fixation_distributed(&cfg).unwrap_err();
        let DistError::Degraded(d) = err else {
            panic!("expected FixationDegradedRun, got {err}");
        };
        assert!(d.dead_ranks.contains(&1), "dead ranks: {:?}", d.dead_ranks);
        assert!(d.completed < 10);
        let cp = d.checkpoint.expect("fixation batches always checkpoint");
        assert_eq!(
            cp.completed.len() as u64,
            d.completed,
            "checkpoint carries exactly the received replicates"
        );
    }

    #[test]
    fn degraded_batch_resumes_bit_identical_to_uninterrupted() {
        let clean = run_fixation_distributed(&FixationDistConfig::new(spec(11, 10), 3))
            .unwrap()
            .outcome;

        let mut cfg = FixationDistConfig::new(spec(11, 10), 3);
        cfg.faults.kills = vec![RankKill {
            rank: 2,
            generation: 7,
        }];
        let DistError::Degraded(d) = run_fixation_distributed(&cfg).unwrap_err() else {
            panic!("expected degraded batch");
        };
        let mut retry = cfg.clone();
        retry.faults = cfg.faults.spent();
        retry.resume = Some(d.checkpoint.expect("fixation batches always checkpoint"));
        let resumed = run_fixation_distributed(&retry).unwrap();
        assert_eq!(resumed.outcome, clean, "stitched outcome matches clean run");
        assert_eq!(resumed.outcome.digest(), clean.digest());
    }

    #[test]
    fn periodic_checkpoint_resumes_bit_identical() {
        let clean = run_fixation_distributed(&FixationDistConfig::new(spec(13, 9), 3))
            .unwrap()
            .outcome;
        // A prefix checkpoint spanning both rank blocks (0..4 and 4..9):
        // the distributed batch runs only the missing replicate.
        let mut shared = FixationBatch::new(spec(13, 9)).unwrap();
        for _ in 0..8 {
            shared.run_step();
        }
        let cp = shared.checkpoint();
        assert_eq!(cp.completed.len(), 8);

        let mut resumed_cfg = FixationDistConfig::new(cp.spec.clone(), 3);
        resumed_cfg.resume = Some(cp);
        let resumed = run_fixation_distributed(&resumed_cfg).unwrap();
        assert_eq!(resumed.outcome, clean);
    }
}
