//! Deterministic fault injection for the virtual cluster.
//!
//! The paper's production runs occupied up to 294,912 Blue Gene/P
//! processors for hours — a regime where node failure is a fact of life.
//! This module turns failure into a *reproducible input*: a [`FaultPlan`]
//! names, ahead of time, which ranks die at which generation and which
//! point-to-point sends the network drops, delays, or duplicates. The
//! distributed engine (`crate::dist`) executes the plan and must come out
//! the other side with a typed outcome — never a panic, never a hang
//! (docs/FAULT_TOLERANCE.md).
//!
//! # Determinism
//!
//! Random schedules are drawn from the dedicated [`Domain::Faults`] RNG
//! stream, disjoint by construction from every evolution stream
//! (`evo_core::rngstream`). Generating a fault plan therefore cannot
//! perturb a trajectory, and an empty plan leaves every code path
//! bit-identical to a run without fault support at all.

use evo_core::rngstream::{stream, Domain};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// What an injected network fault does to one point-to-point send.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultAction {
    /// The message is lost in transit; the sender still observes success
    /// (detected downstream only by receive deadlines, so a plan holding a
    /// drop must set one).
    Drop,
    /// Delivery is postponed past the sender's next send, or until its
    /// `Comm` drops. A receiver can wait on it while the sender, before its
    /// next send, waits on that receiver: only a receive deadline ends
    /// that wait, so a plan holding a delay must set one.
    Delay,
    /// The message is delivered twice; the protocol must tolerate stale
    /// duplicates.
    Duplicate,
}

/// One scheduled message fault: the `nth_send`-th logical send (0-based,
/// counted per sender across all destinations, collective traffic
/// included) issued by rank `src` suffers `action`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MessageFault {
    /// The sending rank whose send is faulted.
    pub src: usize,
    /// Per-sender logical send index the fault strikes.
    pub nth_send: u64,
    /// What happens to the message.
    pub action: FaultAction,
}

/// The transport-level fault schedule handed to
/// [`crate::comm::VirtualCluster::run_with_faults_counted`]. Empty by default —
/// and an empty schedule is provably inert: the lookup misses and the
/// send path is the ordinary one.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MessageFaults {
    /// The scheduled faults, in no particular order.
    pub faults: Vec<MessageFault>,
}

impl MessageFaults {
    /// The action scheduled for `src`'s `nth` send, if any.
    pub fn action(&self, src: usize, nth: u64) -> Option<FaultAction> {
        self.faults
            .iter()
            .find(|f| f.src == src && f.nth_send == nth)
            .map(|f| f.action)
    }

    /// `true` when no message fault is scheduled.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }
}

/// A rank killed at the start of a generation — the paper's node failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RankKill {
    /// The rank that dies.
    pub rank: usize,
    /// Generation (0-based) at whose start it dies.
    pub generation: u64,
}

/// The complete fault plan for one distributed run: rank kills, message
/// faults, and the receive deadline under which the engine detects lost
/// messages. Serialisable so a failing schedule can be recorded and
/// replayed exactly.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Ranks killed at generation boundaries.
    #[serde(default)]
    pub kills: Vec<RankKill>,
    /// Transport-level message faults.
    #[serde(default)]
    pub messages: MessageFaults,
    /// Receive deadline in milliseconds applied to the engine's collective
    /// and fitness receives while this plan is active. `None` keeps
    /// receives blocking (still aliveness-aware, so rank kills are always
    /// detected); a deadline is required to detect *dropped* messages from
    /// still-alive peers.
    #[serde(default)]
    pub recv_timeout_ms: Option<u64>,
}

impl FaultPlan {
    /// A plan injecting nothing — the default for every ordinary run.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// `true` when the plan schedules no fault at all (a deadline alone
    /// does not make a plan non-empty).
    pub fn is_empty(&self) -> bool {
        self.kills.is_empty() && self.messages.is_empty()
    }

    /// The plan a retry of a degraded run executes — the retry rule
    /// (docs/FAULT_TOLERANCE.md §3, its one statement): a retry resumes
    /// from the degraded checkpoint with kills and message faults spent and
    /// the receive deadline kept.
    pub fn spent(&self) -> FaultPlan {
        FaultPlan {
            recv_timeout_ms: self.recv_timeout_ms,
            ..FaultPlan::default()
        }
    }

    /// Whether `rank` is scheduled to die at the start of `generation`.
    pub fn kills_at(&self, rank: usize, generation: u64) -> bool {
        self.kills
            .iter()
            .any(|k| k.rank == rank && k.generation == generation)
    }

    /// Draw a random fault plan from the dedicated fault stream.
    ///
    /// The schedule is a pure function of `(seed, ranks, generations,
    /// num_kills, num_message_faults)` via
    /// `stream(seed, Domain::Faults, …)` — rerunning with the same inputs
    /// reproduces the same failures, and no evolution stream is touched.
    /// Kills target compute ranks only (`1..ranks`); the Nature Agent (rank
    /// 0) is the paper's records keeper and is killed only by explicit
    /// plans.
    pub fn seeded(
        seed: u64,
        ranks: usize,
        generations: u64,
        num_kills: usize,
        num_message_faults: usize,
    ) -> Self {
        assert!(ranks >= 2, "need the Nature Agent plus a compute rank");
        let mut rng = stream(seed, Domain::Faults, 0, 0);
        let kills = (0..num_kills)
            .map(|_| RankKill {
                rank: rng.random_range(1..ranks),
                generation: rng.random_range(0..generations.max(1)),
            })
            .collect();
        let faults = (0..num_message_faults)
            .map(|_| MessageFault {
                src: rng.random_range(0..ranks),
                nth_send: rng.random_range(0..64),
                action: match rng.random_range(0..3) {
                    0 => FaultAction::Drop,
                    1 => FaultAction::Delay,
                    _ => FaultAction::Duplicate,
                },
            })
            .collect();
        FaultPlan {
            kills,
            messages: MessageFaults { faults },
            recv_timeout_ms: Some(500),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_inert() {
        let plan = FaultPlan::none();
        assert!(plan.is_empty());
        assert!(!plan.kills_at(1, 0));
        assert_eq!(plan.messages.action(0, 0), None);
    }

    #[test]
    fn a_spent_plan_keeps_only_the_receive_deadline() {
        let plan = FaultPlan::seeded(5, 4, 40, 2, 3);
        assert!(!plan.kills.is_empty() && !plan.messages.is_empty());
        let spent = plan.spent();
        assert!(spent.is_empty(), "kills and message faults are spent");
        assert_eq!(spent.recv_timeout_ms, plan.recv_timeout_ms, "deadline kept");
        assert_eq!(FaultPlan::none().spent(), FaultPlan::none());
    }

    #[test]
    fn seeded_plans_are_reproducible() {
        let a = FaultPlan::seeded(7, 4, 100, 2, 3);
        let b = FaultPlan::seeded(7, 4, 100, 2, 3);
        assert_eq!(a, b);
        let c = FaultPlan::seeded(8, 4, 100, 2, 3);
        assert_ne!(a, c, "different seeds give different schedules");
    }

    #[test]
    fn seeded_kills_spare_the_nature_agent() {
        for seed in 0..20 {
            let plan = FaultPlan::seeded(seed, 5, 50, 3, 0);
            assert!(plan.kills.iter().all(|k| k.rank >= 1 && k.rank < 5));
            assert!(plan.kills.iter().all(|k| k.generation < 50));
        }
    }

    #[test]
    fn fault_stream_is_disjoint_from_evolution_streams() {
        // Drawing a plan must not change what the Nature stream yields.
        use rand::Rng as _;
        let mut before = stream(42, Domain::Nature, 1, 0);
        let nature_before: u64 = before.random();
        let _plan = FaultPlan::seeded(42, 4, 100, 2, 2);
        let mut after = stream(42, Domain::Nature, 1, 0);
        let nature_after: u64 = after.random();
        assert_eq!(nature_before, nature_after);
    }

    #[test]
    fn plan_roundtrips_through_json() {
        let plan = FaultPlan::seeded(3, 4, 40, 1, 2);
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(plan, back);
        // Older configs without the new fields parse as the empty plan.
        let legacy: FaultPlan = serde_json::from_str("{}").unwrap();
        assert!(legacy.is_empty());
        assert_eq!(legacy.recv_timeout_ms, None);
    }

    #[test]
    fn message_fault_lookup_matches_exactly() {
        let faults = MessageFaults {
            faults: vec![MessageFault {
                src: 2,
                nth_send: 5,
                action: FaultAction::Drop,
            }],
        };
        assert_eq!(faults.action(2, 5), Some(FaultAction::Drop));
        assert_eq!(faults.action(2, 4), None);
        assert_eq!(faults.action(1, 5), None);
    }
}
