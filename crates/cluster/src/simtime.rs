//! Virtual-time execution: a conservative logical-clock performance
//! simulator layered on the functional cluster.
//!
//! Each rank carries a local virtual clock. Computation advances it
//! explicitly ([`TimedComm::compute`]); every message is stamped with its
//! arrival time `send_clock + α + hops·c_hop` (hops from the torus
//! topology), and a receive advances the receiver's clock to at least that
//! arrival. The run's **makespan** — the maximum clock over all ranks — is
//! the simulated wall-clock of the whole program, the LogP-style quantity
//! (à la LogGOPSim) that bridges the purely functional engine and the
//! closed-form model in [`crate::perf`]:
//!
//! - the *analytic* model can reach 262,144 processors but idealises
//!   pipelining and skew;
//! - the *virtual-time simulator* runs the real message-by-message
//!   protocol (collectives included, through the shared [`Messenger`]
//!   trait) at rank counts a workstation can host, capturing tree
//!   pipelining, stragglers, and serialisation exactly.
//!
//! [`simulate_run`] uses this to replay the distributed engine's §V
//! communication pattern with *charged* (not executed) game time, giving
//! simulated scaling curves that validate the analytic model's shape.
//!
//! The simulator models a *healthy* machine: [`TimedComm`] keeps the
//! [`Messenger`] trait's default deadline-free receive, so fault
//! injection and recv deadlines (docs/FAULT_TOLERANCE.md) are a
//! functional-engine concern that never skews makespans here.

use crate::collective::{Collective, Messenger};
use crate::comm::{ClusterError, Comm, Envelope, Rank, Tag, VirtualCluster};
use crate::perf::{MachineProfile, Workload};
use crate::topology::Torus3D;
use evo_core::fitness::FitnessPolicy;
use evo_core::nature::NatureAgent;
use evo_core::params::StrategyKind;
use std::cell::Cell;
use std::sync::Arc;

/// A payload carrying its virtual arrival time.
#[derive(Debug, Clone)]
pub struct Timed<T> {
    /// Virtual time at which the message is available at the receiver.
    pub arrival: f64,
    /// The wrapped payload.
    pub payload: T,
}

/// Per-message network cost parameters for the virtual-time layer.
#[derive(Debug, Clone)]
pub struct NetCosts {
    /// Fixed per-message latency (seconds).
    pub alpha: f64,
    /// Per-torus-hop transit cost (seconds).
    pub per_hop: f64,
    /// Receive-side software overhead added when a message is consumed.
    pub recv_overhead: f64,
    /// Topology used for hop counts.
    pub torus: Torus3D,
}

impl NetCosts {
    /// Costs from a machine profile and rank count (balanced torus).
    pub fn from_profile(profile: &MachineProfile, ranks: usize) -> Self {
        NetCosts {
            alpha: profile.alpha_p2p,
            per_hop: profile.per_hop,
            recv_overhead: profile.alpha_coll,
            torus: Torus3D::balanced(ranks),
        }
    }
}

/// A communicator whose sends and receives advance a per-rank virtual
/// clock. Implements [`Messenger`], so every collective algorithm runs on
/// it unchanged — each tree edge then contributes real simulated latency.
pub struct TimedComm<T> {
    comm: Comm<Timed<T>>,
    clock: Cell<f64>,
    net: Arc<NetCosts>,
}

impl<T> std::fmt::Debug for TimedComm<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimedComm")
            .field("comm", &self.comm)
            .field("clock", &self.clock)
            .finish_non_exhaustive()
    }
}

impl<T: Send + Clone + 'static> TimedComm<T> {
    /// Wrap a raw communicator.
    pub fn new(comm: Comm<Timed<T>>, net: Arc<NetCosts>) -> Self {
        TimedComm {
            comm,
            clock: Cell::new(0.0),
            net,
        }
    }

    /// This rank's current virtual time.
    pub fn now(&self) -> f64 {
        self.clock.get()
    }

    /// Charge `seconds` of local computation.
    pub fn compute(&self, seconds: f64) {
        debug_assert!(seconds >= 0.0);
        self.clock.set(self.clock.get() + seconds);
    }
}

impl<T: Send + Clone + 'static> Messenger for TimedComm<T> {
    type Payload = T;

    fn rank(&self) -> Rank {
        self.comm.rank()
    }

    fn size(&self) -> usize {
        self.comm.size()
    }

    fn send(&self, dst: Rank, tag: Tag, payload: T) -> Result<(), ClusterError> {
        let hops = self.net.torus.hops(self.comm.rank(), dst) as f64;
        let arrival = self.clock.get() + self.net.alpha + hops * self.net.per_hop;
        self.comm.send(dst, tag, Timed { arrival, payload })
    }

    fn recv(&self, src: Option<Rank>, tag: Option<Tag>) -> Result<Envelope<T>, ClusterError> {
        // detlint: allow(comm-discipline, reason = "virtual-time wrapper: TimedComm models a fault-free network (no kills, no drops), so a blocking receive cannot deadlock; it forwards to the aliveness-aware Comm::recv underneath")
        let env = self.comm.recv(src, tag)?;
        // Conservative clock rule: the receive completes no earlier than
        // both the local clock and the message's arrival.
        let t = self.clock.get().max(env.payload.arrival) + self.net.recv_overhead;
        self.clock.set(t);
        Ok(Envelope {
            src: env.src,
            dst: env.dst,
            tag: env.tag,
            payload: env.payload.payload,
        })
    }
}

/// Run `body` on `size` timed ranks; returns each rank's result paired
/// with its final clock, plus the makespan (max clock).
pub fn run_timed<T, R, F>(size: usize, net: NetCosts, body: F) -> (Vec<R>, f64)
where
    T: Send + Clone + 'static,
    R: Send + 'static,
    F: Fn(&TimedComm<T>) -> R + Send + Sync + 'static,
{
    let net = Arc::new(net);
    let results = VirtualCluster::run(size, move |comm: Comm<Timed<T>>| {
        let timed = TimedComm::new(comm, Arc::clone(&net));
        let r = body(&timed);
        (r, timed.now())
    });
    let makespan = results
        .iter()
        .map(|(_, t)| *t)
        .fold(0.0f64, f64::max);
    (results.into_iter().map(|(r, _)| r).collect(), makespan)
}

/// Simulate the distributed engine's per-generation protocol (§V-B) with
/// charged compute time: virtual ranks exchange the real schedule /
/// fitness / update messages while game play is *charged* from the
/// profile's per-game cost instead of executed. Returns the simulated
/// wall-clock seconds of the whole run.
///
/// This is the discrete-event counterpart of
/// [`crate::perf::PerfModel::predict`]; the two agree on shape (tested)
/// while the simulation additionally captures pipelining and skew.
pub fn simulate_run(
    workload: &Workload,
    profile: &MachineProfile,
    ranks: usize,
    policy: FitnessPolicy,
    seed: u64,
) -> f64 {
    assert!(ranks >= 2, "Nature Agent plus at least one compute rank");
    let net = NetCosts::from_profile(profile, ranks);
    let game_cost = profile.game_cost[workload.mem_steps];
    let num_ssets = workload.num_ssets as usize;
    let generations = workload.generations;
    let nature = NatureAgent {
        pc_rate: workload.pc_rate,
        mutation_rate: workload.mutation_rate,
        beta: 1.0,
        teacher_must_be_fitter: true,
        kind: StrategyKind::Pure,
        mutation_kind: Default::default(),
        seed,
    };
    let (_, makespan) = run_timed(ranks, net, move |comm: &TimedComm<u64>| {
        let coll = Collective::new(comm);
        let rank = comm.rank();
        let is_nature = rank == 0;
        for generation in 0..generations {
            // Schedule broadcast.
            let schedule = nature.schedule(num_ssets as u32, generation);
            let encoded = match schedule.pc {
                Some((t, l)) => 1 + ((t as u64) << 32 | l as u64),
                None => 0,
            };
            let word = coll
                .bcast(0, is_nature.then_some(encoded))
                .expect("schedule bcast");
            let pc = (word != 0).then(|| {
                let w = word - 1;
                ((w >> 32) as usize, (w & 0xffff_ffff) as usize)
            });
            // Charge game dynamics. Following §V, an SSet's agents (one
            // per opponent game) are spread across the compute nodes, so
            // per-rank work is the global game count divided by the
            // compute ranks — exactly what the analytic model charges.
            let compute_ranks = comm.size() - 1;
            if !is_nature {
                let games_total = match policy {
                    FitnessPolicy::EveryGeneration => num_ssets * num_ssets,
                    FitnessPolicy::OnDemand => {
                        if pc.is_some() {
                            2 * num_ssets
                        } else {
                            0
                        }
                    }
                };
                // Balanced share, quantised up (the straggler defines the
                // generation's critical path).
                let my_games = games_total.div_ceil(compute_ranks);
                comm.compute(my_games as f64 * game_cost);
            }
            // Fitness returns: every compute rank holds agents of the
            // selected SSets, so the teacher's and learner's partial sums
            // flow to the Nature Agent as reductions over the tree.
            if pc.is_some() {
                for _ in 0..2 {
                    let _ = coll.reduce(0, 1u64, |a, b| a + b).expect("fitness reduce");
                }
                let _ = coll
                    .bcast(0, is_nature.then_some(1u64))
                    .expect("outcome bcast");
            }
            // Mutation broadcast.
            if schedule.mutation.is_some() {
                let _ = coll
                    .bcast(0, is_nature.then_some(2u64))
                    .expect("mutation bcast");
            }
        }
        0u8
    });
    makespan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::PerfModel;

    fn net(ranks: usize) -> NetCosts {
        NetCosts {
            alpha: 1e-6,
            per_hop: 1e-7,
            recv_overhead: 5e-7,
            torus: Torus3D::balanced(ranks),
        }
    }

    #[test]
    fn clocks_respect_message_causality() {
        // Receiver's clock after recv ≥ sender's send time + latency.
        let (results, makespan) = run_timed(2, net(2), |comm: &TimedComm<f64>| {
            if comm.rank() == 0 {
                comm.compute(1.0);
                let sent_at = comm.now();
                comm.send(1, 0, sent_at).unwrap();
                sent_at
            } else {
                let env = comm.recv(None, Some(0)).unwrap();
                assert!(
                    comm.now() > env.payload,
                    "receiver clock {} must pass sender time {}",
                    comm.now(),
                    env.payload
                );
                comm.now()
            }
        });
        assert!(makespan >= results[1]);
        assert!(makespan > 1.0);
    }

    #[test]
    fn compute_advances_only_local_clock() {
        let (results, _) = run_timed(3, net(3), |comm: &TimedComm<u8>| {
            if comm.rank() == 1 {
                comm.compute(5.0);
            }
            comm.now()
        });
        assert_eq!(results[0], 0.0);
        assert_eq!(results[1], 5.0);
        assert_eq!(results[2], 0.0);
    }

    #[test]
    fn timed_bcast_cost_grows_logarithmically() {
        // Broadcast completion time should grow ~log2(P), not ~P.
        let time_for = |p: usize| -> f64 {
            let (results, _) = run_timed(p, net(p), |comm: &TimedComm<u8>| {
                let coll = Collective::new(comm);
                coll.bcast(0, (comm.rank() == 0).then_some(1)).unwrap();
                comm.now()
            });
            results.iter().cloned().fold(0.0, f64::max)
        };
        let t4 = time_for(4);
        let t16 = time_for(16);
        let t64 = time_for(64);
        assert!(t16 > t4 && t64 > t16);
        // Ratio between successive 4x steps stays near log growth:
        // t64/t16 should be well under the 4x a linear broadcast would pay.
        assert!(t64 / t16 < 2.5, "t16 {t16}, t64 {t64}");
    }

    #[test]
    fn barrier_synchronises_clocks_forward() {
        let (results, _) = run_timed(4, net(4), |comm: &TimedComm<u8>| {
            if comm.rank() == 2 {
                comm.compute(3.0); // straggler
            }
            let coll = Collective::new(comm);
            coll.barrier(0).unwrap();
            comm.now()
        });
        // After a barrier everyone's clock is at least the straggler's.
        for (r, &t) in results.iter().enumerate() {
            assert!(t >= 3.0, "rank {r} clock {t} behind straggler");
        }
    }

    #[test]
    fn simulated_run_matches_analytic_model_shape() {
        // Same workload, shrunk to simulator scale: efficiency from the
        // discrete-event simulation must decrease with ranks and stay
        // within the unit interval, and runtime within 3x of the analytic
        // model at every point.
        let profile = MachineProfile::bluegene_p();
        let model = PerfModel::new(profile.clone());
        let w = Workload {
            num_ssets: 256,
            mem_steps: 6,
            generations: 40,
            pc_rate: 0.2,
            mutation_rate: 0.05,
            policy: FitnessPolicy::OnDemand,
        };
        let mut last_time = f64::INFINITY;
        for compute_ranks in [2usize, 4, 8, 16] {
            let sim = simulate_run(&w, &profile, compute_ranks + 1, w.policy, 7);
            let analytic = model.predict(&w, compute_ranks as u64);
            assert!(sim > 0.0);
            assert!(
                sim < last_time * 1.05,
                "simulated time should not grow with ranks: {sim} after {last_time}"
            );
            let ratio = sim / analytic;
            assert!(
                (0.2..=5.0).contains(&ratio),
                "{compute_ranks} ranks: simulated {sim} vs analytic {analytic}"
            );
            last_time = sim;
        }
    }

    #[test]
    fn simulated_weak_scaling_is_flat() {
        // The Fig 6 property, reproduced by discrete-event simulation:
        // SSets proportional to compute ranks, OnDemand policy.
        let profile = MachineProfile::bluegene_p();
        let mut times = Vec::new();
        for compute_ranks in [2usize, 4, 8] {
            let w = Workload {
                num_ssets: 64 * compute_ranks as u64,
                mem_steps: 6,
                generations: 30,
                pc_rate: 0.2,
                mutation_rate: 0.05,
                policy: FitnessPolicy::OnDemand,
            };
            times.push(simulate_run(&w, &profile, compute_ranks + 1, w.policy, 3));
        }
        let (min, max) = (
            times.iter().cloned().fold(f64::INFINITY, f64::min),
            times.iter().cloned().fold(0.0f64, f64::max),
        );
        assert!(
            max / min < 1.6,
            "weak scaling should stay near-flat: {times:?}"
        );
    }

    #[test]
    fn every_generation_policy_costs_more_than_on_demand() {
        let profile = MachineProfile::bluegene_p();
        let w = Workload {
            num_ssets: 128,
            mem_steps: 3,
            generations: 20,
            pc_rate: 0.1,
            mutation_rate: 0.05,
            policy: FitnessPolicy::EveryGeneration,
        };
        let every = simulate_run(&w, &profile, 5, FitnessPolicy::EveryGeneration, 1);
        let lazy = simulate_run(&w, &profile, 5, FitnessPolicy::OnDemand, 1);
        assert!(
            every > lazy * 3.0,
            "full evaluation {every} should dwarf on-demand {lazy}"
        );
    }
}
