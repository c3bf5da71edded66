//! Virtual-time execution: a conservative logical-clock performance
//! simulator layered on the functional cluster.
//!
//! Each rank carries a local virtual clock. Computation advances it
//! explicitly ([`Messenger::compute`]); every message is stamped with its
//! arrival time `send_clock + α + hops·c_hop` (hops from the torus
//! topology), and a receive advances the receiver's clock to at least that
//! arrival. The run's **makespan** — the maximum clock over all ranks — is
//! the simulated wall-clock of the whole program (à la LogGOPSim).
//!
//! [`crate::dist::run_distributed_timed`] runs the distributed engine's
//! own generation frame on [`TimedComm`] ranks, each game a rank evaluates
//! charged at the profile's per-game cost, so the makespan prices the
//! protocol the engine runs, exactly and deterministically — the number
//! `reproduce fig7` sets beside the closed-form model in [`crate::perf`].
//!
//! The simulator models a *healthy* machine: [`TimedComm`] keeps the
//! [`Messenger`] trait's default deadline-free receive, and the timed
//! entry refuses a fault plan, so fault injection and recv deadlines
//! (docs/FAULT_TOLERANCE.md) never skew makespans here.

use crate::collective::Messenger;
use crate::comm::{ClusterError, Comm, Envelope, Rank, Tag, VirtualCluster};
use crate::faults::MessageFaults;
use crate::perf::MachineProfile;
use crate::topology::Torus3D;
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
#[derive(Debug)]
pub struct TimedComm<T> {
    comm: Comm<Timed<T>>,
    clock: Cell<f64>,
    net: Arc<NetCosts>,
}

impl<T> TimedComm<T> {
    /// This rank's current virtual time.
    pub fn now(&self) -> f64 {
        self.clock.get()
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
        // detlint: allow(comm-discipline, reason = "virtual-time wrapper: TimedComm models a fault-free network (no injected kills, no drops), and it forwards to the aliveness-aware Comm::recv underneath, so a rank that fails and kills itself surfaces as RankDead, not a hang")
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

    fn kill(&self) {
        self.comm.kill();
    }

    fn is_alive(&self, rank: Rank) -> bool {
        self.comm.is_alive(rank)
    }

    fn compute(&self, seconds: f64) {
        debug_assert!(seconds >= 0.0);
        self.clock.set(self.clock.get() + seconds);
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
    let (results, makespan, _) = run_timed_counted(size, net, body);
    (results, makespan)
}

/// [`run_timed`] plus the cluster's exact message total.
pub(crate) fn run_timed_counted<T, R, F>(size: usize, net: NetCosts, body: F) -> (Vec<R>, f64, u64)
where
    T: Send + Clone + 'static,
    R: Send + 'static,
    F: Fn(&TimedComm<T>) -> R + Send + Sync + 'static,
{
    let net = Arc::new(net);
    let (results, messages_sent) =
        VirtualCluster::run_with_faults_counted(size, MessageFaults::default(), move |comm| {
            let timed = TimedComm { comm, clock: Cell::new(0.0), net: Arc::clone(&net) };
            let r = body(&timed);
            (r, timed.now())
        });
    let makespan = results
        .iter()
        .map(|(_, t)| *t)
        .fold(0.0f64, f64::max);
    (results.into_iter().map(|(r, _)| r).collect(), makespan, messages_sent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collective::Collective;

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
}
