//! Virtual ranks and point-to-point messaging — the in-process MPI
//! stand-in.
//!
//! A [`VirtualCluster`] runs `P` *ranks*, each an OS thread holding a
//! [`Comm`] handle. Messages are typed envelopes delivered through
//! unbounded channels with the usual MPI guarantees: per-(sender, receiver)
//! ordering and tag-based matching with an out-of-order arrival buffer.
//! Failure injection (a rank can be killed) lets tests exercise the error
//! paths a real cluster would see.
//!
//! The transport is one [`std::sync::mpsc::channel`] per rank and this is
//! the only module that knows it. Every rank shares the `P` senders, one
//! rank thread owns each receiver. What the layers above lean on is what
//! `std` documents: an unbounded channel's `send` never blocks, messages
//! from one sending thread arrive in the order sent (per-(src, dst) FIFO),
//! `send` fails once the receiver has been dropped (a returned rank reads
//! as [`ClusterError::RankDead`]), and `recv_timeout` reports
//! `Disconnected` only when every sender is gone — which a live handle's
//! own `Arc` of the sender table rules out. Sharing the sender table
//! between rank threads needs `Sender: Sync`, i.e. Rust ≥ 1.72.
//!
//! This module *is* the concurrency substrate, so it is exempted from the
//! atomics rule wholesale: the liveness flags and message counter below
//! model MPI runtime state, and nothing they gate feeds back into
//! simulation trajectories (rank order and message contents are fixed by
//! the deterministic protocol in `dist.rs`).

// detlint: allow-file(atomics, reason = "virtual-cluster substrate: liveness flags and message counters model the MPI runtime; protocol determinism is pinned by dist.rs tests")
use crate::faults::{FaultAction, MessageFaults};
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A rank index in `0..size`.
pub type Rank = usize;

/// A message tag; collectives reserve tags ≥ [`Tag::MAX`]`/2`.
pub type Tag = u32;

/// A delivered message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope<T> {
    /// Sending rank.
    pub src: Rank,
    /// Receiving rank.
    pub dst: Rank,
    /// Matching tag.
    pub tag: Tag,
    /// Message body.
    pub payload: T,
}

/// Errors surfaced by the messaging layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// The destination rank is dead (killed or exited): the paper's
    /// equivalent of a node failure.
    RankDead(Rank),
    /// A rank index was out of range.
    InvalidRank(Rank),
    /// The channel closed mid-receive (peer ranks all gone).
    Disconnected,
    /// A deadline receive expired before a matching message arrived — the
    /// signature of a lost (dropped) message from a still-alive peer.
    Timeout,
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::RankDead(r) => write!(f, "rank {r} is dead"),
            ClusterError::InvalidRank(r) => write!(f, "rank {r} out of range"),
            ClusterError::Disconnected => write!(f, "all peers disconnected"),
            ClusterError::Timeout => write!(f, "receive deadline expired"),
        }
    }
}

impl std::error::Error for ClusterError {}

/// Per-cluster shared state.
struct Shared<T> {
    senders: Vec<Sender<Envelope<T>>>,
    alive: Vec<AtomicBool>,
    /// Total messages sent (communication-volume statistics for the
    /// perf-model validation).
    messages_sent: AtomicU64,
    /// Deterministic message-fault schedule (empty by default); looked up
    /// per (sender rank, per-sender send index).
    faults: MessageFaults,
}

/// A rank's communication handle: built only by the cluster spawn, one per
/// rank, and owned by that rank's thread alone. It is `Send` (the spawn
/// moves it into the thread) and not `Sync` — the inbox is a `std`
/// `Receiver` and the buffers beside it plain `RefCell`s, so a second
/// thread borrowing it does not compile:
///
/// ```compile_fail
/// use cluster::comm::{Comm, VirtualCluster};
/// VirtualCluster::run(2, |comm: Comm<u8>| {
///     std::thread::scope(|s| {
///         s.spawn(|| comm.rank()); // `&Comm<u8>` is not `Send`
///     });
/// });
/// ```
pub struct Comm<T> {
    rank: Rank,
    size: usize,
    shared: Arc<Shared<T>>,
    inbox: Receiver<Envelope<T>>,
    /// Arrived-but-unmatched messages, in arrival order.
    pending: RefCell<VecDeque<Envelope<T>>>,
    /// Logical sends issued by this rank (the key into the fault schedule).
    sends: Cell<u64>,
    /// Envelopes held back by a `Delay` fault; released after this rank's
    /// next send, or when the handle drops (delivery stays guaranteed).
    delayed: RefCell<Vec<Envelope<T>>>,
}

impl<T> Drop for Comm<T> {
    fn drop(&mut self) {
        // Release any still-delayed envelopes: a delay fault reorders
        // delivery, it never loses a message.
        for env in self.delayed.get_mut().drain(..) {
            let _ = self.shared.senders[env.dst].send(env);
        }
    }
}

impl<T> std::fmt::Debug for Comm<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Comm")
            .field("rank", &self.rank)
            .field("size", &self.size)
            .finish_non_exhaustive()
    }
}

/// How long an aliveness-aware blocking receive waits between re-checks of
/// the peer liveness flags. Purely a responsiveness knob: fault-free runs
/// never take the timeout branch, so the value cannot affect trajectories.
const ALIVENESS_POLL: Duration = Duration::from_millis(2);

impl<T: Send + Clone + 'static> Comm<T> {
    /// This rank's index.
    #[inline]
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// Number of ranks in the cluster.
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Send `payload` to `dst` with `tag`. Errors if `dst` is dead or out
    /// of range. Sends are non-blocking (channels are unbounded), like the
    /// paper's non-blocking point-to-point returns along the torus.
    ///
    /// `messages_sent` and the obs comm counters record only *successful*
    /// logical sends — a send that fails (dead or invalid destination) is
    /// not counted, so manifests don't overcount under faults. A message
    /// consumed by an injected `Drop` fault still counts: the sender did
    /// its work, the network lost the message.
    pub fn send(&self, dst: Rank, tag: Tag, payload: T) -> Result<(), ClusterError> {
        if dst >= self.size {
            return Err(ClusterError::InvalidRank(dst));
        }
        if !self.shared.alive[dst].load(Ordering::Acquire) {
            return Err(ClusterError::RankDead(dst));
        }
        let nth = self.sends.get();
        self.sends.set(nth + 1);
        let env = Envelope {
            src: self.rank,
            dst,
            tag,
            payload,
        };
        // Envelopes delayed by *earlier* sends flush after this message —
        // "delayed past the sender's next message", reordered never lost:
        // they are owed to their own destinations whatever this send
        // returns, so its error is raised only after the flush.
        let flush = self.delayed.take();
        let deliver = |env: Envelope<T>| {
            self.shared.senders[dst]
                .send(env)
                .map_err(|_| ClusterError::RankDead(dst))
        };
        let sent = match self.shared.faults.action(self.rank, nth) {
            None => deliver(env),
            Some(FaultAction::Drop) => {
                // The network loses the message; the send itself succeeded.
                obs::counters().add(obs::Counter::FaultsInjected, 1);
                Ok(())
            }
            Some(FaultAction::Duplicate) => {
                obs::counters().add(obs::Counter::FaultsInjected, 1);
                deliver(env.clone()).and_then(|()| deliver(env))
            }
            Some(FaultAction::Delay) => {
                obs::counters().add(obs::Counter::FaultsInjected, 1);
                self.delayed.borrow_mut().push(env);
                Ok(())
            }
        };
        for old in flush {
            let d = old.dst;
            let _ = self.shared.senders[d].send(old);
        }
        sent?;
        self.shared.messages_sent.fetch_add(1, Ordering::Relaxed);
        // comm_bytes uses the in-memory size of the payload type — a
        // deliberate lower-bound approximation for heap-owning payloads
        // (docs/OBSERVABILITY.md documents the contract).
        obs::counters().add_comm_message(std::mem::size_of::<T>() as u64);
        Ok(())
    }

    /// Blocking receive of the next message matching `src`/`tag` filters
    /// (`None` = wildcard, like `MPI_ANY_SOURCE` / `MPI_ANY_TAG`).
    /// Non-matching arrivals are buffered and stay available to later
    /// receives in arrival order.
    ///
    /// Aliveness-aware: once the pending buffer and inbox are exhausted, a
    /// receive filtered on a dead source — or a wildcard receive with every
    /// peer dead — returns [`ClusterError::RankDead`] (resp.
    /// [`ClusterError::Disconnected`]) instead of blocking forever. Dying
    /// gasps are honoured: messages a rank sent *before* killing itself are
    /// still delivered (the kill's `Release` store ordering guarantees they
    /// are visible by the time the death is observed).
    pub fn recv(
        &self,
        src: Option<Rank>,
        tag: Option<Tag>,
    ) -> Result<Envelope<T>, ClusterError> {
        self.recv_until(src, tag, None)
    }

    /// [`Comm::recv`] with a relative deadline: fails with
    /// [`ClusterError::Timeout`] if no matching message arrives within
    /// `timeout`. The MPI-style primitive behind the engine's lost-message
    /// detection (docs/FAULT_TOLERANCE.md).
    pub fn recv_timeout(
        &self,
        src: Option<Rank>,
        tag: Option<Tag>,
        timeout: Duration,
    ) -> Result<Envelope<T>, ClusterError> {
        // detlint: allow(wall-clock, reason = "deadline arithmetic for fault detection; fault-free runs never reach a timeout branch")
        self.recv_until(src, tag, Some(Instant::now() + timeout))
    }

    /// [`Comm::recv_timeout`] with an absolute deadline.
    pub fn recv_deadline(
        &self,
        src: Option<Rank>,
        tag: Option<Tag>,
        deadline: Instant,
    ) -> Result<Envelope<T>, ClusterError> {
        self.recv_until(src, tag, Some(deadline))
    }

    /// Shared receive loop: pending buffer → inbox drain → aliveness check
    /// → bounded wait, until a match, a detected failure, or the deadline.
    fn recv_until(
        &self,
        src: Option<Rank>,
        tag: Option<Tag>,
        deadline: Option<Instant>,
    ) -> Result<Envelope<T>, ClusterError> {
        let matches = |e: &Envelope<T>| {
            src.is_none_or(|s| e.src == s) && tag.is_none_or(|t| e.tag == t)
        };
        if let Some(env) = self.take_pending(&matches) {
            return Ok(env);
        }
        loop {
            // Drain everything already delivered before deciding anything.
            if let Some(env) = self.drain_inbox(&matches) {
                return Ok(env);
            }
            // Aliveness: a dead filtered source (or, for wildcards, a fully
            // dead peer set) can never produce the message we wait for.
            // The drain above ran *after* any `Acquire`-observable death,
            // so dying-gasp messages have already been consumed.
            if let Some(err) = self.peer_failure(src) {
                if let Some(env) = self.drain_inbox(&matches) {
                    return Ok(env);
                }
                return Err(err);
            }
            // Wait a bounded slice so deaths and deadlines stay observable.
            // detlint: allow(wall-clock, reason = "deadline arithmetic for fault detection; fault-free runs never reach a timeout branch")
            let now = Instant::now();
            let mut wait = ALIVENESS_POLL;
            if let Some(d) = deadline {
                if now >= d {
                    obs::counters().add(obs::Counter::CommTimeouts, 1);
                    return Err(ClusterError::Timeout);
                }
                wait = wait.min(d - now);
            }
            match self.inbox.recv_timeout(wait) {
                Ok(env) => {
                    if matches(&env) {
                        return Ok(env);
                    }
                    self.pending.borrow_mut().push_back(env);
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(ClusterError::Disconnected)
                }
            }
        }
    }

    /// Remove and return the first pending envelope matching `matches`.
    fn take_pending(&self, matches: &impl Fn(&Envelope<T>) -> bool) -> Option<Envelope<T>> {
        let mut pending = self.pending.borrow_mut();
        let pos = pending.iter().position(matches)?;
        // detlint: allow(panic-path, reason = "invariant: pos came from position() on the same queue under the same borrow; remove cannot miss")
        Some(pending.remove(pos).expect("position just found"))
    }

    /// Move every already-delivered envelope out of the inbox; return the
    /// first match (later matches stay in the pending buffer in order).
    fn drain_inbox(&self, matches: &impl Fn(&Envelope<T>) -> bool) -> Option<Envelope<T>> {
        let mut found = None;
        while let Ok(env) = self.inbox.try_recv() {
            if found.is_none() && matches(&env) {
                found = Some(env);
            } else {
                self.pending.borrow_mut().push_back(env);
            }
        }
        found
    }

    /// The error a receive filtered as `src` can no longer avoid, if any:
    /// the named source is dead, or (wildcard) every peer is dead.
    fn peer_failure(&self, src: Option<Rank>) -> Option<ClusterError> {
        match src {
            Some(s) => (!self.is_alive(s)).then_some(ClusterError::RankDead(s)),
            None => {
                let any_peer_alive = (0..self.size)
                    .any(|r| r != self.rank && self.shared.alive[r].load(Ordering::Acquire));
                (!any_peer_alive && self.size > 1).then_some(ClusterError::Disconnected)
            }
        }
    }

    /// Receive the next message regardless of source or tag.
    pub fn recv_any(&self) -> Result<Envelope<T>, ClusterError> {
        // detlint: allow(comm-discipline, reason = "the wildcard primitive itself: aliveness-aware (returns Disconnected when every peer is dead) and kept for diagnostics/tests; protocol code uses source-filtered, deadline-bound receives")
        self.recv(None, None)
    }

    /// Mark this rank dead (failure injection). Subsequent sends *to* it
    /// fail with [`ClusterError::RankDead`]. The rank's thread should
    /// return promptly after calling this.
    pub fn kill(&self) {
        self.shared.alive[self.rank].store(false, Ordering::Release);
    }

    /// Whether a rank is still alive.
    pub fn is_alive(&self, rank: Rank) -> bool {
        rank < self.size && self.shared.alive[rank].load(Ordering::Acquire)
    }

    /// Total messages sent across the whole cluster so far.
    pub fn cluster_messages_sent(&self) -> u64 {
        self.shared.messages_sent.load(Ordering::Relaxed)
    }
}

/// A virtual cluster: spawns `size` ranks as threads and joins them.
#[derive(Debug)]
pub struct VirtualCluster;

impl VirtualCluster {
    /// Run `body(comm)` on `size` ranks concurrently; returns each rank's
    /// result in rank order. Panics in a rank propagate after all ranks are
    /// joined.
    pub fn run<T, R, F>(size: usize, body: F) -> Vec<R>
    where
        T: Send + Clone + 'static,
        R: Send + 'static,
        F: Fn(Comm<T>) -> R + Send + Sync + 'static,
    {
        Self::run_with_faults_counted(size, MessageFaults::default(), body).0
    }

    /// [`VirtualCluster::run`] with a deterministic message-fault schedule
    /// injected at the transport (see [`crate::faults`]; an empty schedule
    /// behaves exactly like [`VirtualCluster::run`]), additionally returning
    /// the cluster-wide message total. The count is read **after every rank
    /// thread has joined**, so it is exact and schedule-independent —
    /// unlike [`Comm::cluster_messages_sent`] from inside a still-running
    /// rank, which can miss peers' in-flight final sends.
    pub fn run_with_faults_counted<T, R, F>(
        size: usize,
        faults: MessageFaults,
        body: F,
    ) -> (Vec<R>, u64)
    where
        T: Send + Clone + 'static,
        R: Send + 'static,
        F: Fn(Comm<T>) -> R + Send + Sync + 'static,
    {
        assert!(size > 0, "cluster needs at least one rank");
        let mut senders = Vec::with_capacity(size);
        let mut receivers = Vec::with_capacity(size);
        for _ in 0..size {
            let (tx, rx) = channel();
            senders.push(tx);
            receivers.push(rx);
        }
        let shared = Arc::new(Shared {
            senders,
            alive: (0..size).map(|_| AtomicBool::new(true)).collect(),
            messages_sent: AtomicU64::new(0),
            faults,
        });
        let body = Arc::new(body);
        let handles: Vec<_> = receivers
            .into_iter()
            .enumerate()
            .map(|(rank, inbox)| {
                let shared = Arc::clone(&shared);
                let body = Arc::clone(&body);
                std::thread::Builder::new()
                    .name(format!("rank-{rank}"))
                    .spawn(move || {
                        let comm = Comm {
                            rank,
                            size,
                            shared,
                            inbox,
                            pending: RefCell::new(VecDeque::new()),
                            sends: Cell::new(0),
                            delayed: RefCell::new(Vec::new()),
                        };
                        body(comm)
                    })
                    // detlint: allow(panic-path, reason = "invariant: thread spawn fails only on OS resource exhaustion at harness startup, before any protocol state exists; nothing to unwind into a typed outcome yet")
                    .expect("spawn rank thread")
            })
            .collect();
        let mut results = Vec::with_capacity(size);
        let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
        for h in handles {
            match h.join() {
                Ok(r) => results.push(r),
                Err(e) => panic = Some(e),
            }
        }
        if let Some(e) = panic {
            std::panic::resume_unwind(e);
        }
        let total = shared.messages_sent.load(Ordering::Relaxed);
        (results, total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::MessageFault;

    #[test]
    fn ring_pass_visits_every_rank() {
        // Each rank sends its rank id to the next; sum arrives intact.
        let results: Vec<usize> = VirtualCluster::run(8, |comm: Comm<usize>| {
            let next = (comm.rank() + 1) % comm.size();
            comm.send(next, 0, comm.rank()).unwrap();
            let env = comm.recv(None, Some(0)).unwrap();
            env.payload
        });
        let mut got = results.clone();
        got.sort_unstable();
        assert_eq!(got, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn point_to_point_ordering_preserved() {
        // Messages between a fixed (src, dst) pair with the same tag arrive
        // in send order.
        let results = VirtualCluster::run(2, |comm: Comm<u32>| {
            if comm.rank() == 0 {
                for i in 0..100 {
                    comm.send(1, 7, i).unwrap();
                }
                Vec::new()
            } else {
                (0..100)
                    .map(|_| comm.recv(Some(0), Some(7)).unwrap().payload)
                    .collect::<Vec<u32>>()
            }
        });
        assert_eq!(results[1], (0..100).collect::<Vec<u32>>());
    }

    #[test]
    fn tag_matching_buffers_out_of_order() {
        let results = VirtualCluster::run(2, |comm: Comm<&'static str>| {
            if comm.rank() == 0 {
                comm.send(1, 1, "first-sent").unwrap();
                comm.send(1, 2, "second-sent").unwrap();
                String::new()
            } else {
                // Receive tag 2 first even though tag 1 arrived first.
                let a = comm.recv(None, Some(2)).unwrap().payload;
                let b = comm.recv(None, Some(1)).unwrap().payload;
                format!("{a}|{b}")
            }
        });
        assert_eq!(results[1], "second-sent|first-sent");
    }

    #[test]
    fn source_matching_filters() {
        let results = VirtualCluster::run(3, |comm: Comm<usize>| {
            match comm.rank() {
                0 => {
                    comm.send(2, 0, 100).unwrap();
                    0
                }
                1 => {
                    comm.send(2, 0, 200).unwrap();
                    0
                }
                _ => {
                    // Ask for rank 1's message first.
                    let from1 = comm.recv(Some(1), None).unwrap().payload;
                    let from0 = comm.recv(Some(0), None).unwrap().payload;
                    from1 * 1000 + from0
                }
            }
        });
        assert_eq!(results[2], 200_100);
    }

    #[test]
    fn send_to_invalid_rank_errors() {
        VirtualCluster::run(2, |comm: Comm<u8>| {
            assert_eq!(comm.send(5, 0, 1), Err(ClusterError::InvalidRank(5)));
        });
    }

    #[test]
    fn send_to_dead_rank_errors() {
        // Rank 1 kills itself; rank 0 observes the death after a sync.
        // The barrier keeps rank 0's inbox open until rank 1's post-kill
        // send has landed: a returned rank drops its receiver, and a send
        // into a dropped receiver fails.
        let sent = Arc::new(std::sync::Barrier::new(2));
        VirtualCluster::run(2, move |comm: Comm<u8>| {
            if comm.rank() == 1 {
                comm.kill();
                comm.send(0, 9, 1).unwrap(); // a dead rank can still send
                sent.wait();
            } else {
                // The message is sent *after* the kill, so the filtered
                // receive may observe the death first. Either way rank 1
                // is dead once this returns.
                let synced = comm.recv(Some(1), Some(9));
                sent.wait();
                assert!(
                    matches!(synced, Ok(_) | Err(ClusterError::RankDead(1))),
                    "{synced:?}"
                );
                assert!(!comm.is_alive(1));
                assert_eq!(comm.send(1, 0, 1), Err(ClusterError::RankDead(1)));
            }
        });
    }

    #[test]
    fn recv_from_dead_rank_errors_instead_of_hanging() {
        // The deadlock this layer used to have: rank 1 dies without a
        // gasp; rank 0's filtered receive must error, not block forever.
        VirtualCluster::run(3, |comm: Comm<u8>| {
            if comm.rank() == 1 {
                comm.kill();
            } else if comm.rank() == 0 {
                assert_eq!(
                    comm.recv(Some(1), Some(4)),
                    Err(ClusterError::RankDead(1))
                );
            }
        });
    }

    #[test]
    fn dying_gasp_beats_death_detection() {
        // A message sent before kill() must be returned, not eaten by the
        // aliveness check, no matter how late the receiver starts waiting.
        VirtualCluster::run(2, |comm: Comm<u8>| {
            if comm.rank() == 1 {
                comm.send(0, 9, 42).unwrap();
                comm.kill();
            } else {
                std::thread::sleep(std::time::Duration::from_millis(30));
                assert_eq!(comm.recv(Some(1), Some(9)).unwrap().payload, 42);
                // Nothing further can come: now the death is the answer.
                assert_eq!(comm.recv(Some(1), Some(9)), Err(ClusterError::RankDead(1)));
            }
        });
    }

    #[test]
    fn wildcard_recv_disconnects_when_all_peers_die() {
        VirtualCluster::run(3, |comm: Comm<u8>| {
            if comm.rank() == 0 {
                assert_eq!(comm.recv_any(), Err(ClusterError::Disconnected));
            } else {
                comm.kill();
            }
        });
    }

    #[test]
    fn recv_timeout_expires_on_silent_peer() {
        VirtualCluster::run(2, |comm: Comm<u8>| {
            if comm.rank() == 0 {
                let got = comm.recv_timeout(
                    Some(1),
                    Some(3),
                    std::time::Duration::from_millis(25),
                );
                assert_eq!(got, Err(ClusterError::Timeout));
                // Unblock rank 1's barrier-free exit.
                comm.send(1, 0, 1).unwrap();
            } else {
                comm.recv(Some(0), Some(0)).unwrap();
            }
        });
    }

    #[test]
    fn recv_timeout_returns_message_that_arrives_in_time() {
        VirtualCluster::run(2, |comm: Comm<u8>| {
            if comm.rank() == 1 {
                std::thread::sleep(std::time::Duration::from_millis(10));
                comm.send(0, 5, 7).unwrap();
            } else {
                let env = comm
                    .recv_timeout(Some(1), Some(5), std::time::Duration::from_secs(5))
                    .unwrap();
                assert_eq!(env.payload, 7);
            }
        });
    }

    #[test]
    fn failed_sends_are_not_counted() {
        // The exact post-join total: rank 1's one successful send, and
        // neither of rank 0's failed ones. (An in-rank before/after delta
        // would race rank 1's counter bump.) The barrier keeps rank 0's
        // inbox open until rank 1's send has landed, so that send succeeds.
        let sent = Arc::new(std::sync::Barrier::new(2));
        let (_, total) = VirtualCluster::run_with_faults_counted(
            2,
            MessageFaults::default(),
            move |comm: Comm<u8>| {
                if comm.rank() == 1 {
                    comm.kill();
                    comm.send(0, 0, 1).unwrap(); // sync: tell rank 0 we're dead
                    sent.wait();
                } else {
                    // Sent after the kill: the receive may see the death
                    // first; rank 1 is dead either way.
                    let synced = comm.recv(Some(1), Some(0));
                    sent.wait();
                    assert!(
                        matches!(synced, Ok(_) | Err(ClusterError::RankDead(1))),
                        "{synced:?}"
                    );
                    assert_eq!(comm.send(1, 0, 9), Err(ClusterError::RankDead(1)));
                    assert_eq!(comm.send(5, 0, 9), Err(ClusterError::InvalidRank(5)));
                }
            },
        );
        assert_eq!(total, 1, "failed sends must not increment the counter");
    }

    #[test]
    fn send_to_returned_rank_errors_and_is_not_counted() {
        // Rank 1 returns without kill(): its liveness flag stays set, but
        // its handle — and with it the inbox — is gone. The barrier fixes
        // the order: rank 0 sends only after the drop.
        let gone = Arc::new(std::sync::Barrier::new(2));
        let (_, total) = VirtualCluster::run_with_faults_counted(
            2,
            MessageFaults::default(),
            move |comm: Comm<u8>| {
                if comm.rank() == 1 {
                    drop(comm);
                    gone.wait();
                } else {
                    gone.wait();
                    assert!(comm.is_alive(1));
                    assert_eq!(comm.send(1, 0, 9), Err(ClusterError::RankDead(1)));
                }
            },
        );
        assert_eq!(total, 0, "a send into a dropped inbox must not be counted");
    }

    #[test]
    fn failed_send_still_flushes_envelopes_delayed_for_live_ranks() {
        // Rank 0's first send (to rank 2) is delayed past its next one,
        // and that next one fails: rank 1 has returned. The delayed
        // envelope is owed to rank 2 all the same.
        let gone = Arc::new(std::sync::Barrier::new(2));
        let faults = MessageFaults {
            faults: vec![MessageFault {
                src: 0,
                nth_send: 0,
                action: FaultAction::Delay,
            }],
        };
        let (_, total) = VirtualCluster::run_with_faults_counted(3, faults, move |comm: Comm<u8>| {
            match comm.rank() {
                0 => {
                    comm.send(2, 7, 42).unwrap();
                    gone.wait();
                    assert_eq!(comm.send(1, 0, 9), Err(ClusterError::RankDead(1)));
                }
                1 => {
                    drop(comm);
                    gone.wait();
                }
                _ => {
                    let env = comm
                        .recv_timeout(Some(0), Some(7), Duration::from_secs(5))
                        .expect("the delayed envelope must still arrive");
                    assert_eq!(env.payload, 42);
                }
            }
        });
        assert_eq!(total, 1, "the delayed send counts, the failed one does not");
    }

    #[test]
    fn message_counter_counts_all_sends() {
        let (results, total) = VirtualCluster::run_with_faults_counted(
            4,
            MessageFaults::default(),
            |comm: Comm<u8>| {
                // Everyone sends one message to rank 0.
                if comm.rank() != 0 {
                    comm.send(0, 0, 1).unwrap();
                } else {
                    for _ in 0..3 {
                        comm.recv_any().unwrap();
                    }
                }
                comm.cluster_messages_sent()
            },
        );
        // The post-join total is exact. In-rank views are lower bounds: a
        // sender's bump lands after its envelope, so rank 0 may read the
        // counter before all three have — but every sender sees its own.
        assert_eq!(total, 3);
        for (rank, seen) in results.iter().enumerate() {
            assert!(*seen <= 3, "rank {rank} saw {seen}");
            assert!(rank == 0 || *seen >= 1, "rank {rank} missed its own send");
        }
    }

    #[test]
    fn large_payloads_cross_intact() {
        let big: Vec<u64> = (0..10_000).collect();
        let expect = big.clone();
        let results = VirtualCluster::run(2, move |comm: Comm<Vec<u64>>| {
            if comm.rank() == 0 {
                comm.send(1, 0, big.clone()).unwrap();
                Vec::new()
            } else {
                comm.recv_any().unwrap().payload
            }
        });
        assert_eq!(results[1], expect);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_rejected() {
        VirtualCluster::run(0, |_c: Comm<u8>| ());
    }

    #[test]
    fn comm_handle_is_send() {
        // The other half of the single-owner claim (the `compile_fail`
        // doc-test on `Comm` pins `!Sync`): the spawn moves the handle
        // into its rank thread.
        fn assert_send<T: Send>() {}
        assert_send::<Comm<u8>>();
    }

    #[test]
    fn single_rank_cluster_works() {
        let r = VirtualCluster::run(1, |comm: Comm<u8>| comm.size());
        assert_eq!(r, vec![1]);
    }
}
