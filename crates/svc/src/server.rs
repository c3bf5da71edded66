//! The worker pool: std threads draining the [`JobQueue`] through the
//! engine contract.
//!
//! Concurrency model (deliberately boring, per the determinism rules in
//! docs/STATIC_ANALYSIS.md — no atomics, no clocks, no channels): one
//! `Mutex<State>` holds the queue and every job's lifecycle entry; two
//! `Condvar`s signal "work available" (workers) and "something changed"
//! (waiters). Workers hold the lock only to dequeue and to apply
//! outcomes — simulation itself runs lock-free, so `workers` jobs
//! genuinely execute in parallel. Job results never depend on worker
//! count: each job is a pure function of its request (the engines are
//! deterministic), and per-job artefacts are keyed by job id. Worker
//! count only reorders *wall-clock* completion, which nothing in a
//! receipt records.
//!
//! Lifecycle mechanics — written once, generic over the workload family
//! (`crate::family`: well-mixed, lattice, fixation):
//!
//! - **Pause** ([`Server::pause`]): a queued job is parked immediately;
//!   a running shared-memory job observes the flag at its next step
//!   boundary (a generation; a replicate for fixation batches), takes the
//!   family's checkpoint, and parks. Distributed jobs run to completion
//!   or degradation (the virtual cluster owns its ranks mid-flight);
//!   pausing one is refused.
//! - **Resume** ([`Server::resume`]): re-enqueues the parked job with
//!   its checkpoint; the engine's generation-keyed RNG streams make the
//!   continuation bit-identical to never having paused
//!   (docs/FAULT_TOLERANCE.md §4), and the payoff cache is pre-warmed on
//!   restore so the resume costs no fidelity *and* little extra replay
//!   (docs/PERFORMANCE.md §2).
//! - **Degraded retry**: a distributed job that returns
//!   [`DistError::Degraded`] is re-enqueued from the degraded
//!   checkpoint under the retry rule
//!   ([`cluster::faults::FaultPlan::spent`]) while
//!   `retry_budget` lasts, then fails with the degradation reason.

use crate::family::{Family, Selected};
use crate::job::{AdmitError, Backend, JobRequest, JobStatus, Receipt};
use crate::queue::{JobQueue, Parked, QueuedJob};
use crate::spool::Spool;
use cluster::dist::DistError;
use evo_core::fixation::FixationBatch;
use evo_core::population::Population;
use evo_core::record::GenerationRecord;
use evo_core::spatial::SpatialPopulation;
use serde::{Deserialize as _, Serialize as _};
use std::collections::BTreeMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// How many streamed records accumulate before a flush to the spool and
/// the in-memory tail.
const RECORD_FLUSH: usize = 64;

/// Server sizing. `Default` is two workers over a 64-deep queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Worker threads. `0` is legal and means "admit but never execute"
    /// — useful for inspecting queue behaviour; pair it with
    /// [`Server::pause`]/[`Server::resume`] tests.
    pub workers: usize,
    /// Queue depth bound ([`JobQueue::new`]).
    pub queue_depth: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 2,
            queue_depth: 64,
        }
    }
}

/// Everything the server knows about one admitted job.
#[derive(Debug)]
struct JobEntry {
    status: JobStatus,
    /// The request's backend, mirrored here so `pause` can tell a
    /// running shared job (pausable) from a running distributed one.
    backend: Backend,
    /// Set by [`Server::pause`] on a running job; observed at the next
    /// generation boundary.
    pause_requested: bool,
    /// The work to re-enqueue on [`Server::resume`] (paused jobs only).
    parked: Option<QueuedJob>,
    receipt: Option<Receipt>,
    /// In-memory copy of the streamed records (shared-memory jobs).
    records: Vec<GenerationRecord>,
}

impl JobEntry {
    fn new(backend: Backend) -> Self {
        JobEntry {
            status: JobStatus::Queued,
            backend,
            pause_requested: false,
            parked: None,
            receipt: None,
            records: Vec::new(),
        }
    }
}

#[derive(Debug)]
struct State {
    queue: JobQueue,
    jobs: BTreeMap<String, JobEntry>,
    /// Jobs currently being executed by a worker.
    active: usize,
    shutdown: bool,
}

#[derive(Debug)]
struct Inner {
    state: Mutex<State>,
    /// Signalled when the queue gains work or shutdown begins.
    work: Condvar,
    /// Signalled on any job state change (waiters re-check predicates).
    changed: Condvar,
    spool: Option<Spool>,
}

impl Inner {
    fn lock(&self) -> MutexGuard<'_, State> {
        // detlint: allow(panic-path, reason = "invariant: the state lock guards bookkeeping only (queue and map moves, status assignments) — simulation, spool I/O and caller code run outside it — so only a bug in those few lines can poison it, and then no job status can be trusted; the panic reaches every caller instead of a wrong answer")
        self.state.lock().expect("svc state mutex poisoned")
    }

    /// Park on `cv` (one of this server's two), releasing the state lock
    /// while parked.
    fn park<'a>(cv: &Condvar, st: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
        // detlint: allow(panic-path, reason = "invariant: as Inner::lock — the state lock is poisoned only by a bookkeeping bug, after which no status a waiter would read can be trusted")
        cv.wait(st).expect("svc state mutex poisoned")
    }

    /// Best-effort spool write: spool I/O failure must not wedge the
    /// lifecycle, so errors are swallowed here; the receipt path
    /// ([`finish`]) is the one place a spool error is surfaced (as a
    /// failed job) because a missing receipt would otherwise look like
    /// silent success.
    fn spool_status(&self, id: &str, status: &JobStatus) {
        if let Some(sp) = &self.spool {
            let _ = sp.write_status(id, status);
        }
    }
}

/// The job server. Construction spawns the worker pool; jobs flow
/// `submit → (queue) → worker → receipt` with pause/resume/retry in
/// between. Dropping the server initiates shutdown and joins the
/// workers (queued jobs are drained first; paused jobs stay parked).
#[derive(Debug)]
pub struct Server {
    inner: Arc<Inner>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// A server with no spool: artefacts are kept in memory only
    /// (receipts via [`Server::receipt`], records via
    /// [`Server::records`]).
    pub fn new(config: ServerConfig) -> Self {
        Server::with_spool(config, None)
    }

    /// A server that additionally streams every job's records, status,
    /// checkpoints, and receipt into `spool` (layout in
    /// [`crate::spool`]).
    pub fn with_spool(config: ServerConfig, spool: Option<Spool>) -> Self {
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                queue: JobQueue::new(config.queue_depth),
                jobs: BTreeMap::new(),
                active: 0,
                shutdown: false,
            }),
            work: Condvar::new(),
            changed: Condvar::new(),
            spool,
        });
        let workers = (0..config.workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("svc-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    // detlint: allow(panic-path, reason = "invariant: thread spawn fails only on OS resource exhaustion while the server is being built, before any job is accepted; there is no job to fail typed yet")
                    .expect("spawning svc worker thread")
            })
            .collect();
        Server { inner, workers }
    }

    /// Admit a job ([`JobQueue::admit`] rules) and wake a worker.
    pub fn submit(&self, request: JobRequest) -> Result<(), AdmitError> {
        let id = request.id.clone();
        let backend = request.backend;
        let mut st = self.inner.lock();
        st.queue.admit(request)?;
        st.jobs.insert(id.clone(), JobEntry::new(backend));
        drop(st);
        self.inner.spool_status(&id, &JobStatus::Queued);
        self.inner.work.notify_one();
        Ok(())
    }

    /// Request a pause. Returns `true` if the request was accepted:
    /// immediately parking a queued job, or flagging a running
    /// shared-memory job to park at its next generation boundary (watch
    /// [`Server::wait`] for the transition). Returns `false` for unknown
    /// ids, terminal jobs, already-paused jobs, and running distributed
    /// jobs (not pausable mid-flight).
    pub fn pause(&self, id: &str) -> bool {
        let mut st = self.inner.lock();
        let State { queue, jobs, .. } = &mut *st;
        let Some(entry) = jobs.get_mut(id) else {
            return false;
        };
        let (accepted, parked_now) = match entry.status {
            JobStatus::Queued => {
                // detlint: allow(panic-path, reason = "invariant: status Queued ⇔ still in the queue — the two are only ever changed together under this lock (submit, worker pop, finish requeue, pause, resume), so take cannot miss")
                let job = queue.take(id).expect("queued job is in the queue");
                let generation = job.resume.as_ref().map_or(0, |parked| parked.progress);
                entry.parked = Some(job);
                entry.status = JobStatus::Paused { generation };
                (true, true)
            }
            JobStatus::Running if matches!(entry.backend, Backend::Shared) => {
                entry.pause_requested = true;
                (true, false)
            }
            _ => (false, false),
        };
        let status = entry.status.clone();
        drop(st);
        if parked_now {
            self.inner.spool_status(id, &status);
        }
        self.inner.changed.notify_all();
        accepted
    }

    /// Resume a paused job (re-enqueue its parked work, checkpoint
    /// included) or cancel a not-yet-honoured pause request on a running
    /// job. Returns `false` if there is nothing to resume.
    pub fn resume(&self, id: &str) -> bool {
        let mut st = self.inner.lock();
        let State { queue, jobs, .. } = &mut *st;
        let Some(entry) = jobs.get_mut(id) else {
            return false;
        };
        match entry.status {
            JobStatus::Paused { .. } => {
                // detlint: allow(panic-path, reason = "invariant: status Paused is assigned in exactly two places (pause of a queued job, finish of a paused run), each setting entry.parked in the same critical section")
                let job = entry.parked.take().expect("paused job has parked work");
                entry.status = JobStatus::Queued;
                queue.requeue(job);
                drop(st);
                self.inner.spool_status(id, &JobStatus::Queued);
                self.inner.work.notify_one();
                self.inner.changed.notify_all();
                true
            }
            JobStatus::Running if entry.pause_requested => {
                entry.pause_requested = false;
                true
            }
            _ => false,
        }
    }

    /// Current status of `id`, if known.
    pub fn status(&self, id: &str) -> Option<JobStatus> {
        self.inner.lock().jobs.get(id).map(|e| e.status.clone())
    }

    /// The receipt of a completed job.
    pub fn receipt(&self, id: &str) -> Option<Receipt> {
        self.inner.lock().jobs.get(id).and_then(|e| e.receipt.clone())
    }

    /// The generation records streamed so far for `id` (shared-memory
    /// jobs stream per step; spatial and fixation distributed jobs deliver
    /// the rank-0 record fold when an attempt ends; well-mixed distributed
    /// jobs produce a receipt only).
    pub fn records(&self, id: &str) -> Option<Vec<GenerationRecord>> {
        self.inner.lock().jobs.get(id).map(|e| e.records.clone())
    }

    /// Block until `id` leaves the scheduler (reaches `Paused`,
    /// `Completed`, or `Failed`) and return that status. `None` for
    /// unknown ids.
    pub fn wait(&self, id: &str) -> Option<JobStatus> {
        let mut st = self.inner.lock();
        loop {
            let status = st.jobs.get(id)?.status.clone();
            match status {
                JobStatus::Queued | JobStatus::Running => {
                    st = Inner::park(&self.inner.changed, st);
                }
                _ => return Some(status),
            }
        }
    }

    /// Block until the queue is empty and no worker is executing.
    /// (Paused jobs don't count — they are parked, not pending.) With
    /// `workers = 0` this returns only once the queue is drained by
    /// pauses, so don't call it on a zero-worker server with live jobs.
    pub fn wait_idle(&self) {
        let mut st = self.inner.lock();
        while st.active > 0 || !st.queue.is_empty() {
            st = Inner::park(&self.inner.changed, st);
        }
    }

    /// Ids of every admitted job, in sorted order.
    pub fn job_ids(&self) -> Vec<String> {
        self.inner.lock().jobs.keys().cloned().collect()
    }

    /// Drain queued jobs, then stop the workers and join them. (Also
    /// runs on drop; calling it explicitly just makes the join point
    /// visible.)
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.inner.lock().shutdown = true;
        self.inner.work.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// What one execution attempt produced.
enum Outcome {
    /// Ran to the end.
    Done { receipt: Box<Receipt> },
    /// Honoured a pause request at a step boundary.
    Paused { checkpoint: Parked },
    /// A distributed attempt degraded with retry budget left: re-enqueue
    /// from `resume`, the degraded run's checkpoint.
    Degraded { resume: Parked },
    /// Engine or I/O error, or a degraded attempt that cannot be retried
    /// — terminal.
    Failed { reason: String },
}

fn worker_loop(inner: &Inner) {
    loop {
        let job = {
            let mut st = inner.lock();
            let job = loop {
                if let Some(job) = st.queue.pop() {
                    break job;
                }
                if st.shutdown {
                    return;
                }
                st = Inner::park(&inner.work, st);
            };
            st.active += 1;
            if let Some(entry) = st.jobs.get_mut(&job.request.id) {
                entry.status = JobStatus::Running;
                entry.pause_requested = false;
            }
            job
        };
        inner.spool_status(&job.request.id, &JobStatus::Running);
        inner.changed.notify_all();
        let outcome = match Selected::of(&job.request) {
            Ok(Selected::WellMixed(spec)) => execute::<Population>(inner, &job, &spec),
            Ok(Selected::Lattice(spec)) => execute::<SpatialPopulation>(inner, &job, spec),
            Ok(Selected::Fixation(spec)) => execute::<FixationBatch>(inner, &job, spec),
            // Admission ran the same selection; this arm is unreachable.
            Err(reason) => Outcome::Failed { reason },
        };
        finish(inner, job, outcome);
    }
}

/// Run one attempt of `job` as family `F` (no lock held during
/// simulation).
fn execute<F: Family>(inner: &Inner, job: &QueuedJob, spec: &F::Spec) -> Outcome {
    let resume = match &job.resume {
        Some(parked) => match F::Checkpoint::from_value(&parked.checkpoint) {
            Ok(cp) => Some(cp),
            Err(e) => {
                return Outcome::Failed {
                    reason: format!("resume checkpoint: {e}"),
                }
            }
        },
        None => None,
    };
    match job.request.backend {
        Backend::Shared => execute_shared::<F>(inner, job, spec, resume),
        Backend::Distributed { ranks } => execute_distributed::<F>(inner, job, spec, ranks, resume),
    }
}

fn receipt(job: &QueuedJob, seed: u64, generations: u64, digest: u64, manifest: obs::RunManifest) -> Box<Receipt> {
    Box::new(Receipt {
        schema_version: crate::SVC_SCHEMA_VERSION,
        job_id: job.request.id.clone(),
        seed,
        generations,
        retries: job.retries,
        state_digest: format!("{digest:016x}"),
        manifest,
    })
}

/// The shared-memory step loop: pause check → step → stream → periodic
/// checkpoint, then the receipt.
fn execute_shared<F: Family>(
    inner: &Inner,
    job: &QueuedJob,
    spec: &F::Spec,
    resume: Option<F::Checkpoint>,
) -> Outcome {
    let baseline = obs::counters().snapshot();
    let mut run = match F::start(spec, resume) {
        Ok(run) => run,
        Err(reason) => return Outcome::Failed { reason },
    };
    let id = &job.request.id;
    let mut chunk: Vec<GenerationRecord> = Vec::new();
    loop {
        if pause_requested(inner, id) {
            stream_records(inner, id, &mut chunk);
            return Outcome::Paused {
                checkpoint: Parked {
                    progress: run.progress(),
                    checkpoint: run.checkpoint().to_value(),
                },
            };
        }
        let Some(record) = run.step() else { break };
        chunk.push(record);
        if chunk.len() >= RECORD_FLUSH {
            stream_records(inner, id, &mut chunk);
        }
        if let Some(every) = job.request.checkpoint_every {
            if every > 0 && run.progress().is_multiple_of(every) {
                if let Some(sp) = &inner.spool {
                    let _ = sp.write_checkpoint(id, &run.checkpoint());
                }
            }
        }
    }
    stream_records(inner, id, &mut chunk);
    let (_, seed) = F::identity(spec);
    // svc reads no clock (docs/STATIC_ANALYSIS.md wall-clock rule): elapsed
    // is reported as 0; cost attribution lives in the counter deltas and
    // span timings.
    let manifest = run.manifest(spec, &baseline, 0.0);
    Outcome::Done {
        receipt: receipt(job, seed, run.progress(), run.digest(), manifest),
    }
}

/// One distributed attempt: config → run → receipt, or degraded →
/// budgeted retry. Well-mixed, lattice and fixation jobs differ only in
/// [`Family::distribute`].
fn execute_distributed<F: Family>(
    inner: &Inner,
    job: &QueuedJob,
    spec: &F::Spec,
    ranks: usize,
    resume: Option<F::Checkpoint>,
) -> Outcome {
    let request = &job.request;
    let faults = if job.retries > 0 {
        request.faults.spent()
    } else {
        request.faults.clone()
    };
    let baseline = obs::counters().snapshot();
    match F::distribute(spec, ranks, faults, request.checkpoint_every, resume) {
        Ok(mut out) => {
            let (params, seed) = F::identity(spec);
            let manifest = obs::RunManifest::capture(
                params,
                seed,
                ranks,
                out.units,
                0.0,
                &baseline,
                &out.generation_ns,
            );
            stream_records(inner, &request.id, &mut out.records);
            Outcome::Done {
                receipt: receipt(job, seed, out.units, out.digest, manifest),
            }
        }
        Err(DistError::Degraded(mut d)) => {
            let reason = format!("degraded {}: {}", F::RUN, d.reason);
            match d.checkpoint {
                Some(cp) if job.retries < request.retry_budget => {
                    // What the attempt committed up to the checkpoint must
                    // reach the stream before the retry can append to it.
                    stream_records(inner, &request.id, &mut d.records);
                    Outcome::Degraded {
                        resume: Parked {
                            progress: F::resume_point(&cp),
                            checkpoint: cp.to_value(),
                        },
                    }
                }
                Some(_) => Outcome::Failed {
                    reason: format!(
                        "{reason}; retry budget exhausted ({} allowed)",
                        request.retry_budget
                    ),
                },
                None => Outcome::Failed {
                    reason: format!("{reason}; no checkpoint to retry from"),
                },
            }
        }
        Err(e) => Outcome::Failed {
            reason: e.to_string(),
        },
    }
}

fn pause_requested(inner: &Inner, id: &str) -> bool {
    inner
        .lock()
        .jobs
        .get(id)
        .is_some_and(|e| e.pause_requested)
}

/// Flush a chunk of generation records to the spool (streaming path) and
/// the in-memory tail.
fn stream_records(inner: &Inner, id: &str, chunk: &mut Vec<GenerationRecord>) {
    if chunk.is_empty() {
        return;
    }
    if let Some(sp) = &inner.spool {
        // Best-effort: record streaming must not wedge the run; the
        // receipt is the authoritative artefact.
        let _ = sp.append_records(id, chunk);
    }
    let mut st = inner.lock();
    if let Some(entry) = st.jobs.get_mut(id) {
        entry.records.append(chunk);
    } else {
        chunk.clear();
    }
}

/// Apply an execution outcome: settle, park, retry, or fail the job.
fn finish(inner: &Inner, job: QueuedJob, mut outcome: Outcome) {
    let id = job.request.id.clone();
    if let (Outcome::Done { receipt }, Some(sp)) = (&outcome, &inner.spool) {
        if let Err(e) = sp.write_receipt(&id, receipt) {
            // A receipt that failed to spool would make success
            // unverifiable — fail the job, loudly.
            outcome = Outcome::Failed {
                reason: format!("receipt spool write failed: {e}"),
            };
        }
    }
    let mut st = inner.lock();
    st.active -= 1;
    let State { queue, jobs, .. } = &mut *st;
    let Some(entry) = jobs.get_mut(&id) else {
        drop(st);
        inner.changed.notify_all();
        return;
    };
    let mut spool_checkpoint: Option<serde::Value> = None;
    let mut wake_worker = false;
    match outcome {
        Outcome::Done { receipt } => {
            entry.status = JobStatus::Completed {
                state_digest: receipt.state_digest.clone(),
                retries: receipt.retries,
            };
            entry.receipt = Some(*receipt);
            obs::counters().add(obs::Counter::JobsCompleted, 1);
        }
        Outcome::Paused { checkpoint } => {
            entry.pause_requested = false;
            entry.status = JobStatus::Paused {
                // For fixation jobs the "generation" a pause reports is
                // the replicate boundary it parked at.
                generation: checkpoint.progress,
            };
            spool_checkpoint = Some(checkpoint.checkpoint.clone());
            entry.parked = Some(QueuedJob {
                resume: Some(checkpoint),
                ..job
            });
        }
        Outcome::Degraded { resume } => {
            obs::counters().add(obs::Counter::JobsRetried, 1);
            entry.status = JobStatus::Queued;
            spool_checkpoint = Some(resume.checkpoint.clone());
            queue.requeue(QueuedJob {
                resume: Some(resume),
                retries: job.retries + 1,
                ..job
            });
            wake_worker = true;
        }
        Outcome::Failed { reason } => {
            entry.status = JobStatus::Failed {
                reason,
                retries: job.retries,
            };
        }
    }
    let status = entry.status.clone();
    drop(st);
    if let (Some(cp), Some(sp)) = (&spool_checkpoint, &inner.spool) {
        let _ = sp.write_checkpoint(&id, cp);
    }
    inner.spool_status(&id, &status);
    inner.changed.notify_all();
    if wake_worker {
        inner.work.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evo_core::fixation::FixationSpec;
    use evo_core::params::Params;
    use evo_core::record::state_digest;

    fn small(seed: u64, generations: u64) -> Params {
        Params {
            num_ssets: 8,
            generations,
            seed,
            ..Params::default()
        }
    }

    #[test]
    fn submit_run_receipt_matches_direct_engine_run() {
        let server = Server::new(ServerConfig {
            workers: 1,
            queue_depth: 8,
        });
        let req = JobRequest::new("direct", small(11, 40));
        server.submit(req.clone()).unwrap();
        let status = server.wait("direct").unwrap();
        let JobStatus::Completed { state_digest, retries } = status else {
            panic!("expected completion, got {status:?}");
        };
        assert_eq!(retries, 0);

        let mut pop = Population::new(small(11, 40)).unwrap();
        pop.run_to_end();
        let expect = format!(
            "{:016x}",
            state_digest_direct(&pop)
        );
        assert_eq!(state_digest, expect, "receipt digest == direct engine digest");

        let receipt = server.receipt("direct").unwrap();
        assert_eq!(receipt.state_digest, state_digest);
        assert_eq!(receipt.generations, 40);
        assert_eq!(receipt.manifest.elapsed_seconds, 0.0, "svc reads no clock");
        assert_eq!(server.records("direct").unwrap().len(), 40);
        server.shutdown();
    }

    fn state_digest_direct(pop: &Population) -> u64 {
        state_digest(&pop.assignments(), &pop.snapshot().features)
    }

    fn spatial_params(seed: u64, generations: u64) -> evo_core::spatial::SpatialParams {
        evo_core::spatial::SpatialParams {
            width: 12,
            height: 12,
            generations,
            seed,
            ..evo_core::spatial::SpatialParams::default()
        }
    }

    fn spatial_direct_digest(params: &evo_core::spatial::SpatialParams) -> String {
        let mut pop = SpatialPopulation::new(
            params.clone(),
            evo_core::spatial::InitPattern::SingleDefector,
        );
        while pop.generation() < params.generations {
            pop.step();
        }
        let snap = pop.snapshot();
        format!("{:016x}", state_digest(&snap.assignments, &snap.features))
    }

    #[test]
    fn spatial_shared_receipt_matches_direct_lattice_run() {
        let server = Server::new(ServerConfig {
            workers: 1,
            queue_depth: 8,
        });
        let p = spatial_params(7, 30);
        server
            .submit(JobRequest::new_spatial(
                "sp-shared",
                p.clone(),
                evo_core::spatial::InitPattern::SingleDefector,
            ))
            .unwrap();
        let status = server.wait("sp-shared").unwrap();
        let JobStatus::Completed { state_digest: digest, retries } = status else {
            panic!("expected completion, got {status:?}");
        };
        assert_eq!(retries, 0);
        assert_eq!(digest, spatial_direct_digest(&p));
        let receipt = server.receipt("sp-shared").unwrap();
        assert_eq!(receipt.generations, 30);
        assert_eq!(receipt.seed, 7);
        assert_eq!(receipt.manifest.elapsed_seconds, 0.0, "svc reads no clock");
        assert_eq!(server.records("sp-shared").unwrap().len(), 30);
        server.shutdown();
    }

    #[test]
    fn spatial_distributed_receipt_digest_matches_shared_backend() {
        let server = Server::new(ServerConfig {
            workers: 1,
            queue_depth: 8,
        });
        let p = spatial_params(9, 24);
        let mut req = JobRequest::new_spatial(
            "sp-dist",
            p.clone(),
            evo_core::spatial::InitPattern::SingleDefector,
        );
        req.backend = Backend::Distributed { ranks: 3 };
        server.submit(req).unwrap();
        let status = server.wait("sp-dist").unwrap();
        let JobStatus::Completed { state_digest: digest, retries } = status else {
            panic!("expected completion, got {status:?}");
        };
        assert_eq!(retries, 0);
        assert_eq!(
            digest,
            spatial_direct_digest(&p),
            "rank-sharded lattice run is bit-identical to the shared one"
        );
        assert_eq!(
            server.records("sp-dist").unwrap().len(),
            24,
            "spatial distributed jobs deliver the rank-0 record fold"
        );
        server.shutdown();
    }

    #[test]
    fn a_request_whose_faults_can_lose_a_message_without_a_deadline_fails_typed() {
        let server = Server::new(ServerConfig {
            workers: 1,
            queue_depth: 8,
        });
        let mut req = JobRequest::new("lossy", small(37, 40));
        req.backend = Backend::Distributed { ranks: 3 };
        req.faults.messages.faults = vec![cluster::faults::MessageFault {
            src: 1,
            nth_send: 1,
            action: cluster::faults::FaultAction::Delay,
        }];
        server.submit(req).unwrap();
        let status = server.wait("lossy").unwrap();
        let JobStatus::Failed { reason, retries: 0 } = &status else {
            panic!("expected a typed failure, got {status:?}");
        };
        assert!(reason.contains("recv_timeout_ms"), "{reason}");
        server.shutdown();
    }

    #[test]
    fn spatial_degraded_run_retries_to_the_clean_digest() {
        let server = Server::new(ServerConfig {
            workers: 1,
            queue_depth: 8,
        });
        let p = spatial_params(13, 24);
        let mut req = JobRequest::new_spatial(
            "sp-retry",
            p.clone(),
            evo_core::spatial::InitPattern::SingleDefector,
        );
        req.backend = Backend::Distributed { ranks: 3 };
        req.retry_budget = 1;
        req.faults.kills = vec![cluster::faults::RankKill {
            rank: 2,
            generation: 10,
        }];
        server.submit(req).unwrap();
        let status = server.wait("sp-retry").unwrap();
        let JobStatus::Completed { state_digest: digest, retries } = status else {
            panic!("expected completion after retry, got {status:?}");
        };
        assert_eq!(retries, 1, "one degraded attempt, one clean retry");
        assert_eq!(
            digest,
            spatial_direct_digest(&p),
            "retry from the degraded checkpoint lands on the uninterrupted digest"
        );
        server.shutdown();
    }

    #[test]
    fn spatial_pause_resume_completes_bit_identical() {
        let server = Server::new(ServerConfig {
            workers: 1,
            queue_depth: 8,
        });
        let p = spatial_params(21, 200);
        server
            .submit(JobRequest::new_spatial(
                "sp-pause",
                p.clone(),
                evo_core::spatial::InitPattern::SingleDefector,
            ))
            .unwrap();
        // Let the worker pick it up, then ask for a pause. Whether the
        // pause lands mid-run or the job races to completion first, the
        // final digest must be the uninterrupted one.
        while matches!(server.status("sp-pause"), Some(JobStatus::Queued)) {
            std::thread::yield_now();
        }
        server.pause("sp-pause");
        match server.wait("sp-pause").unwrap() {
            JobStatus::Paused { generation } => {
                assert!(generation <= 200);
                assert!(server.resume("sp-pause"), "paused job resumes");
            }
            JobStatus::Completed { .. } => {}
            other => panic!("unexpected status {other:?}"),
        }
        let status = server.wait("sp-pause").unwrap();
        let JobStatus::Completed { state_digest: digest, .. } = status else {
            panic!("expected completion, got {status:?}");
        };
        assert_eq!(digest, spatial_direct_digest(&p));
        assert_eq!(
            server.records("sp-pause").unwrap().len(),
            200,
            "records stream exactly once across the pause"
        );
        server.shutdown();
    }

    fn fixation_spec(seed: u64, replicates: u32) -> FixationSpec {
        let space = ipd::state::StateSpace::new(1).unwrap();
        let mut params = Params {
            mem_steps: 1,
            num_ssets: 8,
            generations: 150,
            seed,
            pc_rate: 1.0,
            mutation_rate: 0.0,
            rule: evo_core::params::UpdateRule::Moran,
            ..Params::default()
        };
        params.game.rounds = 10;
        FixationSpec {
            params,
            resident: ipd::strategy::Strategy::Pure(ipd::classic::all_c(&space)),
            mutant: ipd::strategy::Strategy::Pure(ipd::classic::all_d(&space)),
            replicates,
        }
    }

    fn direct_fixation_digest(spec: &FixationSpec) -> String {
        let mut batch = FixationBatch::new(spec.clone()).unwrap();
        format!("{:016x}", batch.run().digest())
    }

    #[test]
    fn fixation_shared_receipt_matches_direct_batch_run() {
        let server = Server::new(ServerConfig {
            workers: 1,
            queue_depth: 8,
        });
        let spec = fixation_spec(41, 12);
        server
            .submit(JobRequest::new_fixation("fx-shared", spec.clone()))
            .unwrap();
        let status = server.wait("fx-shared").unwrap();
        let JobStatus::Completed { state_digest: digest, retries } = status else {
            panic!("expected completion, got {status:?}");
        };
        assert_eq!(retries, 0);
        assert_eq!(digest, direct_fixation_digest(&spec));
        let receipt = server.receipt("fx-shared").unwrap();
        assert_eq!(receipt.generations, 12, "receipt counts replicates");
        assert_eq!(receipt.seed, 41);
        assert_eq!(receipt.manifest.elapsed_seconds, 0.0, "svc reads no clock");
        assert_eq!(
            server.records("fx-shared").unwrap().len(),
            12,
            "one record per replicate"
        );
        server.shutdown();
    }

    #[test]
    fn fixation_distributed_receipt_digest_matches_shared_backend() {
        let server = Server::new(ServerConfig {
            workers: 1,
            queue_depth: 8,
        });
        let spec = fixation_spec(43, 12);
        let mut req = JobRequest::new_fixation("fx-dist", spec.clone());
        req.backend = Backend::Distributed { ranks: 3 };
        server.submit(req).unwrap();
        let status = server.wait("fx-dist").unwrap();
        let JobStatus::Completed { state_digest: digest, retries } = status else {
            panic!("expected completion, got {status:?}");
        };
        assert_eq!(retries, 0);
        assert_eq!(
            digest,
            direct_fixation_digest(&spec),
            "replicate-sharded batch is bit-identical to the shared one"
        );
        assert_eq!(server.records("fx-dist").unwrap().len(), 12);
        server.shutdown();
    }

    #[test]
    fn fixation_degraded_run_retries_to_the_clean_digest() {
        let server = Server::new(ServerConfig {
            workers: 1,
            queue_depth: 8,
        });
        let spec = fixation_spec(47, 12);
        let mut req = JobRequest::new_fixation("fx-retry", spec.clone());
        req.backend = Backend::Distributed { ranks: 3 };
        req.retry_budget = 1;
        // With 12 replicates over 2 compute ranks, rank 1 owns indices
        // 0..6 — killing it at replicate 2 degrades mid-batch.
        req.faults.kills = vec![cluster::faults::RankKill {
            rank: 1,
            generation: 2,
        }];
        server.submit(req).unwrap();
        let status = server.wait("fx-retry").unwrap();
        let JobStatus::Completed { state_digest: digest, retries } = status else {
            panic!("expected completion after retry, got {status:?}");
        };
        assert_eq!(retries, 1, "one degraded attempt, one clean retry");
        assert_eq!(
            digest,
            direct_fixation_digest(&spec),
            "retry from the degraded checkpoint lands on the uninterrupted digest"
        );
        server.shutdown();
    }

    #[test]
    fn fixation_pause_resume_completes_bit_identical() {
        let server = Server::new(ServerConfig {
            workers: 1,
            queue_depth: 8,
        });
        let spec = fixation_spec(53, 48);
        server
            .submit(JobRequest::new_fixation("fx-pause", spec.clone()))
            .unwrap();
        while matches!(server.status("fx-pause"), Some(JobStatus::Queued)) {
            std::thread::yield_now();
        }
        server.pause("fx-pause");
        match server.wait("fx-pause").unwrap() {
            JobStatus::Paused { generation } => {
                assert!(generation <= 48, "pause lands at a replicate boundary");
                assert!(server.resume("fx-pause"), "paused job resumes");
            }
            JobStatus::Completed { .. } => {}
            other => panic!("unexpected status {other:?}"),
        }
        let status = server.wait("fx-pause").unwrap();
        let JobStatus::Completed { state_digest: digest, .. } = status else {
            panic!("expected completion, got {status:?}");
        };
        assert_eq!(digest, direct_fixation_digest(&spec));
        assert_eq!(
            server.records("fx-pause").unwrap().len(),
            48,
            "records stream exactly once across the pause"
        );
        server.shutdown();
    }

    #[test]
    fn zero_worker_server_parks_and_requeues_without_executing() {
        let server = Server::new(ServerConfig {
            workers: 0,
            queue_depth: 4,
        });
        server.submit(JobRequest::new("idle", small(1, 10))).unwrap();
        assert_eq!(server.status("idle"), Some(JobStatus::Queued));
        assert!(server.pause("idle"), "queued job parks immediately");
        assert_eq!(server.status("idle"), Some(JobStatus::Paused { generation: 0 }));
        assert!(!server.pause("idle"), "already paused");
        assert!(server.resume("idle"), "resume re-enqueues");
        assert_eq!(server.status("idle"), Some(JobStatus::Queued));
        assert!(!server.resume("idle"), "nothing parked now");
        assert!(!server.pause("nope"), "unknown id");
        server.shutdown();
    }
}
