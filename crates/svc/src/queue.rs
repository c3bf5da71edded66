//! The deterministic bounded job queue.
//!
//! Two strict-FIFO lanes ([`crate::Priority::High`] before
//! [`crate::Priority::Normal`]), a hard depth bound with typed
//! backpressure ([`AdmitError::QueueFull`]), and lifetime id dedup.
//! Dispatch order is a pure function of the admission sequence — the
//! queue holds no timestamps and consults no clock, so replaying the same
//! submission stream replays the same dispatch order.

use crate::family::Selected;
use crate::job::{AdmitError, Backend, JobRequest, Priority};
use std::collections::{BTreeSet, VecDeque};

/// The checkpoint a parked or retried job resumes from, in the form the
/// spool stores it — one slot, whichever family the job belongs to.
#[derive(Debug, Clone)]
pub struct Parked {
    /// Progress units the checkpoint holds: the generation the job resumes
    /// from, or for a fixation batch the replicates completed.
    pub progress: u64,
    /// The family's checkpoint as data (the `checkpoint.json` schema).
    pub checkpoint: serde::Value,
}

/// A queued unit of work: the original request plus the lifecycle state
/// the server threads through pauses and retries.
#[derive(Debug, Clone)]
pub struct QueuedJob {
    /// The request as admitted.
    pub request: JobRequest,
    /// Checkpoint to resume from — `Some` after a pause-resume cycle or a
    /// degraded-run retry, `None` for a fresh start.
    pub resume: Option<Parked>,
    /// Degraded-run retries already consumed. Once non-zero the request's
    /// injected fault schedule has fired, and attempts run under
    /// [`cluster::faults::FaultPlan::spent`].
    pub retries: u32,
}

impl QueuedJob {
    fn fresh(request: JobRequest) -> Self {
        QueuedJob {
            request,
            resume: None,
            retries: 0,
        }
    }
}

/// Bounded two-lane FIFO queue with typed admission control. The
/// [`crate::Server`] wraps one of these behind its mutex; it is also
/// usable standalone (it is a plain data structure, not thread-safe by
/// itself).
#[derive(Debug)]
pub struct JobQueue {
    depth: usize,
    high: VecDeque<QueuedJob>,
    normal: VecDeque<QueuedJob>,
    seen: BTreeSet<String>,
}

impl JobQueue {
    /// An empty queue admitting at most `depth` jobs at a time
    /// (re-enqueues of already-admitted jobs — resume, retry — are exempt
    /// from the bound so lifecycle progress can never deadlock on
    /// backpressure).
    pub fn new(depth: usize) -> Self {
        JobQueue {
            depth: depth.max(1),
            high: VecDeque::new(),
            normal: VecDeque::new(),
            seen: BTreeSet::new(),
        }
    }

    /// The configured depth bound.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Jobs currently queued (both lanes).
    pub fn len(&self) -> usize {
        self.high.len() + self.normal.len()
    }

    /// `true` when no job is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Validate and enqueue a fresh request, or say exactly why not.
    /// Every outcome bumps the matching obs counter (`jobs_accepted` /
    /// `jobs_rejected`).
    pub fn admit(&mut self, request: JobRequest) -> Result<(), AdmitError> {
        match self.check(&request) {
            Ok(()) => {
                self.seen.insert(request.id.clone());
                obs::counters().add(obs::Counter::JobsAccepted, 1);
                self.push(QueuedJob::fresh(request));
                Ok(())
            }
            Err(e) => {
                obs::counters().add(obs::Counter::JobsRejected, 1);
                Err(e)
            }
        }
    }

    /// Re-enqueue an already-admitted job (pause-resume, degraded retry).
    /// Exempt from the depth bound and the dedup check by design.
    pub fn requeue(&mut self, job: QueuedJob) {
        self.push(job);
    }

    /// Next job to run: the oldest high-priority job, else the oldest
    /// normal one.
    pub fn pop(&mut self) -> Option<QueuedJob> {
        self.high.pop_front().or_else(|| self.normal.pop_front())
    }

    /// `true` if `id` was ever admitted (queued, running, or finished).
    pub fn knows(&self, id: &str) -> bool {
        self.seen.contains(id)
    }

    /// Remove a specific queued job by id (the pause-while-queued path).
    /// Its id stays in the dedup set — the job is parked, not forgotten.
    pub fn take(&mut self, id: &str) -> Option<QueuedJob> {
        for lane in [&mut self.high, &mut self.normal] {
            if let Some(pos) = lane.iter().position(|j| j.request.id == id) {
                return lane.remove(pos);
            }
        }
        None
    }

    fn push(&mut self, job: QueuedJob) {
        match job.request.priority {
            Priority::High => self.high.push_back(job),
            Priority::Normal => self.normal.push_back(job),
        }
    }

    fn check(&self, request: &JobRequest) -> Result<(), AdmitError> {
        let invalid = |reason: String| Err(AdmitError::Invalid { reason });
        if request.id.is_empty() {
            return invalid("job id must be non-empty".into());
        }
        if !request
            .id
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'_' || b == b'-')
        {
            return invalid(format!(
                "job id {:?} must match [A-Za-z0-9._-]+ (it names the spool directory)",
                request.id
            ));
        }
        if let Err(reason) = Selected::of(request).and_then(|family| family.validate()) {
            return invalid(reason);
        }
        match request.backend {
            Backend::Shared if request.faults != cluster::faults::FaultPlan::default() => {
                return invalid("fault injection requires the distributed backend".into());
            }
            Backend::Distributed { ranks } if ranks < 2 => {
                return invalid(format!(
                    "distributed backend needs at least 2 ranks (got {ranks})"
                ));
            }
            _ => {}
        }
        if self.seen.contains(&request.id) {
            return Err(AdmitError::DuplicateId {
                id: request.id.clone(),
            });
        }
        if self.len() >= self.depth {
            return Err(AdmitError::QueueFull { depth: self.depth });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evo_core::params::Params;

    fn req(id: &str) -> JobRequest {
        JobRequest::new(id, Params::default())
    }

    #[test]
    fn fifo_within_lane_high_lane_first() {
        let mut q = JobQueue::new(8);
        q.admit(req("n1")).unwrap();
        q.admit(req("n2")).unwrap();
        let mut h = req("h1");
        h.priority = Priority::High;
        q.admit(h).unwrap();
        let order: Vec<String> = std::iter::from_fn(|| q.pop())
            .map(|j| j.request.id)
            .collect();
        assert_eq!(order, ["h1", "n1", "n2"]);
    }

    #[test]
    fn depth_bound_rejects_typed_and_requeue_is_exempt() {
        let mut q = JobQueue::new(2);
        q.admit(req("a")).unwrap();
        q.admit(req("b")).unwrap();
        assert_eq!(q.admit(req("c")), Err(AdmitError::QueueFull { depth: 2 }));
        // Lifecycle re-enqueues must never deadlock on backpressure.
        let job = q.pop().unwrap();
        q.admit(req("d")).unwrap(); // depth freed by the pop
        q.requeue(job);
        assert_eq!(q.len(), 3, "requeue is exempt from the bound");
    }

    #[test]
    fn duplicate_ids_rejected_for_queue_lifetime() {
        let mut q = JobQueue::new(8);
        q.admit(req("a")).unwrap();
        let _ = q.pop();
        // Still a duplicate after it left the queue: ids are unique for
        // the server's lifetime, not just while queued.
        assert_eq!(
            q.admit(req("a")),
            Err(AdmitError::DuplicateId { id: "a".into() })
        );
        assert!(q.knows("a"));
        assert!(!q.knows("b"));
    }

    #[test]
    fn invalid_requests_name_the_reason() {
        let mut q = JobQueue::new(8);
        let empty = q.admit(req("")).unwrap_err();
        assert!(matches!(empty, AdmitError::Invalid { .. }));
        let slash = q.admit(req("../escape")).unwrap_err();
        assert!(matches!(slash, AdmitError::Invalid { ref reason } if reason.contains("spool")));

        let mut bad = req("bad-params");
        bad.params.num_ssets = 0;
        assert!(matches!(
            q.admit(bad),
            Err(AdmitError::Invalid { ref reason }) if reason.starts_with("params:")
        ));

        let mut one_rank = req("one-rank");
        one_rank.backend = Backend::Distributed { ranks: 1 };
        assert!(matches!(
            q.admit(one_rank),
            Err(AdmitError::Invalid { ref reason }) if reason.contains("2 ranks")
        ));

        let mut shared_faults = req("shared-faults");
        shared_faults.faults.recv_timeout_ms = Some(50);
        assert!(matches!(
            q.admit(shared_faults),
            Err(AdmitError::Invalid { ref reason }) if reason.contains("distributed")
        ));
        assert!(q.is_empty(), "no invalid request was queued");
    }

    #[test]
    fn fixation_requests_validate_the_fixation_spec() {
        use evo_core::fixation::FixationSpec;
        use ipd::state::StateSpace;
        use ipd::strategy::Strategy;

        let space = StateSpace::new(1).unwrap();
        let spec = |replicates: u32, mutation_rate: f64| {
            let mut params = evo_core::params::Params {
                mem_steps: 1,
                num_ssets: 8,
                mutation_rate,
                ..evo_core::params::Params::default()
            };
            params.rule = evo_core::params::UpdateRule::Moran;
            FixationSpec {
                params,
                resident: Strategy::Pure(ipd::classic::all_c(&space)),
                mutant: Strategy::Pure(ipd::classic::all_d(&space)),
                replicates,
            }
        };
        let mut q = JobQueue::new(8);

        let no_reps = JobRequest::new_fixation("fx-zero", spec(0, 0.0));
        assert!(matches!(
            q.admit(no_reps),
            Err(AdmitError::Invalid { ref reason }) if reason.starts_with("fixation spec:")
        ));

        let mutating = JobRequest::new_fixation("fx-mu", spec(4, 0.05));
        assert!(matches!(
            q.admit(mutating),
            Err(AdmitError::Invalid { ref reason }) if reason.starts_with("fixation spec:")
        ));

        let mut both = JobRequest::new_fixation("fx-both", spec(4, 0.0));
        both.spatial = Some(crate::job::SpatialJobSpec {
            params: evo_core::spatial::SpatialParams::default(),
            init: evo_core::spatial::InitPattern::SingleDefector,
        });
        assert!(matches!(
            q.admit(both),
            Err(AdmitError::Invalid { ref reason }) if reason.contains("not both")
        ));

        // The well-mixed params are ignored for fixation jobs — an
        // invalid (defaulted-over) Params must not block one.
        let mut ok = JobRequest::new_fixation("fx-ok", spec(4, 0.0));
        ok.params.num_ssets = 0;
        q.admit(ok).unwrap();
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn spatial_requests_validate_the_spatial_spec() {
        use evo_core::spatial::{InitPattern, SpatialParams};
        let mut q = JobQueue::new(8);

        let bad_grid = JobRequest::new_spatial(
            "sp-grid",
            SpatialParams {
                width: 2,
                ..SpatialParams::default()
            },
            InitPattern::SingleDefector,
        );
        assert!(matches!(
            q.admit(bad_grid),
            Err(AdmitError::Invalid { ref reason }) if reason.starts_with("spatial params:")
        ));

        let bad_init = JobRequest::new_spatial(
            "sp-init",
            SpatialParams::default(),
            InitPattern::RandomDefectors(1.5),
        );
        assert!(matches!(
            q.admit(bad_init),
            Err(AdmitError::Invalid { ref reason }) if reason.starts_with("spatial init:")
        ));

        // The well-mixed params are documented as ignored for spatial
        // jobs — an invalid (defaulted-over) Params must not block one.
        let mut ok = JobRequest::new_spatial(
            "sp-ok",
            SpatialParams::default(),
            InitPattern::SingleDefector,
        );
        ok.params.num_ssets = 0;
        q.admit(ok).unwrap();
        assert_eq!(q.len(), 1);
    }

    /// A grid past 2³² cells is refused at admission, before any worker
    /// would size a grid from it or key a game stream past `u64`.
    #[test]
    fn spatial_requests_with_an_oversized_grid_are_rejected() {
        use evo_core::spatial::{InitPattern, SpatialParams};
        let mut q = JobQueue::new(8);
        let huge = JobRequest::new_spatial(
            "sp-huge",
            SpatialParams {
                width: 1 << 33,
                height: 3,
                ..SpatialParams::default()
            },
            InitPattern::SingleDefector,
        );
        assert!(matches!(
            q.admit(huge),
            Err(AdmitError::Invalid { ref reason })
                if reason.starts_with("spatial params:") && reason.contains("2^32 cells")
        ));
        assert_eq!(q.len(), 0);
    }
}
