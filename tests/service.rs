//! Job-server lifecycle state machine, end to end against the real
//! engines (docs/SERVICE.md): submit → run → checkpoint-pause → resume,
//! degraded → retry-with-budget → exhausted, queue-full admission
//! rejection — all deterministic under a fixed seed.

use evogame::cluster::faults::{FaultAction, FaultPlan, MessageFault, MessageFaults, RankKill};
use evogame::engine::record::state_digest;
use evogame::prelude::*;
use evogame::svc::{AdmitError, Backend, JobRequest, JobStatus, Server, ServerConfig};

fn params(seed: u64, generations: u64, ssets: usize) -> Params {
    Params {
        num_ssets: ssets,
        generations,
        seed,
        ..Params::default()
    }
}

/// Digest of an uninterrupted shared-memory run — the reference every
/// service-mediated variant must reproduce bit for bit.
fn straight_digest(p: Params) -> String {
    let mut pop = Population::new(p).expect("valid params");
    pop.run_to_end();
    format!(
        "{:016x}",
        state_digest(&pop.assignments(), &pop.snapshot().features)
    )
}

fn completed(status: JobStatus) -> (String, u32) {
    match status {
        JobStatus::Completed {
            state_digest,
            retries,
        } => (state_digest, retries),
        other => panic!("expected completion, got {other:?}"),
    }
}

#[test]
fn pause_mid_run_then_resume_is_bit_identical_to_straight_run() {
    // Long enough that the pause request always lands mid-run: the
    // worker checks the flag every generation, so the only way to miss
    // is completing all 40k generations before our pause call. The pause
    // waits for the first streamed records, so it cannot land before the
    // first generation either (a job that has just turned `Running` is
    // still setting up, and on two free cores this thread gets there
    // first).
    let p = params(3, 40_000, 8);
    let server = Server::new(ServerConfig {
        workers: 1,
        queue_depth: 8,
    });
    server
        .submit(JobRequest::new("pause-me", p.clone()))
        .unwrap();
    while server.records("pause-me").is_some_and(|r| r.is_empty()) {
        std::thread::yield_now();
    }
    assert!(server.pause("pause-me"), "running shared job accepts pause");
    let paused = server.wait("pause-me").unwrap();
    let JobStatus::Paused { generation } = paused else {
        panic!("job settled as {paused:?} before the pause landed — enlarge the run");
    };
    assert!(
        generation > 0 && generation < 40_000,
        "checkpointed mid-run at generation {generation}"
    );

    assert!(server.resume("pause-me"), "paused job resumes");
    let (digest, retries) = completed(server.wait("pause-me").unwrap());
    assert_eq!(retries, 0, "pause is not a retry");
    assert_eq!(
        digest,
        straight_digest(p.clone()),
        "pause/resume through the service is bit-identical to never pausing"
    );

    // The streamed record tail covers every generation exactly once
    // (pre-pause segment + resumed segment, no overlap) and matches the
    // uninterrupted engine trajectory record for record.
    let records = server.records("pause-me").unwrap();
    assert_eq!(records.len(), 40_000);
    let mut pop = Population::new(p).unwrap();
    for rec in &records {
        assert_eq!(*rec, pop.step(), "record-identical at generation {}", rec.generation);
    }
    server.shutdown();
}

#[test]
fn degraded_distributed_job_retries_within_budget_to_clean_digest() {
    let p = params(7, 60, 12);
    let server = Server::new(ServerConfig {
        workers: 1,
        queue_depth: 8,
    });
    let before = evogame::obs::counters().snapshot();

    let mut faulty = JobRequest::new("faulty", p.clone());
    faulty.backend = Backend::Distributed { ranks: 4 };
    faulty.retry_budget = 1;
    faulty.faults.kills.push(RankKill {
        rank: 2,
        generation: 30,
    });
    faulty.faults.recv_timeout_ms = Some(200);
    server.submit(faulty).unwrap();
    let (faulty_digest, retries) = completed(server.wait("faulty").unwrap());
    assert_eq!(retries, 1, "one automatic re-enqueue from the degraded checkpoint");

    let mut clean = JobRequest::new("clean", p);
    clean.backend = Backend::Distributed { ranks: 4 };
    server.submit(clean).unwrap();
    let (clean_digest, clean_retries) = completed(server.wait("clean").unwrap());
    assert_eq!(clean_retries, 0);
    assert_eq!(
        faulty_digest, clean_digest,
        "kill + auto-resume reaches the same final state as the uninterrupted run"
    );

    let delta = evogame::obs::counters().snapshot().delta_since(&before);
    assert!(delta.jobs_retried >= 1, "retry was counted");
    assert!(delta.jobs_completed >= 2);
    server.shutdown();
}

#[test]
fn degraded_job_with_exhausted_budget_fails_terminally() {
    let p = params(7, 60, 12);
    let server = Server::new(ServerConfig {
        workers: 1,
        queue_depth: 8,
    });
    let mut req = JobRequest::new("no-budget", p);
    req.backend = Backend::Distributed { ranks: 4 };
    req.retry_budget = 0;
    req.faults.kills.push(RankKill {
        rank: 2,
        generation: 30,
    });
    req.faults.recv_timeout_ms = Some(200);
    server.submit(req).unwrap();
    let status = server.wait("no-budget").unwrap();
    let JobStatus::Failed { reason, retries } = status else {
        panic!("expected terminal failure, got {status:?}");
    };
    assert_eq!(retries, 0);
    assert!(
        reason.contains("degraded") && reason.contains("budget"),
        "failure says why: {reason}"
    );
    assert!(server.receipt("no-budget").is_none(), "no receipt for a failed job");
    // Terminal means terminal: no lifecycle verb revives it.
    assert!(!server.pause("no-budget"));
    assert!(!server.resume("no-budget"));
    server.shutdown();
}

#[test]
fn queue_full_and_duplicate_rejections_are_typed() {
    // Zero workers: nothing drains, so the bound is hit deterministically.
    let server = Server::new(ServerConfig {
        workers: 0,
        queue_depth: 2,
    });
    server.submit(JobRequest::new("a", params(1, 10, 8))).unwrap();
    server.submit(JobRequest::new("b", params(2, 10, 8))).unwrap();
    assert_eq!(
        server.submit(JobRequest::new("c", params(3, 10, 8))),
        Err(AdmitError::QueueFull { depth: 2 }),
        "typed backpressure at the configured bound"
    );
    assert_eq!(
        server.submit(JobRequest::new("a", params(4, 10, 8))),
        Err(AdmitError::DuplicateId { id: "a".into() })
    );
    assert!(server.status("c").is_none(), "rejected job left no entry");
    server.shutdown();
}

#[test]
fn fixed_seed_receipts_are_identical_across_servers_and_backends() {
    let p = params(11, 60, 12);
    let run_batch = || {
        let server = Server::new(ServerConfig {
            workers: 2,
            queue_depth: 8,
        });
        server.submit(JobRequest::new("shared", p.clone())).unwrap();
        let mut dist = JobRequest::new("dist", p.clone());
        dist.backend = Backend::Distributed { ranks: 4 };
        server.submit(dist).unwrap();
        let shared = completed(server.wait("shared").unwrap()).0;
        let dist = completed(server.wait("dist").unwrap()).0;
        server.shutdown();
        (shared, dist)
    };
    let (shared1, dist1) = run_batch();
    let (shared2, dist2) = run_batch();
    assert_eq!(shared1, shared2, "same seed, same receipt digest");
    assert_eq!(dist1, dist2);
    assert_eq!(
        shared1, dist1,
        "shared and distributed backends agree bit for bit"
    );
    assert_eq!(shared1, straight_digest(p), "and both match the bare engine");
}

#[test]
fn retried_lattice_job_streams_the_same_records_as_the_shared_backend() {
    // A degraded lattice attempt's records up to its checkpoint must reach
    // the stream before the retry appends the rest: the retried job's
    // in-memory records and spooled records.jsonl equal the shared
    // backend's byte for byte, not just its digest.
    let root = std::env::temp_dir().join(format!("evogame_svc_retry_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let spool = evogame::svc::Spool::new(&root).unwrap();
    let server = Server::with_spool(
        ServerConfig {
            workers: 1,
            queue_depth: 8,
        },
        Some(spool.clone()),
    );
    let p = SpatialParams {
        width: 12,
        height: 12,
        generations: 24,
        seed: 13,
        ..SpatialParams::default()
    };
    server
        .submit(JobRequest::new_spatial(
            "shared",
            p.clone(),
            InitPattern::SingleDefector,
        ))
        .unwrap();
    let mut retried = JobRequest::new_spatial("retried", p, InitPattern::SingleDefector);
    retried.backend = Backend::Distributed { ranks: 3 };
    retried.retry_budget = 1;
    retried.faults.kills.push(RankKill {
        rank: 2,
        generation: 10,
    });
    server.submit(retried).unwrap();

    let (shared_digest, _) = completed(server.wait("shared").unwrap());
    let (retried_digest, retries) = completed(server.wait("retried").unwrap());
    assert_eq!(retries, 1, "one degraded attempt, one clean retry");
    assert_eq!(retried_digest, shared_digest);

    let shared = server.records("shared").unwrap();
    assert_eq!(shared.len(), 24);
    assert_eq!(
        server.records("retried").unwrap(),
        shared,
        "the retried job reports every generation exactly once"
    );
    let spooled = |id: &str| std::fs::read(spool.job_dir(id).join("records.jsonl")).unwrap();
    assert_eq!(spooled("retried"), spooled("shared"), "records.jsonl");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// Duplicate faults only, spread over `ranks`' compute ranks' first sends.
fn duplicates(ranks: usize, sends: u64) -> FaultPlan {
    FaultPlan {
        messages: MessageFaults {
            faults: (0..sends)
                .map(|nth_send| MessageFault {
                    src: 1 + (nth_send as usize % (ranks - 1)),
                    nth_send,
                    action: FaultAction::Duplicate,
                })
                .collect(),
        },
        ..FaultPlan::default()
    }
}

#[test]
fn duplicate_faults_leave_distributed_lattice_and_fixation_jobs_clean() {
    // Every point-to-point message of the lattice and fixation protocols
    // names its generation or replicate, so a duplicate is dropped, never
    // taken for the next message: no attempt degrades, and each job ends
    // on its shared-memory twin's digest.
    let server = Server::new(ServerConfig {
        workers: 2,
        queue_depth: 8,
    });
    let lattice = SpatialParams {
        width: 12,
        height: 12,
        generations: 24,
        seed: 17,
        ..SpatialParams::default()
    };
    let space = StateSpace::new(1).unwrap();
    let mut params = Params {
        mem_steps: 1,
        num_ssets: 8,
        generations: 200,
        seed: 9,
        pc_rate: 1.0,
        mutation_rate: 0.0,
        rule: UpdateRule::Moran,
        ..Params::default()
    };
    params.game.rounds = 10;
    let fixation = FixationSpec {
        params,
        resident: Strategy::Pure(evogame::ipd::classic::all_c(&space)),
        mutant: Strategy::Pure(evogame::ipd::classic::all_d(&space)),
        replicates: 10,
    };
    let jobs = [
        JobRequest::new_spatial("lattice", lattice, InitPattern::RandomDefectors(0.4)),
        JobRequest::new_fixation("fixation", fixation),
    ];
    for shared in jobs {
        let mut dist = shared.clone();
        dist.id = format!("{}-dist", shared.id);
        dist.backend = Backend::Distributed { ranks: 3 };
        dist.faults = duplicates(3, 12);
        server.submit(shared.clone()).unwrap();
        server.submit(dist.clone()).unwrap();
        let (shared_digest, _) = completed(server.wait(&shared.id).unwrap());
        let (dist_digest, retries) = completed(server.wait(&dist.id).unwrap());
        assert_eq!(retries, 0, "{}: no attempt degraded", dist.id);
        assert_eq!(dist_digest, shared_digest, "{}", dist.id);
    }
    server.shutdown();
}
