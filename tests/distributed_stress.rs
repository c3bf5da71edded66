//! Randomised stress testing of the distributed engine: many random
//! configurations, each checked for exact trajectory equality against the
//! shared-memory reference — the repository's strongest end-to-end
//! correctness statement.

use evogame::cluster::dist::{run_distributed, DistConfig, DistError};
use evogame::cluster::faults::{FaultPlan, RankKill};
use evogame::engine::params::MutationKind;
use evogame::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn random_params(rng: &mut ChaCha8Rng) -> Params {
    let mem = rng.random_range(0..=2);
    let mut p = Params {
        mem_steps: mem,
        num_ssets: rng.random_range(4..=14),
        generations: rng.random_range(10..=50),
        seed: rng.random(),
        pc_rate: rng.random_range(0.0..=1.0),
        mutation_rate: rng.random_range(0.0..=0.5),
        beta: rng.random_range(0.0..=3.0),
        kind: if rng.random_bool(0.5) {
            StrategyKind::Pure
        } else {
            StrategyKind::Mixed
        },
        rule: match rng.random_range(0..3) {
            0 => UpdateRule::PairwiseComparison,
            1 => UpdateRule::Moran,
            _ => UpdateRule::ImitateBest,
        },
        teacher_must_be_fitter: rng.random_bool(0.7),
        ..Params::default()
    };
    p.game.rounds = rng.random_range(4..=32);
    p.game.noise = if rng.random_bool(0.5) { 0.0 } else { 0.05 };
    p.mutation_kind = if rng.random_bool(0.5) {
        MutationKind::Fresh
    } else {
        MutationKind::PointFlip {
            states: rng.random_range(1..=3),
        }
    };
    p
}

#[test]
fn random_configs_distributed_equals_shared_memory() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xD157);
    for case in 0..25 {
        let params = random_params(&mut rng);
        let ranks = rng.random_range(2..=7);
        let policy = if rng.random_bool(0.5) {
            FitnessPolicy::EveryGeneration
        } else {
            FitnessPolicy::OnDemand
        };
        let mut reference = Population::new(params.clone()).unwrap();
        // Match the distributed policy so the full RunStats — evaluation
        // and game counts included — must agree, not just the trajectory.
        reference.fitness_policy = policy;
        reference.run_to_end();
        let out = run_distributed(&DistConfig::new(params.clone(), ranks, policy)).unwrap();
        assert_eq!(
            out.assignments,
            reference.assignments(),
            "case {case}: {params:?} on {ranks} ranks ({policy:?}) diverged"
        );
        assert_eq!(
            out.stats,
            *reference.stats(),
            "case {case}: RunStats diverged on {ranks} ranks ({policy:?})"
        );
    }
}

#[test]
fn every_rule_and_policy_is_bit_identical_distributed() {
    // The full matrix the engine core unlocked: all three update rules ×
    // both fitness policies, distributed vs shared memory, compared on
    // serialised events (exact f64 bit patterns travel through the JSON:
    // equal strings ⇒ equal bits), assignments, and RunStats.
    for (r, rule) in [
        UpdateRule::PairwiseComparison,
        UpdateRule::Moran,
        UpdateRule::ImitateBest,
    ]
    .into_iter()
    .enumerate()
    {
        for policy in [FitnessPolicy::EveryGeneration, FitnessPolicy::OnDemand] {
            let mut params = Params {
                mem_steps: 1,
                num_ssets: 10,
                generations: 40,
                seed: 0xBEE5 + r as u64,
                mutation_rate: 0.2,
                rule,
                ..Params::default()
            };
            params.game.rounds = 12;
            let mut reference = Population::new(params.clone()).unwrap();
            reference.fitness_policy = policy;
            let ref_events: Vec<String> = (0..params.generations)
                .map(|_| serde_json::to_string(&reference.step().events).unwrap())
                .collect();
            let out = run_distributed(&DistConfig::new(params.clone(), 4, policy)).unwrap();
            let dist_events: Vec<String> = out
                .events
                .iter()
                .map(|e| serde_json::to_string(e).unwrap())
                .collect();
            assert_eq!(dist_events, ref_events, "{rule:?}/{policy:?}: event bits");
            assert_eq!(
                out.assignments,
                reference.assignments(),
                "{rule:?}/{policy:?}: assignments"
            );
            assert_eq!(out.stats, *reference.stats(), "{rule:?}/{policy:?}: RunStats");
        }
    }
}

#[test]
fn random_configs_all_exec_paths_agree() {
    // The naive evaluator vs dedup on random configs (every thread count
    // is tests/determinism.rs's matrix).
    let mut rng = ChaCha8Rng::seed_from_u64(0xACE5);
    for case in 0..20 {
        let mut params = random_params(&mut rng);
        // Dedup requires deterministic games to engage in half the cases;
        // the rest exercise the stochastic fallbacks.
        if rng.random_bool(0.5) {
            params.kind = StrategyKind::Pure;
            params.game.noise = 0.0;
        }
        let build = |dedup: bool| {
            let mut p = Population::new(params.clone()).unwrap();
            p.dedup = dedup;
            p.run_to_end();
            p.assignments().to_vec()
        };
        assert_eq!(build(false), build(true), "case {case}: dedup diverged");
    }
}

#[test]
fn rank_kill_then_resume_is_bit_identical_for_every_rule() {
    // The fault-tolerance acceptance path, per update rule: inject a rank
    // kill, require a typed DegradedRun (no panic, no hang) carrying a
    // checkpoint, resume from it, and demand the stitched trajectory equal
    // the uninterrupted run bit for bit.
    for (r, rule) in [
        UpdateRule::PairwiseComparison,
        UpdateRule::Moran,
        UpdateRule::ImitateBest,
    ]
    .into_iter()
    .enumerate()
    {
        let mut params = Params {
            mem_steps: 1,
            num_ssets: 9,
            generations: 40,
            seed: 0xFA17 + r as u64,
            mutation_rate: 0.2,
            rule,
            ..Params::default()
        };
        params.game.rounds = 12;
        let clean = run_distributed(&DistConfig::new(
            params.clone(),
            4,
            FitnessPolicy::EveryGeneration,
        ))
        .unwrap();

        let mut faulty = DistConfig::new(params, 4, FitnessPolicy::EveryGeneration);
        faulty.faults.kills = vec![RankKill {
            rank: 2,
            generation: 15,
        }];
        let DistError::Degraded(d) = run_distributed(&faulty).unwrap_err() else {
            panic!("{rule:?}: expected a DegradedRun");
        };
        assert!(d.dead_ranks.contains(&2), "{rule:?}: {:?}", d.dead_ranks);
        let cp = d.checkpoint.expect("degraded run leaves a checkpoint");
        let resume_from = cp.generation as usize;

        let mut resumed_cfg =
            DistConfig::new(cp.params.clone(), 4, FitnessPolicy::EveryGeneration);
        resumed_cfg.resume = Some(cp);
        let resumed = run_distributed(&resumed_cfg).unwrap();
        assert_eq!(resumed.assignments, clean.assignments, "{rule:?}");
        assert_eq!(resumed.stats, clean.stats, "{rule:?}: full RunStats");
        assert_eq!(
            serde_json::to_string(&resumed.events).unwrap(),
            serde_json::to_string(&clean.events[resume_from..].to_vec()).unwrap(),
            "{rule:?}: event bits from generation {resume_from}"
        );
    }
}

#[test]
fn checkpoints_cross_backends_bit_identically() {
    // A checkpoint is backend-neutral: shared memory can resume what the
    // distributed engine snapshotted and vice versa, both matching the
    // uninterrupted shared-memory run.
    let mut params = Params {
        mem_steps: 1,
        num_ssets: 8,
        generations: 40,
        seed: 0xC0DE,
        mutation_rate: 0.2,
        ..Params::default()
    };
    params.game.rounds = 12;
    let mut straight = Population::new(params.clone()).unwrap();
    straight.run_to_end();

    // Shared → distributed.
    let mut first = Population::new(params.clone()).unwrap();
    first.run(20);
    let mut cfg = DistConfig::new(params.clone(), 4, FitnessPolicy::EveryGeneration);
    cfg.resume = Some(first.checkpoint());
    let dist = run_distributed(&cfg).unwrap();
    assert_eq!(
        dist.assignments,
        straight.assignments(),
        "shared checkpoint resumed distributed diverged"
    );

    // Distributed → shared.
    let mut cfg = DistConfig::new(params, 4, FitnessPolicy::EveryGeneration);
    cfg.checkpoint_every = Some(20);
    let out = run_distributed(&cfg).unwrap();
    let cp = out.checkpoint.expect("periodic checkpoint present");
    assert_eq!(cp.generation, 40, "latest multiple of 20 within 40");
    let resumed = Population::restore(cp).unwrap();
    assert_eq!(
        resumed.assignments(),
        straight.assignments(),
        "distributed checkpoint restored shared-memory diverged"
    );
}

#[test]
fn spatial_distributed_equals_shared_at_every_rank_count() {
    // The structured-population counterpart of the equality suite above:
    // the row-sharded lattice runner must reproduce the shared-memory
    // SpatialPopulation bit for bit — record stream, final grid, stats,
    // and state digest — at every rank count (docs/GRAPH.md).
    use evogame::engine::record::state_digest;
    for update in [SpatialUpdate::BestNeighbor, SpatialUpdate::Fermi { beta: 0.8 }] {
        let params = SpatialParams {
            width: 12,
            height: 12,
            generations: 30,
            seed: 0x57A7,
            update,
            ..SpatialParams::default()
        };
        let mut pop = SpatialPopulation::new(params.clone(), InitPattern::SingleDefector);
        let shared_records: Vec<String> = (0..params.generations)
            .map(|_| serde_json::to_string(&pop.step()).unwrap())
            .collect();
        let snap = pop.snapshot();
        let shared_digest = state_digest(&snap.assignments, &snap.features);
        for ranks in [2usize, 4] {
            let out = run_spatial_distributed(&SpatialDistConfig::new(
                params.clone(),
                InitPattern::SingleDefector,
                ranks,
            ))
            .unwrap();
            let dist_records: Vec<String> = out
                .records
                .iter()
                .map(|r| serde_json::to_string(r).unwrap())
                .collect();
            assert_eq!(
                dist_records, shared_records,
                "{update:?} on {ranks} ranks: record stream diverged"
            );
            assert_eq!(out.grid, pop.grid(), "{update:?} on {ranks} ranks: grid");
            assert_eq!(out.stats, *pop.stats(), "{update:?} on {ranks} ranks: stats");
            assert_eq!(
                state_digest(&out.grid, &out.features),
                shared_digest,
                "{update:?} on {ranks} ranks: state digest"
            );
        }
    }
}

#[test]
fn spatial_rank_kill_then_resume_is_bit_identical() {
    // Fault-tolerance parity for lattice runs: a rank kill yields a typed
    // SpatialDegradedRun with a boundary checkpoint, and the resumed run
    // stitches onto the clean trajectory exactly.
    let params = SpatialParams {
        width: 12,
        height: 12,
        generations: 30,
        seed: 0x57A8,
        update: SpatialUpdate::Fermi { beta: 1.2 },
        ..SpatialParams::default()
    };
    let clean = run_spatial_distributed(&SpatialDistConfig::new(
        params.clone(),
        InitPattern::SingleDefector,
        3,
    ))
    .unwrap();

    let mut faulty = SpatialDistConfig::new(params, InitPattern::SingleDefector, 3);
    faulty.faults.kills = vec![RankKill {
        rank: 1,
        generation: 12,
    }];
    let DistError::Degraded(d) = run_spatial_distributed(&faulty).unwrap_err() else {
        panic!("expected a SpatialDegradedRun");
    };
    assert!(d.dead_ranks.contains(&1), "{:?}", d.dead_ranks);
    let mut resumed_cfg = faulty.clone();
    resumed_cfg.faults = faulty.faults.spent();
    resumed_cfg.resume = Some(d.checkpoint.expect("degraded run leaves a checkpoint"));
    let resume_from = resumed_cfg.resume.as_ref().unwrap().generation as usize;
    let resumed = run_spatial_distributed(&resumed_cfg).unwrap();
    assert_eq!(resumed.grid, clean.grid, "final grid");
    assert_eq!(resumed.stats, clean.stats, "full RunStats");
    assert_eq!(
        serde_json::to_string(&resumed.records).unwrap(),
        serde_json::to_string(&clean.records[resume_from..].to_vec()).unwrap(),
        "record bits from generation {resume_from}"
    );
}

/// One edge of the generation frame's boundary contract, run through both
/// generation-stepped runners.
struct FrameEdge {
    name: &'static str,
    /// Resume from a shared-memory checkpoint taken at this generation.
    resume_at: Option<u64>,
    /// Kill rank 1 before this generation.
    kill_at: Option<u64>,
    checkpoint_every: Option<u64>,
    /// `Ok`: the generation of the run's latest periodic checkpoint.
    /// `Err`: the generation a degraded run stops at — its `completed`,
    /// its checkpoint's generation, and no records.
    expect: Result<Option<u64>, u64>,
}

/// What a run did at its boundaries: the latest periodic checkpoint's
/// generation, or a degraded run's (completed, checkpoint generation,
/// records).
type FrameObserved = Result<Option<u64>, (u64, Option<u64>, usize)>;

fn frame_well_mixed(edge: &FrameEdge) -> FrameObserved {
    // Moran at pc rate 1 gathers every owned block each generation, so
    // rank 0 cannot commit the kill generation without the killed rank.
    let mut params = Params {
        mem_steps: 1,
        num_ssets: 8,
        generations: 18,
        seed: 0xED6E,
        pc_rate: 1.0,
        rule: UpdateRule::Moran,
        ..Params::default()
    };
    params.game.rounds = 8;
    let mut cfg = DistConfig::new(params.clone(), 3, FitnessPolicy::EveryGeneration);
    cfg.resume = edge.resume_at.map(|g| {
        let mut pop = Population::new(params).unwrap();
        pop.run(g);
        pop.checkpoint()
    });
    cfg.checkpoint_every = edge.checkpoint_every;
    cfg.faults.kills = edge.kill_at.map(|g| RankKill { rank: 1, generation: g }).into_iter().collect();
    match run_distributed(&cfg) {
        Ok(out) => Ok(out.checkpoint.map(|cp| cp.generation)),
        Err(DistError::Degraded(d)) => {
            Err((d.completed, d.checkpoint.map(|cp| cp.generation), d.records.len()))
        }
        Err(other) => panic!("{}: well-mixed: {other}", edge.name),
    }
}

fn frame_lattice(edge: &FrameEdge) -> FrameObserved {
    let params = SpatialParams {
        width: 12,
        height: 12,
        generations: 18,
        seed: 0xED6F,
        update: SpatialUpdate::Fermi { beta: 1.0 },
        ..SpatialParams::default()
    };
    let init = InitPattern::RandomDefectors(0.4);
    let mut cfg = SpatialDistConfig::new(params.clone(), init.clone(), 3);
    cfg.resume = edge.resume_at.map(|g| {
        let mut pop = SpatialPopulation::new(params, init);
        for _ in 0..g {
            pop.step();
        }
        pop.checkpoint()
    });
    cfg.checkpoint_every = edge.checkpoint_every;
    cfg.faults.kills = edge.kill_at.map(|g| RankKill { rank: 1, generation: g }).into_iter().collect();
    match run_spatial_distributed(&cfg) {
        Ok(out) => Ok(out.checkpoint.map(|cp| cp.generation)),
        Err(DistError::Degraded(d)) => {
            Err((d.completed, d.checkpoint.map(|cp| cp.generation), d.records.len()))
        }
        Err(other) => panic!("{}: lattice: {other}", edge.name),
    }
}

#[test]
fn generation_frame_boundary_edges_hold_for_both_runners() {
    let edges = [
        FrameEdge {
            name: "kill at the first generation of a fresh attempt",
            resume_at: None,
            kill_at: Some(0),
            checkpoint_every: None,
            expect: Err(0),
        },
        FrameEdge {
            name: "kill at the first generation of a resumed attempt",
            resume_at: Some(7),
            kill_at: Some(7),
            checkpoint_every: None,
            expect: Err(7),
        },
        FrameEdge {
            name: "checkpoint_every = 0 never snapshots",
            resume_at: None,
            kill_at: None,
            checkpoint_every: Some(0),
            expect: Ok(None),
        },
        FrameEdge {
            name: "an interval longer than the run never snapshots",
            resume_at: None,
            kill_at: None,
            checkpoint_every: Some(40),
            expect: Ok(None),
        },
        FrameEdge {
            name: "a resumed run snapshots at absolute multiples (7 → 10, 15)",
            resume_at: Some(7),
            kill_at: None,
            checkpoint_every: Some(5),
            expect: Ok(Some(15)),
        },
    ];
    for edge in &edges {
        let expected = edge.expect.map_err(|g| (g, Some(g), 0));
        assert_eq!(frame_well_mixed(edge), expected, "well-mixed: {}", edge.name);
        assert_eq!(frame_lattice(edge), expected, "lattice: {}", edge.name);
    }
}

fn fixation_spec(seed: u64, replicates: u32) -> FixationSpec {
    let space = StateSpace::new(1).unwrap();
    let mut params = Params {
        mem_steps: 1,
        num_ssets: 8,
        generations: 200,
        seed,
        pc_rate: 1.0,
        mutation_rate: 0.0,
        rule: UpdateRule::Moran,
        ..Params::default()
    };
    params.game.rounds = 10;
    FixationSpec {
        params,
        resident: Strategy::Pure(evogame::ipd::classic::all_c(&space)),
        mutant: Strategy::Pure(evogame::ipd::classic::all_d(&space)),
        replicates,
    }
}

#[test]
fn fixation_distributed_equals_shared_at_every_rank_count() {
    // The fixation-workload counterpart of the equality suite: the
    // replicate-sharded runner must reproduce the shared-memory
    // FixationBatch bit for bit — per-replicate results, records, and
    // batch digest — at every rank count (docs/FIXATION.md).
    use evogame::cluster::dist::fixation::{run_fixation_distributed, FixationDistConfig};
    let spec = fixation_spec(0xF1_57A7, 20);
    let mut batch = FixationBatch::new(spec.clone()).unwrap();
    let shared = batch.run();
    let shared_records = serde_json::to_string(&shared.records()).unwrap();
    for ranks in [2usize, 4] {
        let out = run_fixation_distributed(&FixationDistConfig::new(spec.clone(), ranks)).unwrap();
        assert_eq!(
            out.outcome, shared,
            "{ranks} ranks: per-replicate results diverged"
        );
        assert_eq!(
            serde_json::to_string(&out.outcome.records()).unwrap(),
            shared_records,
            "{ranks} ranks: record bits diverged"
        );
        assert_eq!(
            out.outcome.digest(),
            shared.digest(),
            "{ranks} ranks: batch digest diverged"
        );
    }
}

#[test]
fn fixation_rank_kill_then_resume_is_bit_identical() {
    // Fault-tolerance parity for fixation batches: a rank kill yields a
    // typed FixationDegradedRun whose checkpoint is always present, and
    // the resumed batch stitches onto the clean outcome exactly.
    use evogame::cluster::dist::fixation::{run_fixation_distributed, FixationDistConfig};
    let spec = fixation_spec(0xF1_57A8, 20);
    let clean = run_fixation_distributed(&FixationDistConfig::new(spec.clone(), 3)).unwrap();

    let mut faulty = FixationDistConfig::new(spec, 3);
    // With 20 replicates over 2 compute ranks, rank 1 owns indices 0..10.
    faulty.faults.kills = vec![RankKill {
        rank: 1,
        generation: 6,
    }];
    let DistError::Degraded(d) = run_fixation_distributed(&faulty).unwrap_err() else {
        panic!("expected a FixationDegradedRun");
    };
    assert!(d.dead_ranks.contains(&1), "{:?}", d.dead_ranks);
    assert_eq!(
        d.checkpoint.as_ref().unwrap().completed.len() as u64,
        d.completed,
        "the degraded checkpoint carries exactly the completed replicates"
    );
    let mut retry = faulty.clone();
    retry.faults = faulty.faults.spent();
    retry.resume = d.checkpoint;
    let resumed = run_fixation_distributed(&retry).unwrap();
    assert_eq!(resumed.outcome, clean.outcome, "stitched outcome");
    assert_eq!(
        resumed.outcome.digest(),
        clean.outcome.digest(),
        "batch digest after kill→resume"
    );
}

#[test]
fn random_fault_plans_always_terminate_with_typed_outcomes() {
    // No fault schedule may hang or panic the distributed engine: every
    // seeded plan ends in a clean outcome or a restartable DegradedRun.
    for seed in 0..8u64 {
        let mut params = Params {
            mem_steps: 1,
            num_ssets: 8,
            generations: 30,
            seed,
            ..Params::default()
        };
        params.game.rounds = 8;
        let mut cfg = DistConfig::new(params, 5, FitnessPolicy::EveryGeneration);
        cfg.faults = FaultPlan::seeded(seed, 5, 30, 1, 3);
        match run_distributed(&cfg) {
            Ok(out) => assert_eq!(out.stats.generations, 30),
            Err(DistError::Degraded(d)) => {
                let cp = d.checkpoint.expect("restartable checkpoint");
                let mut resume_cfg =
                    DistConfig::new(cp.params.clone(), 5, FitnessPolicy::EveryGeneration);
                resume_cfg.resume = Some(cp);
                let resumed = run_distributed(&resume_cfg).unwrap();
                assert_eq!(resumed.stats.generations, 30, "seed {seed}: resume completes");
            }
            Err(other) => panic!("seed {seed}: unexpected error {other}"),
        }
    }
}

#[test]
fn checkpoint_restore_random_split_points() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xC4EC);
    for case in 0..10 {
        let params = random_params(&mut rng);
        let total = params.generations;
        let split = rng.random_range(0..=total);
        let mut straight = Population::new(params.clone()).unwrap();
        straight.run(total);
        let mut first = Population::new(params).unwrap();
        first.run(split);
        let mut resumed = Population::restore(first.checkpoint()).unwrap();
        resumed.run(total - split);
        assert_eq!(
            resumed.assignments(),
            straight.assignments(),
            "case {case}: split at {split}/{total} diverged"
        );
    }
}
