//! Thread-count invariance: the determinism contract promises bit-identical
//! trajectories at any rayon worker count (docs/STATIC_ANALYSIS.md,
//! docs/OBSERVABILITY.md). The vendored rayon reads `RAYON_NUM_THREADS` on
//! every parallel call, so one process can replay the same run at 1, 2, and
//! 8 workers and compare the full record stream byte for byte.
//!
//! Everything lives in one `#[test]` because the thread-count knob is a
//! process-global environment variable — concurrent tests would race on it.
//! (The checkpoint matrix below only reads the knob, at whatever width a
//! concurrent write left it; its results are the same bits at every width.)

use evogame::engine::params::MutationKind;
use evogame::engine::params::UpdateRule;
use evogame::prelude::*;

/// Evaluation knobs exercised by the matrix: the exact Markov fast path
/// and the deduplicated evaluator, which reads and warms the
/// cross-generation payoff memo-cache (docs/PERFORMANCE.md). Every
/// combination must be thread-count invariant.
#[derive(Clone, Copy)]
struct Knobs {
    expected_fitness: bool,
    dedup: bool,
}

/// One full run at the given worker count: every generation record
/// serialised to JSON, plus the final assignments, fitness bit patterns,
/// and aggregate statistics.
fn run(
    params: &Params,
    threads: &str,
    knobs: Knobs,
) -> (Vec<String>, Vec<StratId>, Vec<u64>, RunStats) {
    std::env::set_var("RAYON_NUM_THREADS", threads);
    let mut p = Population::new(params.clone()).unwrap();
    p.expected_fitness = knobs.expected_fitness;
    p.dedup = knobs.dedup;
    let records: Vec<String> = (0..params.generations)
        .map(|_| serde_json::to_string(&p.step()).unwrap())
        .collect();
    let fitness_bits = p.fitness().iter().map(|f| f.to_bits()).collect();
    (records, p.assignments().to_vec(), fitness_bits, *p.stats())
}

#[test]
fn trajectories_are_bit_identical_across_thread_counts() {
    let configs = [
        // Pure strategies, noiseless: the dedup-eligible fast path.
        Params {
            mem_steps: 1,
            num_ssets: 24,
            generations: 30,
            seed: 0xDE7E_2177,
            kind: StrategyKind::Pure,
            ..Params::default()
        },
        // Mixed strategies under execution noise: every fitness value is a
        // float accumulated from sampled games — the path where iteration
        // order would leak straight into the bits.
        {
            let mut p = Params {
                mem_steps: 2,
                num_ssets: 17,
                generations: 25,
                seed: 0xB17_1DE7,
                kind: StrategyKind::Mixed,
                mutation_rate: 0.2,
                ..Params::default()
            };
            p.game.noise = 0.05;
            p.mutation_kind = MutationKind::Fresh;
            p
        },
    ];
    // Every evaluator the engine selects: naive (uncached), dedup and
    // expected (both cached). Dedup falls back to the naive evaluator for
    // non-deterministic configs, so it is safe in both cases.
    let knob_matrix = [
        Knobs { expected_fitness: false, dedup: false },
        Knobs { expected_fitness: false, dedup: true },
        Knobs { expected_fitness: true, dedup: false },
    ];
    for (case, params) in configs.iter().enumerate() {
        let mut per_knob = Vec::new();
        for (k, knobs) in knob_matrix.iter().enumerate() {
            let baseline = run(params, "1", *knobs);
            for threads in ["2", "8"] {
                let got = run(params, threads, *knobs);
                assert_eq!(
                    baseline.0, got.0,
                    "case {case} knobs {k}: generation record stream diverged \
                     at {threads} threads"
                );
                assert_eq!(
                    baseline.1, got.1,
                    "case {case} knobs {k}: final assignments diverged at {threads} threads"
                );
                assert_eq!(
                    baseline.2, got.2,
                    "case {case} knobs {k}: final fitness bits diverged at {threads} threads"
                );
                assert_eq!(
                    baseline.3, got.3,
                    "case {case} knobs {k}: RunStats diverged at {threads} threads"
                );
            }
            per_knob.push(baseline);
        }
        // On the pure, noiseless configuration dedup (cached) is the naive
        // evaluator (uncached) to the bit: same records, assignments,
        // fitness and statistics — all but the games it did not replay
        // (docs/PERFORMANCE.md).
        if case == 0 {
            let (naive, dedup) = (&per_knob[0], &per_knob[1]);
            assert_eq!((&naive.0, &naive.1, &naive.2), (&dedup.0, &dedup.1, &dedup.2), "dedup diverged from naive");
            let replayed = RunStats { games_played: naive.3.games_played, ..dedup.3 };
            assert_eq!(naive.3, replayed, "dedup changed more than its games accounting");
            assert!(dedup.3.games_played < naive.3.games_played, "dedup replays fewer games");
        }
    }

    // Structured populations ride the same contract: the lattice play and
    // decide phases are rayon-parallel over per-cell `Domain::Graph`
    // streams (docs/GRAPH.md), so the spatial record stream, final grid,
    // stats, and state digest must be just as thread-count invariant.
    let spatial_run = |threads: &str, update: SpatialUpdate| {
        std::env::set_var("RAYON_NUM_THREADS", threads);
        let params = SpatialParams {
            width: 16,
            height: 16,
            generations: 25,
            seed: 0x5A71A1,
            update,
            ..SpatialParams::default()
        };
        let mut pop = SpatialPopulation::new(params.clone(), InitPattern::SingleDefector);
        let records: Vec<String> = (0..params.generations)
            .map(|_| serde_json::to_string(&pop.step()).unwrap())
            .collect();
        let snap = pop.snapshot();
        let digest = evogame::engine::record::state_digest(&snap.assignments, &snap.features);
        (records, pop.grid().to_vec(), *pop.stats(), digest)
    };
    for (u, update) in [SpatialUpdate::BestNeighbor, SpatialUpdate::Fermi { beta: 0.5 }]
        .into_iter()
        .enumerate()
    {
        let baseline = spatial_run("1", update);
        for threads in ["2", "8"] {
            let got = spatial_run(threads, update);
            assert_eq!(
                baseline.0, got.0,
                "spatial update {u}: record stream diverged at {threads} threads"
            );
            assert_eq!(
                baseline.1, got.1,
                "spatial update {u}: final grid diverged at {threads} threads"
            );
            assert_eq!(
                baseline.2, got.2,
                "spatial update {u}: RunStats diverged at {threads} threads"
            );
            assert_eq!(
                baseline.3, got.3,
                "spatial update {u}: state digest diverged at {threads} threads"
            );
        }
    }
    // The fixation workload fans replicates out through the same rayon
    // stub; each replicate is a pure function of (spec, index)
    // (docs/FIXATION.md), so the full per-replicate result set and batch
    // digest must be thread-count invariant too.
    let fixation_run = |threads: &str| {
        std::env::set_var("RAYON_NUM_THREADS", threads);
        let space = StateSpace::new(1).unwrap();
        let mut params = Params {
            mem_steps: 1,
            num_ssets: 8,
            generations: 200,
            seed: 0xF1_8A7E,
            pc_rate: 1.0,
            mutation_rate: 0.0,
            rule: UpdateRule::Moran,
            ..Params::default()
        };
        params.game.rounds = 10;
        let spec = FixationSpec {
            params,
            resident: Strategy::Pure(evogame::ipd::classic::all_c(&space)),
            mutant: Strategy::Pure(evogame::ipd::classic::all_d(&space)),
            replicates: 24,
        };
        let mut batch = FixationBatch::new(spec).unwrap();
        let outcome = batch.run();
        (outcome.digest(), outcome)
    };
    let baseline = fixation_run("1");
    for threads in ["2", "8"] {
        let got = fixation_run(threads);
        assert_eq!(
            baseline.1, got.1,
            "fixation: per-replicate results diverged at {threads} threads"
        );
        assert_eq!(
            baseline.0, got.0,
            "fixation: batch digest diverged at {threads} threads"
        );
    }
    std::env::remove_var("RAYON_NUM_THREADS");
}

#[test]
fn checkpoint_roundtrip_is_bit_identical_for_every_update_rule() {
    // The fault-tolerance contract (docs/FAULT_TOLERANCE.md): serialise a
    // checkpoint to JSON mid-run, parse it back, resume — and the stitched
    // record stream, fitness bit patterns, and RunStats must equal the
    // uninterrupted run exactly, for all three update rules.
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
            num_ssets: 12,
            generations: 40,
            seed: 0xCC_0FFE + r as u64,
            mutation_rate: 0.2,
            rule,
            ..Params::default()
        };
        params.game.rounds = 12;

        let mut straight = Population::new(params.clone()).unwrap();
        let straight_records: Vec<String> = (0..params.generations)
            .map(|_| serde_json::to_string(&straight.step()).unwrap())
            .collect();

        for split in [1u64, 17, 39] {
            let mut first = Population::new(params.clone()).unwrap();
            let mut records: Vec<String> = (0..split)
                .map(|_| serde_json::to_string(&first.step()).unwrap())
                .collect();
            // Through the wire format, not just the in-memory struct: the
            // JSON round trip itself must preserve every f64 bit.
            let json = serde_json::to_string(&first.checkpoint()).unwrap();
            let cp: evogame::engine::record::Checkpoint = serde_json::from_str(&json).unwrap();
            let mut resumed = Population::restore(cp).unwrap();
            records.extend(
                (split..params.generations)
                    .map(|_| serde_json::to_string(&resumed.step()).unwrap()),
            );

            assert_eq!(
                records, straight_records,
                "{rule:?} split {split}: record stream diverged"
            );
            assert_eq!(
                resumed.assignments(),
                straight.assignments(),
                "{rule:?} split {split}: assignments diverged"
            );
            assert_eq!(
                resumed.stats(),
                straight.stats(),
                "{rule:?} split {split}: RunStats diverged"
            );
        }
    }
}
