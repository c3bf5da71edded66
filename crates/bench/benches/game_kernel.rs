//! Criterion bench: the iterated-game kernel across memory depths.
//!
//! Measures one 200-round deterministic game per memory step — the
//! innermost loop of the whole system, whose cost profile drives Table VI
//! and Fig 4 — and, in `game_kernel/lockstep`, the same games played K at
//! a time: the table `evo_core::fitness`'s `LANES` constant is read off.
//! `game_kernel/cycle_vs_naive` times the engine's kernel, the cycle
//! payout, against the lanes, per game, at each depth, and
//! `game_kernel/word_parallel` against the 64-game batch kernel
//! (docs/PERFORMANCE.md §1).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ipd::game::{play, play_deterministic, play_deterministic_lanes, GameConfig};
use ipd::state::StateSpace;
use ipd::strategy::{MixedStrategy, PureStrategy, Strategy};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;

fn bench_deterministic(c: &mut Criterion) {
    let cfg = GameConfig::default();
    let mut group = c.benchmark_group("game_kernel/deterministic");
    group.sample_size(20);
    for mem in [1usize, 2, 4, 6] {
        let space = StateSpace::new(mem).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let a = PureStrategy::random(space, &mut rng);
        let b = PureStrategy::random(space, &mut rng);
        group.bench_with_input(BenchmarkId::from_parameter(mem), &mem, |bencher, _| {
            bencher.iter(|| {
                black_box(play_deterministic(
                    black_box(&space),
                    black_box(&a),
                    black_box(&b),
                    &cfg,
                ))
            });
        });
    }
    group.finish();
}

fn bench_stochastic(c: &mut Criterion) {
    let cfg = GameConfig {
        noise: 0.01,
        ..GameConfig::default()
    };
    let mut group = c.benchmark_group("game_kernel/stochastic_mixed");
    group.sample_size(20);
    for mem in [1usize, 3] {
        let space = StateSpace::new(mem).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let a = Strategy::Mixed(MixedStrategy::random(space, &mut rng));
        let b = Strategy::Mixed(MixedStrategy::random(space, &mut rng));
        group.bench_with_input(BenchmarkId::from_parameter(mem), &mem, |bencher, _| {
            let mut game_rng = ChaCha8Rng::seed_from_u64(3);
            bencher.iter(|| {
                black_box(play(
                    black_box(&space),
                    black_box(&a),
                    black_box(&b),
                    &cfg,
                    &mut game_rng,
                ))
            });
        });
    }
    group.finish();
}

/// What `PairPayoff::play_group` costs per memory depth: a 200-round game
/// played alone and paid out from its cycle, and 64 random focal
/// strategies against four random opponents each — in lockstep lanes
/// (`lockstep/4`) and paid out from their cycles (`cycle_detection/4`), 256
/// games an iteration: divide by 256. How soon a game repeats a state
/// varies from pair to pair, so the per-game cost is read off many pairs.
fn bench_cycle_kernel(c: &mut Criterion) {
    use ipd::game::{play_deterministic_cycle, play_deterministic_cycles};
    const GROUPS: usize = 64;
    let cfg = GameConfig::default();
    for mem in [1usize, 3, 4, 5, 6] {
        let space = StateSpace::new(mem).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let strats: Vec<PureStrategy> = (0..5 * GROUPS).map(|_| PureStrategy::random(space, &mut rng)).collect();
        let groups: Vec<(&PureStrategy, [&PureStrategy; 4])> = strats
            .chunks(5)
            .map(|s| (&s[0], std::array::from_fn(|k| &s[k + 1])))
            .collect();
        let (a, b) = (&strats[0], &strats[1]);
        let mut group = c.benchmark_group(format!("game_kernel/cycle_vs_naive/memory-{mem}"));
        group.sample_size(20);
        group.bench_function("naive_200_rounds", |bencher| {
            bencher.iter(|| black_box(play_deterministic(&space, a, b, &cfg)));
        });
        group.bench_function("cycle_detection", |bencher| {
            bencher.iter(|| black_box(play_deterministic_cycle(&space, a, b, &cfg)));
        });
        group.bench_function("lockstep/4", |bencher| {
            bencher.iter(|| {
                for &(focal, g) in &groups {
                    black_box(play_deterministic_lanes(&space, focal, black_box(g), &cfg));
                }
            });
        });
        group.bench_function("cycle_detection/4", |bencher| {
            bencher.iter(|| {
                for &(focal, g) in &groups {
                    black_box(play_deterministic_cycles(&space, focal, black_box(g), &cfg));
                }
            });
        });
        group.finish();
    }
}

fn bench_word_parallel(c: &mut Criterion) {
    // 64 memory-1 games: one scalar `play_deterministic` per pair, one
    // word-parallel `play_deterministic_batch` call that packs all 64 into
    // u64 lane arithmetic (ipd::batch, docs/PERFORMANCE.md), and one cycle
    // payout per pair. Outcomes are bit-identical; only the cost differs.
    use ipd::batch::play_deterministic_batch;
    use ipd::game::play_deterministic_cycle;
    let cfg = GameConfig::default();
    let space = StateSpace::new(1).unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(8);
    let strats: Vec<PureStrategy> =
        (0..128).map(|_| PureStrategy::random(space, &mut rng)).collect();
    let pairs: Vec<(&PureStrategy, &PureStrategy)> =
        (0..64).map(|i| (&strats[2 * i], &strats[2 * i + 1])).collect();
    let mut group = c.benchmark_group("game_kernel/word_parallel");
    group.sample_size(20);
    group.bench_function("scalar_64_games", |bencher| {
        bencher.iter(|| {
            pairs
                .iter()
                .map(|&(a, b)| play_deterministic(black_box(&space), a, b, &cfg))
                .collect::<Vec<_>>()
        });
    });
    group.bench_function("batch_64_games", |bencher| {
        bencher.iter(|| play_deterministic_batch(black_box(&space), &pairs, &cfg));
    });
    group.bench_function("cycle_64_games", |bencher| {
        bencher.iter(|| {
            pairs
                .iter()
                .map(|&(a, b)| play_deterministic_cycle(black_box(&space), a, b, &cfg))
                .collect::<Vec<_>>()
        });
    });
    group.finish();
}

/// One focal strategy against K opponents in lockstep, K = 1, 2, 4, 8.
/// Criterion reports the time of one K-game call: divide by K for the
/// cost of a game.
fn bench_lockstep(c: &mut Criterion) {
    fn lanes<const K: usize>(
        group: &mut criterion::BenchmarkGroup<'_>,
        space: &StateSpace,
        strats: &[PureStrategy],
        cfg: &GameConfig,
    ) {
        let opponents: [&PureStrategy; K] = std::array::from_fn(|k| &strats[k + 1]);
        group.bench_function(BenchmarkId::new(&format!("memory-{}", space.mem_steps()), K), |bencher| {
            bencher.iter(|| {
                black_box(play_deterministic_lanes(
                    black_box(space),
                    black_box(&strats[0]),
                    black_box(opponents),
                    cfg,
                ))
            });
        });
    }
    let cfg = GameConfig::default();
    let mut group = c.benchmark_group("game_kernel/lockstep");
    group.sample_size(20);
    for mem in [1usize, 3, 6] {
        let space = StateSpace::new(mem).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let strats: Vec<PureStrategy> = (0..9).map(|_| PureStrategy::random(space, &mut rng)).collect();
        lanes::<1>(&mut group, &space, &strats, &cfg);
        lanes::<2>(&mut group, &space, &strats, &cfg);
        lanes::<4>(&mut group, &space, &strats, &cfg);
        lanes::<8>(&mut group, &space, &strats, &cfg);
    }
    group.finish();
}

fn bench_expected_vs_sampled(c: &mut Criterion) {
    // Exact Markov expectation vs one Monte-Carlo sample, per memory depth.
    use ipd::markov::expected_outcome;
    let cfg = GameConfig {
        noise: 0.01,
        ..GameConfig::default()
    };
    for mem in [1usize, 3, 6] {
        let space = StateSpace::new(mem).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let a = Strategy::Mixed(MixedStrategy::random(space, &mut rng));
        let b = Strategy::Mixed(MixedStrategy::random(space, &mut rng));
        let mut group = c.benchmark_group(format!("game_kernel/expected_vs_sampled/memory-{mem}"));
        group.sample_size(20);
        group.bench_function("markov_exact", |bencher| {
            bencher.iter(|| black_box(expected_outcome(&space, &a, &b, &cfg)));
        });
        group.bench_function("monte_carlo_one_sample", |bencher| {
            let mut r = ChaCha8Rng::seed_from_u64(7);
            bencher.iter(|| black_box(play(&space, &a, &b, &cfg, &mut r)));
        });
        group.finish();
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_deterministic, bench_stochastic, bench_cycle_kernel,
        bench_word_parallel, bench_lockstep, bench_expected_vs_sampled
}
criterion_main!(benches);
