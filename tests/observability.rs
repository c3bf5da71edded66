//! Tier-1 tests of the observability contract (docs/OBSERVABILITY.md):
//! the run manifest round-trips through serde, counters are monotone, and
//! — the load-bearing guarantee — enabling observability never changes
//! simulation results, at any thread count.
//!
//! Note on globals: the counters are process-global and the harness runs
//! tests in parallel, so assertions use baseline deltas and
//! `monotone_since`, never exact process-wide values — and every test here
//! that runs an engine holds [`COUNTERS`] while it does: a sibling's games
//! landing between two manifests break the tests that compare deltas
//! *exactly* (the run-scoped registry that would make the lock unnecessary
//! is ROADMAP item 4). `obs::set_enabled` is only ever set to `true` here
//! (the off-state run happens before that, inside the one test that needs
//! it) so tests cannot race each other's timing expectations.

use evogame::obs;
use evogame::prelude::*;
use std::sync::{Mutex, MutexGuard};

/// Serialises the tests of this file that bump the process-global counters.
static COUNTERS: Mutex<()> = Mutex::new(());

fn counters_lock() -> MutexGuard<'static, ()> {
    // A sibling that failed while holding the lock leaves nothing half-done.
    COUNTERS.lock().unwrap_or_else(|e| e.into_inner())
}

fn small_params(seed: u64) -> Params {
    Params {
        mem_steps: 1,
        num_ssets: 16,
        generations: 80,
        seed,
        game: GameConfig {
            rounds: 24,
            ..GameConfig::default()
        },
        ..Params::default()
    }
}

#[test]
fn two_generation_manifest_roundtrips_through_serde() {
    let _counters = counters_lock();
    obs::set_enabled(true);
    let mut pop = Population::new(small_params(3)).unwrap();
    let t0 = std::time::Instant::now();
    pop.step();
    pop.step();
    let manifest = pop.manifest(t0.elapsed().as_secs_f64());

    assert_eq!(manifest.schema_version, obs::MANIFEST_SCHEMA_VERSION);
    assert_eq!(manifest.seed, 3);
    assert_eq!(manifest.generations, 2);
    assert!(manifest.threads >= 1);
    // Two generations under EveryGeneration evaluate 16x16 games each.
    assert!(manifest.counters.games_played >= 2 * 16 * 16);
    assert!(manifest.counters.rounds_simulated >= manifest.counters.games_played * 24);
    assert!(manifest.counters.rng_streams > 0);
    assert_eq!(manifest.per_generation_ns.len(), 2);
    assert_eq!(manifest.generation_ns_histogram.count(), 2);
    assert!(manifest
        .spans
        .iter()
        .any(|s| s.name == "population.generation" && s.count >= 2));

    let json = manifest.to_json();
    let back = obs::RunManifest::from_json(&json).expect("manifest parses back");
    assert_eq!(manifest, back);

    // The params travel verbatim: re-serialising the embedded params value
    // matches serialising the population's params directly.
    use serde::Serialize;
    assert_eq!(back.params, pop.params().to_value());
}

#[test]
fn counters_are_monotone_across_a_run() {
    let _counters = counters_lock();
    let before = obs::counters().snapshot();
    let mut pop = Population::new(small_params(5)).unwrap();
    pop.run(40);
    let mid = obs::counters().snapshot();
    pop.run(40);
    let after = obs::counters().snapshot();

    assert!(mid.monotone_since(&before));
    assert!(after.monotone_since(&mid));
    let delta = after.delta_since(&before);
    assert!(delta.games_played >= 80 * 16 * 16, "games {delta:?}");
    assert!(delta.rng_streams > 0);
}

/// The counter table in docs/OBSERVABILITY.md lists every counter a
/// manifest carries, in the manifest's order.
#[test]
fn the_documented_counter_table_is_the_manifest_counter_list() {
    use serde::Serialize;
    let doc = include_str!("../docs/OBSERVABILITY.md");
    let table = doc.lines().skip_while(|l| !l.starts_with("| Counter |")).skip(2);
    let documented: Vec<&str> = table
        .take_while(|l| l.starts_with('|'))
        .map(|row| row.split('|').nth(1).unwrap().trim().trim_matches('`'))
        .collect();
    let zero = obs::CounterSnapshot::default().to_value();
    let keys: Vec<&str> = zero.as_map().unwrap().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(documented, keys);
}

#[test]
fn observability_on_and_off_give_bit_identical_results() {
    let _counters = counters_lock();
    // Off first (the flag may already be on from a concurrently running
    // test — that is fine: the assertion below holds either way, which is
    // exactly the guarantee under test).
    let mut off = Population::new(small_params(7)).unwrap();
    off.run_to_end();

    obs::set_enabled(true);
    let mut on = Population::new(small_params(7)).unwrap();
    on.run_to_end();

    assert_eq!(off.assignments(), on.assignments());
    assert_eq!(off.stats(), on.stats());
    assert_eq!(off.fitness(), on.fitness());
    assert_eq!(
        off.snapshot().features,
        on.snapshot().features,
        "observability must never perturb the simulation"
    );
}

#[test]
fn manifests_are_thread_count_invariant_in_results() {
    let _counters = counters_lock();
    // The engine is schedule-invariant, and observability must not break
    // that: the same run at 1 and 4 worker threads produces identical
    // trajectories (only the manifest's `threads` field may differ).
    obs::set_enabled(true);
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let mut single = Population::new(small_params(11)).unwrap();
    single.run_to_end();
    let m1 = single.manifest(0.0);

    std::env::set_var("RAYON_NUM_THREADS", "4");
    let mut multi = Population::new(small_params(11)).unwrap();
    multi.run_to_end();
    let m4 = multi.manifest(0.0);
    std::env::remove_var("RAYON_NUM_THREADS");

    assert_eq!(single.assignments(), multi.assignments());
    assert_eq!(single.stats(), multi.stats());
    // Both runs open the same RNG streams and play the same games.
    assert_eq!(m1.counters.games_played, m4.counters.games_played);
    assert_eq!(m1.counters.rounds_simulated, m4.counters.rounds_simulated);
    assert_eq!(m1.counters.rng_streams, m4.counters.rng_streams);
    assert_eq!(m1.counters.fermi_updates, m4.counters.fermi_updates);
    assert_eq!(m1.counters.mutations, m4.counters.mutations);
    assert_eq!(m1.generations, m4.generations);
}

#[test]
fn distributed_run_reports_comm_counters_and_timings() {
    use evogame::cluster::dist::{run_distributed, DistConfig};
    let _counters = counters_lock();
    obs::set_enabled(true);
    let mut params = small_params(13);
    params.generations = 30;

    // Its shared-memory twin: the naive evaluator, uncached.
    let baseline = obs::counters().snapshot();
    let mut twin = Population::new(params.clone()).unwrap();
    twin.run_to_end();
    let shared = obs::counters().snapshot().delta_since(&baseline);

    // Uncached too, so that every game a rank evaluates is one played.
    let baseline = obs::counters().snapshot();
    let mut config = DistConfig::new(params, 4, FitnessPolicy::EveryGeneration);
    config.disable_payoff_cache = true;
    let out = run_distributed(&config).unwrap();
    let delta = obs::counters().snapshot().delta_since(&baseline);

    // Every rank decides each generation, but the run counts each
    // decision once and each game once, as its twin does.
    assert!(shared.fermi_updates > 0 && shared.mutations > 0, "{shared:?}");
    assert_eq!(delta.fermi_updates, shared.fermi_updates);
    assert_eq!(delta.mutations, shared.mutations);
    assert_eq!(delta.games_played, shared.games_played);
    // Two barriers (a reduce and a broadcast, 3 messages and one
    // collective op per rank each) and, per PC generation, the pair's two
    // values pushed to the 3 other ranks; nothing else.
    assert_eq!(out.messages_sent, 2 * 2 * 3 + out.stats.pc_events * 2 * 3);
    assert_eq!(delta.comm_messages, out.messages_sent);
    assert!(delta.comm_bytes > 0);
    assert_eq!(delta.collective_ops, 2 * 2 * 4);
    assert_eq!(out.generation_ns.len(), 30);
    // The Nature Agent's timings feed a manifest directly.
    use serde::Serialize;
    let manifest = obs::RunManifest::capture(
        out.stats.generations.to_value(),
        13,
        4,
        out.stats.generations,
        0.0,
        &baseline,
        &out.generation_ns,
    );
    assert_eq!(manifest.generation_ns_histogram.count(), 30);
    let back = obs::RunManifest::from_json(&manifest.to_json()).unwrap();
    assert_eq!(manifest, back);
}

#[test]
fn send_into_a_returned_ranks_inbox_counts_no_comm_message() {
    // The counter half of `cluster::comm`'s
    // `send_to_returned_rank_errors_and_is_not_counted`, here because only
    // this file can read the process-global counters exactly.
    use evogame::cluster::comm::{ClusterError, Comm, VirtualCluster};
    let _counters = counters_lock();
    let baseline = obs::counters().snapshot();
    let gone = std::sync::Arc::new(std::sync::Barrier::new(2));
    VirtualCluster::run(2, move |comm: Comm<u8>| {
        if comm.rank() == 1 {
            drop(comm);
            gone.wait();
        } else {
            gone.wait();
            assert_eq!(comm.send(1, 0, 9), Err(ClusterError::RankDead(1)));
        }
    });
    let delta = obs::counters().snapshot().delta_since(&baseline);
    assert_eq!(delta.comm_messages, 0);
    assert_eq!(delta.comm_bytes, 0);
}

/// `(hits, misses, games)` and digest of the 3-rank every-generation run of
/// `small_params(17)` over 30 generations, as the per-probe counters read.
const DIST_PROBES: (u64, u64, u64) = (7570, 110, 7680);
const DIST_DIGEST: u64 = 0x5732_3e6f_2723_9b7c;
/// The same for 300 generations, most of which leave the strategy table
/// unchanged: a compute rank answers those from its owned fitness block,
/// and its probes must still read as the warm evaluations they replace.
const DIST_LONG_PROBES: (u64, u64, u64) = (76589, 211, 76800);
const DIST_LONG_DIGEST: u64 = 0xce3f_f22f_5465_6f90;
/// The same for a 300-generation shared-memory `dedup` run of
/// `small_params(17)`: a population answers an unchanged table from its
/// table memo, whose probes must read as the warm evaluations they replace.
const SHARED_LONG_PROBES: (u64, u64, u64) = (20627, 142, 20769);
const SHARED_LONG_DIGEST: u64 = 0xce3f_f22f_5465_6f90;
/// Games after 1 and after 10 generations of the 16×12 lattice, and its
/// digest then.
const LATTICE_GAMES: (u64, u64) = (1728, 17280);
const LATTICE_DIGEST: u64 = 0x6498_65ac_136a_af45;

/// `(payoff_cache_hits, payoff_cache_misses)` moved since `baseline`.
fn cache_probes_since(baseline: &obs::CounterSnapshot) -> (u64, u64) {
    let delta = obs::counters().snapshot().delta_since(baseline);
    (delta.payoff_cache_hits, delta.payoff_cache_misses)
}

#[test]
fn payoff_cache_probes_add_up_to_the_games_of_a_cached_run() {
    // Probes are tallied per evaluation and flushed when it ends, so at a
    // run boundary the counters are exact: every game of a pure noiseless
    // run was one probe. The literals are what the per-probe counters read
    // before probes were batched; the digests pin the results themselves.
    use evogame::cluster::dist::{run_distributed, DistConfig};
    use evogame::engine::record::state_digest;
    let _counters = counters_lock();
    obs::set_enabled(true);

    // Every-generation distributed run: one cache per rank, no races.
    let baseline = obs::counters().snapshot();
    let mut params = small_params(17);
    params.generations = 30;
    let out = run_distributed(&DistConfig::new(params, 3, FitnessPolicy::EveryGeneration)).unwrap();
    let (hits, misses) = cache_probes_since(&baseline);
    assert_eq!(hits + misses, out.stats.games_played);
    assert_eq!((hits, misses, out.stats.games_played), DIST_PROBES);
    assert_eq!(state_digest(&out.assignments, &out.features), DIST_DIGEST);

    let baseline = obs::counters().snapshot();
    let mut params = small_params(17);
    params.generations = 300;
    let out = run_distributed(&DistConfig::new(params, 3, FitnessPolicy::EveryGeneration)).unwrap();
    let (hits, misses) = cache_probes_since(&baseline);
    assert_eq!(hits + misses, out.stats.games_played);
    assert_eq!((hits, misses, out.stats.games_played), DIST_LONG_PROBES);
    assert_eq!(state_digest(&out.assignments, &out.features), DIST_LONG_DIGEST);

    // Shared memory: one census-wide probe session per generation.
    let baseline = obs::counters().snapshot();
    let mut params = small_params(17);
    params.generations = 300;
    let mut pop = Population::new(params).unwrap();
    pop.dedup = true;
    pop.run_to_end();
    let (hits, misses) = cache_probes_since(&baseline);
    let snap = pop.snapshot();
    assert_eq!(hits + misses, pop.stats().games_played);
    assert_eq!((hits, misses, pop.stats().games_played), SHARED_LONG_PROBES);
    assert_eq!(state_digest(&snap.assignments, &snap.features), SHARED_LONG_DIGEST);

    // Lattice: rayon workers share the cache and may both miss a cold pair,
    // so the cold generation is pinned by its sum and the warm ones exactly.
    let mut pop = SpatialPopulation::new(
        SpatialParams {
            width: 16,
            height: 12,
            seed: 19,
            ..SpatialParams::default()
        },
        InitPattern::RandomDefectors(0.5),
    );
    let baseline = obs::counters().snapshot();
    pop.step();
    let (hits, misses) = cache_probes_since(&baseline);
    assert_eq!(hits + misses, pop.stats().games_played);
    assert!(misses >= 4, "ALLC and ALLD: four ordered pairs to learn, saw {misses}");
    let cold_games = pop.stats().games_played;
    let baseline = obs::counters().snapshot();
    pop.run(9);
    let (hits, misses) = cache_probes_since(&baseline);
    assert_eq!((hits, misses), (pop.stats().games_played - cold_games, 0));
    assert_eq!((cold_games, pop.stats().games_played), LATTICE_GAMES);
    let snap = pop.snapshot();
    assert_eq!(state_digest(&snap.assignments, &snap.features), LATTICE_DIGEST);
}

#[test]
fn racing_threads_count_every_probe_of_a_cold_shared_cache_once() {
    // The exact-count half of `evo_core::fitness`'s
    // `concurrent_sessions_on_a_cold_cache_agree_and_finish`, here because
    // only this file can read the process-global counters exactly. Which
    // thread misses a cold pair is a race; that every probe is a hit or a
    // miss, flushed by the time its evaluation returns, is not.
    use evogame::engine::fitness::PairPayoff;
    use evogame::engine::paycache::PayoffCache;
    const THREADS: usize = 4;
    let _counters = counters_lock();
    let pop = Population::new(Params {
        mem_steps: 3,
        num_ssets: 40,
        seed: 9,
        ..Params::default()
    })
    .unwrap();
    let game = pop.params().game;
    let cache = PayoffCache::new(game);
    let pairs = PairPayoff::new(pop.space(), pop.pool(), &game, Some(&cache));
    let asg = pop.assignments();
    let start = std::sync::Barrier::new(THREADS);
    let baseline = obs::counters().snapshot();
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let start = &start;
            scope.spawn(move || {
                start.wait();
                for row in 0..asg.len() {
                    pairs.evaluate_one(asg, 9, 0, (row + t * asg.len() / THREADS) % asg.len());
                }
            });
        }
    });
    let (hits, misses) = cache_probes_since(&baseline);
    let distinct = cache.len() as u64;
    assert_eq!(hits + misses, (THREADS * asg.len() * asg.len()) as u64);
    assert!((distinct..=distinct * THREADS as u64).contains(&misses), "{misses} misses for {distinct} entries");
}

/// Every span's count so far, by name.
fn span_counts() -> std::collections::BTreeMap<String, u64> {
    obs::span_snapshots().into_iter().map(|s| (s.name, s.count)).collect()
}

/// Span counts moved since `baseline` (names that did not move left out).
fn spans_since(baseline: &std::collections::BTreeMap<String, u64>) -> std::collections::BTreeMap<String, u64> {
    span_counts()
        .into_iter()
        .map(|(name, count)| {
            let moved = count - baseline.get(&name).copied().unwrap_or(0);
            (name, moved)
        })
        .filter(|&(_, moved)| moved > 0)
        .collect()
}

/// Replicate `r` of `spec` as a general population steps it: every SSet
/// the resident, the mutant at `MUTANT_SITE`, the deduplicating evaluator
/// on the population's own cache (pre-warmed with the pair's payoffs when
/// `warm`), `step()` until absorption. Returns the result with the counter
/// and span activity of the replicate, the pre-warm left out.
fn population_replicate(
    spec: &FixationSpec,
    r: u32,
    warm: bool,
) -> (ReplicateResult, obs::CounterSnapshot, std::collections::BTreeMap<String, u64>) {
    use evogame::engine::fixation::{commit_absorption, replicate_seed, MUTANT_SITE};
    let spans = span_counts();
    let start = obs::counters().snapshot();
    let mut params = spec.params.clone();
    params.seed = replicate_seed(spec.params.seed, r);
    let cap = params.generations;
    let mut pop = Population::new_uniform(params, spec.resident.clone()).unwrap();
    pop.dedup = true;
    let mutant = pop.set_strategy(MUTANT_SITE, spec.mutant.clone());
    let before_warm = obs::counters().snapshot();
    if warm {
        pop.prewarm_payoff_cache();
    }
    let warmup = obs::counters().snapshot().delta_since(&before_warm);
    // Pre-warming plays the pair's deterministic games and moves nothing else.
    let played = obs::CounterSnapshot {
        games_played: warmup.games_played,
        rounds_simulated: warmup.rounds_simulated,
        ..Default::default()
    };
    assert_eq!(warmup, played, "pre-warm moved more than games");
    let mut generations = 0u64;
    let outcome = loop {
        if let Some(done) = commit_absorption(pop.assignments(), mutant, generations, cap) {
            break done;
        }
        pop.step();
        generations += 1;
    };
    obs::counters().add(obs::Counter::ReplicatesRun, 1);
    match outcome {
        Absorption::Fixed => obs::counters().add(obs::Counter::Fixations, 1),
        Absorption::Extinct => obs::counters().add(obs::Counter::Extinctions, 1),
        Absorption::Censored => {}
    }
    let result = ReplicateResult {
        replicate: r,
        outcome,
        generations,
        mutants_final: pop.assignments().iter().filter(|&&id| id == mutant).count() as u32,
    };
    let mut delta = obs::counters().snapshot().delta_since(&start);
    delta.games_played -= warmup.games_played;
    delta.rounds_simulated -= warmup.rounds_simulated;
    (result, delta, spans_since(&spans))
}

#[test]
fn fixation_replicates_match_a_stepped_population_in_bits_counters_and_spans() {
    use evogame::engine::paycache::PayoffCache;
    use evogame::ipd::classic;
    use evogame::ipd::strategy::MixedStrategy;
    use std::sync::Arc;
    let _counters = counters_lock();
    obs::set_enabled(true);
    let space = evogame::ipd::state::StateSpace::new(1).unwrap();
    let pure = |s| Strategy::Pure(s);
    let mixed = Strategy::Mixed(MixedStrategy::new(space, vec![0.9, 0.2, 0.7, 0.1]).unwrap());
    // (resident, mutant, noise)
    let pairs = [
        (pure(classic::all_c(&space)), pure(classic::all_d(&space)), 0.0),
        (pure(classic::tft(&space)), pure(classic::wsls(&space)), 0.0),
        (pure(classic::all_c(&space)), pure(classic::all_d(&space)), 0.02),
        (pure(classic::tft(&space)), mixed, 0.0),
    ];
    // (rule, pc_rate)
    let rules = [(UpdateRule::Moran, 1.0), (UpdateRule::PairwiseComparison, 0.5), (UpdateRule::ImitateBest, 1.0)];
    for (resident, mutant, noise) in &pairs {
        for &(rule, pc_rate) in &rules {
            let mut params = Params {
                mem_steps: 1,
                num_ssets: 8,
                generations: 150,
                seed: 23,
                pc_rate,
                mutation_rate: 0.0,
                rule,
                ..Params::default()
            };
            params.game.rounds = 10;
            params.game.noise = *noise;
            let spec = FixationSpec {
                params,
                resident: resident.clone(),
                mutant: mutant.clone(),
                replicates: 4,
            };
            let shared = Arc::new(PayoffCache::new(spec.params.game));
            for r in 0..spec.replicates {
                for warm in [false, true] {
                    let label = format!("{rule:?} pc {pc_rate} noise {noise} {mutant:?} replicate {r} warm {warm}");
                    let (want, want_counters, want_spans) = population_replicate(&spec, r, warm);
                    let cache = warm.then(|| {
                        spec.run_replicate(r, Some(&shared));
                        &shared
                    });
                    let spans = span_counts();
                    let start = obs::counters().snapshot();
                    let got = spec.run_replicate(r, cache);
                    let got_counters = obs::counters().snapshot().delta_since(&start);
                    assert_eq!(got, want, "{label}: result");
                    assert_eq!(got_counters, want_counters, "{label}: counters");
                    assert_eq!(spans_since(&spans), want_spans, "{label}: spans");
                    assert!(want_counters.rng_streams > 0 && want_spans.contains_key("population.generation"), "{label}");
                }
            }
        }
    }
}
