//! Property-based tests for the population engine's invariants.

use evo_core::fitness::PairPayoff;
use evo_core::params::{Params, StrategyKind, UpdateRule};
use evo_core::population::Population;
use evo_core::sset::SSetLayout;
use ipd::game::GameConfig;
use proptest::prelude::*;
use std::collections::BTreeSet;

fn arb_params() -> impl Strategy<Value = Params> {
    (
        0usize..=2,          // mem_steps (small for speed)
        2usize..=16,         // num_ssets
        0.0f64..=1.0,        // pc_rate
        0.0f64..=1.0,        // mutation_rate
        0.0f64..=4.0,        // beta
        any::<u64>(),        // seed
        prop_oneof![Just(StrategyKind::Pure), Just(StrategyKind::Mixed)],
        prop_oneof![Just(0.0f64), Just(0.05f64)], // noise
        prop_oneof![
            Just(UpdateRule::PairwiseComparison),
            Just(UpdateRule::Moran),
            Just(UpdateRule::ImitateBest)
        ],
    )
        .prop_map(
            |(mem, ssets, pc, mu, beta, seed, kind, noise, rule)| Params {
                mem_steps: mem,
                num_ssets: ssets,
                pc_rate: pc,
                mutation_rate: mu,
                beta,
                seed,
                kind,
                rule,
                game: GameConfig {
                    rounds: 16,
                    noise,
                    ..GameConfig::default()
                },
                generations: 0,
                ..Params::default()
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Population size is conserved and strategy ids stay valid across any
    /// parameterisation.
    #[test]
    fn population_invariants_hold(params in arb_params()) {
        let n = params.num_ssets;
        let mut pop = Population::new(params).unwrap();
        for _ in 0..30 {
            pop.step();
            prop_assert_eq!(pop.assignments().len(), n);
            for &id in pop.assignments() {
                // get() panics on an invalid id; reaching here means valid.
                let _ = pop.pool().get(id);
            }
            prop_assert!(pop.distinct_strategies() <= n);
            let c = pop.mean_cooperativity();
            prop_assert!((0.0..=1.0).contains(&c));
        }
    }

    /// The engine's rayon-mapped fitness vector is bit-identical to the
    /// one-row evaluator run SSet by SSet on this thread, for every
    /// parameterisation, including stochastic games.
    #[test]
    fn parallel_equals_evaluate_one_per_sset(params in arb_params()) {
        let mut pop = Population::new(params).unwrap();
        for g in 0..20 {
            let before = pop.assignments().to_vec();
            pop.step();
            let pairs = PairPayoff::new(pop.space(), pop.pool(), &pop.params().game, None);
            for (i, fitness) in pop.fitness().iter().enumerate() {
                let one = pairs.evaluate_one(&before, pop.params().seed, g, i);
                prop_assert_eq!(fitness.to_bits(), one.to_bits(), "generation {}, sset {}", g, i);
            }
        }
    }

    /// Replaying the same parameters reproduces the identical trajectory.
    #[test]
    fn replay_determinism(params in arb_params()) {
        let mut a = Population::new(params.clone()).unwrap();
        let mut b = Population::new(params).unwrap();
        a.run(25);
        b.run(25);
        prop_assert_eq!(a.assignments(), b.assignments());
        prop_assert_eq!(a.stats(), b.stats());
    }

    /// Without mutation, no strategy id outside the initial set ever
    /// appears (learning only copies existing strategies).
    #[test]
    fn learning_is_closed_over_initial_strategies(mut params in arb_params()) {
        params.mutation_rate = 0.0;
        let mut pop = Population::new(params).unwrap();
        let initial: BTreeSet<u32> = pop.assignments().iter().copied().collect();
        pop.run(40);
        for &id in pop.assignments() {
            prop_assert!(initial.contains(&id), "foreign strategy {id} appeared");
        }
    }

    /// Adoption count never exceeds PC count; fitness evaluations never
    /// exceed generations.
    #[test]
    fn stats_are_consistent(params in arb_params()) {
        let mut pop = Population::new(params).unwrap();
        let stats = pop.run(40);
        prop_assert!(stats.adoptions <= stats.pc_events);
        prop_assert!(stats.pc_events <= stats.generations);
        prop_assert!(stats.fitness_evaluations <= stats.generations);
        prop_assert_eq!(stats.generations, 40);
    }

    /// All outcome-preserving engine options agree on every random
    /// parameterisation (dedup requires deterministic games to engage; it
    /// must be a no-op otherwise).
    #[test]
    fn engine_options_trajectory_invariant(params in arb_params()) {
        let run = |dedup: bool| {
            let mut pop = Population::new(params.clone()).unwrap();
            pop.dedup = dedup;
            pop.run(20);
            pop.assignments().to_vec()
        };
        prop_assert_eq!(run(true), run(false));
    }

    /// Opponent assignment partitions opponents exactly once for arbitrary
    /// (s, a) layouts.
    #[test]
    fn opponent_assignment_is_partition(s in 1usize..200, a in 1usize..40) {
        let layout = SSetLayout { num_ssets: s, agents_per_sset: a };
        let mut seen = vec![false; s];
        for agent in 0..a {
            for opp in layout.opponents_for_agent(agent) {
                prop_assert!(!seen[opp], "opponent {opp} duplicated");
                seen[opp] = true;
            }
        }
        prop_assert!(seen.iter().all(|&x| x), "some opponent unassigned");
        // Load balance within one game.
        let loads: Vec<usize> = (0..a).map(|k| layout.games_for_agent(k)).collect();
        let min = loads.iter().min().unwrap();
        let max = loads.iter().max().unwrap();
        prop_assert!(max - min <= 1);
    }
}
