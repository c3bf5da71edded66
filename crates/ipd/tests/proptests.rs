//! Property-based tests for the IPD substrate's core invariants.

use ipd::game::{play, play_deterministic, play_with_lookup, GameConfig, StateLookup};
use ipd::history::HistoryView;
use ipd::payoff::Move;
use ipd::state::{StateSpace, StateTable};
use ipd::strategy::{MixedStrategy, PureStrategy, Strategy as IpdStrategy};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn arb_move() -> impl Strategy<Value = Move> {
    prop_oneof![Just(Move::Cooperate), Just(Move::Defect)]
}

fn arb_space() -> impl Strategy<Value = StateSpace> {
    (0usize..=6).prop_map(|n| StateSpace::new(n).unwrap())
}

/// Spaces small enough to materialise state tables cheaply in proptest loops.
fn arb_small_space() -> impl Strategy<Value = StateSpace> {
    (0usize..=4).prop_map(|n| StateSpace::new(n).unwrap())
}

proptest! {
    /// encode ∘ decode is the identity on every state id.
    #[test]
    fn state_encode_decode_bijection(space in arb_space(), raw in 0u16..4096) {
        let state = raw & space.mask();
        let rounds = space.decode(state);
        prop_assert_eq!(space.encode(&rounds), state);
    }

    /// Perspective swap is an involution and preserves the state count.
    #[test]
    fn swap_perspective_involution(space in arb_space(), raw in 0u16..4096) {
        let state = raw & space.mask();
        let swapped = space.swap_perspective(state);
        prop_assert!((swapped as usize) < space.num_states());
        prop_assert_eq!(space.swap_perspective(swapped), state);
    }

    /// The rolling advance always equals re-encoding the explicit window.
    #[test]
    fn rolling_state_matches_window(
        space in arb_space(),
        plays in prop::collection::vec((arb_move(), arb_move()), 0..32),
    ) {
        let mut view = HistoryView::new(space);
        for (me, opp) in plays {
            view.record(me, opp);
            prop_assert_eq!(view.state(), space.encode(view.rounds()));
        }
    }

    /// Paper-faithful linear find_state agrees with the O(1) rolling index
    /// after any play sequence.
    #[test]
    fn linear_lookup_equals_rolling(
        space in arb_small_space(),
        plays in prop::collection::vec((arb_move(), arb_move()), 0..24),
    ) {
        let table = StateTable::new(space);
        let mut view = HistoryView::new(space);
        for (me, opp) in plays {
            view.record(me, opp);
            prop_assert_eq!(view.find_state_linear(&table), view.state());
        }
    }

    /// Pure strategy: from_moves ∘ to_moves round-trips, and hamming
    /// distance is a metric w.r.t. zero and symmetry.
    #[test]
    fn pure_strategy_roundtrip_and_hamming(seed in any::<u64>(), n in 0usize..=6) {
        let space = StateSpace::new(n).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let a = PureStrategy::random(space, &mut rng);
        let b = PureStrategy::random(space, &mut rng);
        prop_assert_eq!(&PureStrategy::from_moves(space, &a.to_moves()), &a);
        prop_assert_eq!(a.hamming(&a), 0);
        prop_assert_eq!(a.hamming(&b), b.hamming(&a));
        prop_assert!(a.hamming(&b) <= space.num_states());
    }

    /// Swapping players swaps the outcome exactly (deterministic games).
    #[test]
    fn game_symmetric_under_player_swap(seed in any::<u64>(), n in 0usize..=4, rounds in 0u32..128) {
        let space = StateSpace::new(n).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let a = PureStrategy::random(space, &mut rng);
        let b = PureStrategy::random(space, &mut rng);
        let cfg = GameConfig { rounds, ..GameConfig::default() };
        let ab = play_deterministic(&space, &a, &b, &cfg);
        let ba = play_deterministic(&space, &b, &a, &cfg);
        prop_assert_eq!(ab.swapped(), ba);
    }

    /// Per-game fitness is bounded by rounds x max payoff and cooperation
    /// counts never exceed the round count.
    #[test]
    fn fitness_and_coop_bounds(seed in any::<u64>(), n in 0usize..=4, rounds in 0u32..256) {
        let space = StateSpace::new(n).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let a = PureStrategy::random(space, &mut rng);
        let b = PureStrategy::random(space, &mut rng);
        let cfg = GameConfig { rounds, ..GameConfig::default() };
        let o = play_deterministic(&space, &a, &b, &cfg);
        let max = rounds as f64 * 4.0;
        prop_assert!(o.fitness_a >= 0.0 && o.fitness_a <= max);
        prop_assert!(o.fitness_b >= 0.0 && o.fitness_b <= max);
        prop_assert!(o.coop_a <= rounds && o.coop_b <= rounds);
        // Paired payoffs: total fitness per round is one of 2R, S+T, 2P.
        let total = o.fitness_a + o.fitness_b;
        prop_assert!(total <= rounds as f64 * 6.0);
    }

    /// A mixed strategy with all probabilities in {0,1} behaves exactly as
    /// its pure counterpart in full games.
    #[test]
    fn degenerate_mixed_equals_pure_in_games(seed in any::<u64>(), n in 0usize..=3) {
        let space = StateSpace::new(n).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let a = PureStrategy::random(space, &mut rng);
        let b = PureStrategy::random(space, &mut rng);
        let am = IpdStrategy::Mixed(MixedStrategy::from_pure(&a));
        let bm = IpdStrategy::Mixed(MixedStrategy::from_pure(&b));
        let cfg = GameConfig { rounds: 64, ..GameConfig::default() };
        let det = play_deterministic(&space, &a, &b, &cfg);
        let mixed = play(&space, &am, &bm, &cfg, &mut rng);
        prop_assert_eq!(det, mixed);
    }

    /// Rolling vs linear-scan lookup modes produce identical games when fed
    /// identical RNG streams.
    #[test]
    fn lookup_modes_identical(seed in any::<u64>(), n in 1usize..=3) {
        let space = StateSpace::new(n).unwrap();
        let table = StateTable::new(space);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let a = IpdStrategy::Mixed(MixedStrategy::random(space, &mut rng));
        let b = IpdStrategy::Mixed(MixedStrategy::random(space, &mut rng));
        let cfg = GameConfig { rounds: 32, noise: 0.05, ..GameConfig::default() };
        let mut r1 = ChaCha8Rng::seed_from_u64(seed ^ 0xabcd);
        let mut r2 = ChaCha8Rng::seed_from_u64(seed ^ 0xabcd);
        let fast = play_with_lookup(&space, &a, &b, &cfg, StateLookup::Rolling, &mut r1);
        let slow = play_with_lookup(&space, &a, &b, &cfg, StateLookup::LinearScan(&table), &mut r2);
        prop_assert_eq!(fast, slow);
    }

    /// Games are reproducible: same seed, same outcome (the determinism
    /// contract the parallel engine relies on).
    #[test]
    fn games_reproducible_from_seed(seed in any::<u64>(), n in 0usize..=3) {
        let space = StateSpace::new(n).unwrap();
        let mut srng = ChaCha8Rng::seed_from_u64(seed);
        let a = IpdStrategy::Mixed(MixedStrategy::random(space, &mut srng));
        let b = IpdStrategy::Mixed(MixedStrategy::random(space, &mut srng));
        let cfg = GameConfig { rounds: 50, noise: 0.02, ..GameConfig::default() };
        let mut r1 = ChaCha8Rng::seed_from_u64(seed);
        let mut r2 = ChaCha8Rng::seed_from_u64(seed);
        prop_assert_eq!(play(&space, &a, &b, &cfg, &mut r1), play(&space, &a, &b, &cfg, &mut r2));
    }

    /// The cycle kernel is the naive loop's game to the bit for any
    /// strategies, memory depth, matrix and round count — the round counts
    /// around the walk's `4^n` states included, where Brent's detection
    /// meets the longest cycles, and a game longer than the 16-bit fields
    /// that count the rounds walked.
    #[test]
    fn cycle_kernel_equals_naive(seed in any::<u64>(), n in 0usize..=6, rounds in 0u32..512) {
        use ipd::payoff::PayoffMatrix;
        let space = StateSpace::new(n).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let a = PureStrategy::random(space, &mut rng);
        let b = PureStrategy::random(space, &mut rng);
        let states = space.num_states() as u32;
        let payoffs = [
            PayoffMatrix::default(),
            PayoffMatrix::from_rstp(1.0, 0.0, 1.85, 0.0),
            PayoffMatrix::donation(2.0, 0.3),
            // No positive entry: a game that scores zero is +0.0.
            PayoffMatrix::from_rstp(-3.0, -0.0, -1.0, -2.0),
        ];
        for payoff in payoffs {
            for rounds in [rounds, 0, 1, states - 1, states, states + 1, 200, 1_000, 70_000] {
                let cfg = GameConfig { rounds, noise: 0.0, payoff };
                let (want, got) = (play_deterministic(&space, &a, &b, &cfg), ipd::game::play_deterministic_cycle(&space, &a, &b, &cfg));
                prop_assert_eq!(got.fitness_a.to_bits(), want.fitness_a.to_bits(), "{} rounds {:?}", rounds, payoff);
                prop_assert_eq!(got.fitness_b.to_bits(), want.fitness_b.to_bits(), "{} rounds {:?}", rounds, payoff);
                prop_assert_eq!(got, want);
            }
        }
    }

    /// Any (χ, φ) pair within the feasible region yields a valid ZD
    /// strategy, and anything beyond φ_max is rejected.
    #[test]
    fn zd_feasible_region_is_exact(chi in 1.0f64..8.0, frac in 0.01f64..0.99) {
        let space = StateSpace::new(1).unwrap();
        let payoff = ipd::payoff::PayoffMatrix::default();
        for l in [payoff.punishment, payoff.reward] {
            let max = ipd::zd::phi_max(&payoff, l, chi);
            prop_assert!(max > 0.0);
            let phi = max * frac;
            let build = |phi| if l == payoff.punishment {
                ipd::zd::extortionate(&space, &payoff, chi, phi)
            } else {
                ipd::zd::generous(&space, &payoff, chi, phi)
            };
            let z = build(phi);
            prop_assert!(z.is_ok(), "feasible phi rejected");
            for s in 0..4u16 {
                let p = z.as_ref().unwrap().coop_prob(s);
                prop_assert!((0.0..=1.0).contains(&p));
            }
            prop_assert!(build(max * 1.2).is_err(), "infeasible phi accepted");
        }
    }

    /// The exact Markov expectation equals the deterministic simulation
    /// for pure noiseless pairs at every memory depth and round count.
    #[test]
    fn markov_expectation_exact_for_pure(seed in any::<u64>(), n in 0usize..=5, rounds in 0u32..256) {
        let space = StateSpace::new(n).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let a = PureStrategy::random(space, &mut rng);
        let b = PureStrategy::random(space, &mut rng);
        let cfg = GameConfig { rounds, ..GameConfig::default() };
        let det = play_deterministic(&space, &a, &b, &cfg);
        let exp = ipd::markov::expected_outcome(
            &space,
            &IpdStrategy::Pure(a),
            &IpdStrategy::Pure(b),
            &cfg,
        );
        prop_assert!((exp.fitness_a - det.fitness_a).abs() < 1e-6);
        prop_assert!((exp.fitness_b - det.fitness_b).abs() < 1e-6);
        prop_assert!((exp.coop_a - det.coop_a as f64).abs() < 1e-6);
    }

    /// Expected per-player fitness is bounded by the payoff extremes and
    /// cooperation expectations by the round count, for any mixed pair.
    #[test]
    fn markov_expectation_bounds(seed in any::<u64>(), n in 0usize..=3, noise in 0.0f64..0.5) {
        let space = StateSpace::new(n).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let a = IpdStrategy::Mixed(MixedStrategy::random(space, &mut rng));
        let b = IpdStrategy::Mixed(MixedStrategy::random(space, &mut rng));
        let cfg = GameConfig { rounds: 64, noise, ..GameConfig::default() };
        let e = ipd::markov::expected_outcome(&space, &a, &b, &cfg);
        prop_assert!(e.fitness_a >= 0.0 && e.fitness_a <= 64.0 * 4.0);
        prop_assert!(e.fitness_b >= 0.0 && e.fitness_b <= 64.0 * 4.0);
        prop_assert!(e.coop_a >= 0.0 && e.coop_a <= 64.0);
        // Per-round totals respect 2P ≤ ... ≤ 2R/S+T envelope.
        prop_assert!(e.fitness_a + e.fitness_b <= 64.0 * 6.0 + 1e-9);
    }

    /// Strategy codec round-trips every strategy kind.
    #[test]
    fn codec_roundtrip(seed in any::<u64>(), n in 0usize..=6, mixed in any::<bool>()) {
        let space = StateSpace::new(n).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let strat = IpdStrategy::random(space, mixed, &mut rng);
        let text = ipd::codec::encode(&strat);
        prop_assert_eq!(ipd::codec::decode(&text).unwrap(), strat);
    }

    /// nearest_pure of a degenerate mixed strategy recovers the original.
    #[test]
    fn nearest_pure_inverts_embedding(seed in any::<u64>(), n in 0usize..=6) {
        let space = StateSpace::new(n).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let p = PureStrategy::random(space, &mut rng);
        prop_assert_eq!(MixedStrategy::from_pure(&p).nearest_pure(), p);
    }
}

/// A memory-n pure strategy lifted to memory-(n+1) — the move for state `s`
/// is the original's move for `s & mask_n`, the oldest round ignored —
/// plays the same game (Gaffney, Harper & Knight, arXiv:1912.04493, on
/// memory-n strategies embedded in longer memories): bit-identical focal
/// payoffs through the lockstep lanes, the cycle kernel, the word-parallel
/// batch where it applies and the exact Markov expectation, for any matrix.
#[test]
fn lifted_strategies_score_the_same_through_every_kernel() {
    use ipd::batch::{batch_is_word_parallel, play_deterministic_batch};
    use ipd::game::{play_deterministic_cycle, play_deterministic_lanes};
    use ipd::payoff::PayoffMatrix;
    let lift = |p: &PureStrategy, wider: StateSpace| {
        let mask = p.space().mask();
        PureStrategy::from_fn(wider, |s| p.move_for(s & mask))
    };
    let payoffs = [
        PayoffMatrix::default(),
        PayoffMatrix::from_rstp(1.0, 0.0, 1.85, 0.0),
        PayoffMatrix::donation(2.0, 0.3),
        PayoffMatrix::from_rstp(-3.0, -0.0, -1.0, -2.0),
    ];
    for n in 0usize..=3 {
        let (space, wider) = (StateSpace::new(n).unwrap(), StateSpace::new(n + 1).unwrap());
        let mut rng = ChaCha8Rng::seed_from_u64(1912 + n as u64);
        for _ in 0..8 {
            let a = PureStrategy::random(space, &mut rng);
            let b = PureStrategy::random(space, &mut rng);
            let (la, lb) = (lift(&a, wider), lift(&b, wider));
            let states = wider.num_states() as u32;
            for payoff in payoffs {
                for rounds in [0u32, 1, 7, states - 1, states, states + 1, 200, 1_000] {
                    let cfg = GameConfig { rounds, noise: 0.0, payoff };
                    let want = play_deterministic(&space, &a, &b, &cfg).fitness_a.to_bits();
                    let ctx = format!("memory-{n} lifted, {rounds} rounds, {payoff:?}");
                    let [vs_b, vs_a] = play_deterministic_lanes(&wider, &la, [&lb, &la], &cfg);
                    assert_eq!(vs_b.fitness_a.to_bits(), want, "{ctx}: lanes");
                    let self_play = play_deterministic(&space, &a, &a, &cfg).fitness_a.to_bits();
                    assert_eq!(vs_a.fitness_a.to_bits(), self_play, "{ctx}: lanes, self-play");
                    let cycle = play_deterministic_cycle(&wider, &la, &lb, &cfg).fitness_a;
                    assert_eq!(cycle.to_bits(), want, "{ctx}: cycle");
                    if batch_is_word_parallel(&wider, &cfg) {
                        let batch = play_deterministic_batch(&wider, &[(&la, &lb)], &cfg);
                        assert_eq!(batch[0].fitness_a.to_bits(), want, "{ctx}: batch");
                    }
                    let (sa, sb) = (IpdStrategy::Pure(la.clone()), IpdStrategy::Pure(lb.clone()));
                    let exact = ipd::markov::expected_outcome(&wider, &sa, &sb, &cfg);
                    assert_eq!(exact.fitness_a.to_bits(), want, "{ctx}: markov");
                }
            }
        }
    }
}
