//! Word-parallel (bit-sliced) evaluation of deterministic game batches.
//!
//! The scalar kernels in [`crate::game`] play one game at a time, one round
//! per loop iteration. This module transposes the problem: **64 independent
//! games advance together**, one *bit lane* per game, so each round of all
//! 64 games costs a handful of `u64` bitwise operations instead of 64
//! table lookups. This is the raw-speed representation the paper's bit-packed
//! strategies (§VI-B1) invite: the strategy table is already a bit stream,
//! so a round becomes a 4-way bit mux over table planes.
//!
//! The engine no longer plays through it: paying a game out from its cycle
//! ([`crate::game::play_deterministic_cycles`]) is cheaper per game under
//! the same exactness gate (docs/PERFORMANCE.md §1). It stays public for
//! the ledger's traced kernel probe, which pins it.
//!
//! # How a round is computed
//!
//! For memory ≤ 1 a player's state is exactly `(my last move, opponent's
//! last move)` — two bits. Keep two planes `ma`/`mb` holding every lane's
//! last move (1 = defect), and for each side four *table planes* `t[j]`
//! where bit `l` of `t[j]` is strategy `l`'s move in state `j`. Player A's
//! next move across all 64 lanes is then
//!
//! ```text
//! a = (!ma & !mb & ta[0]) | (!ma & mb & ta[1]) | (ma & !mb & ta[2]) | (ma & mb & ta[3])
//! ```
//!
//! and symmetrically for B with `(mb, ma)`. Outcome categories (`cc`, `cd`,
//! `dc`) are single AND/NOT combinations, accumulated per lane in vertical
//! ripple-carry counters (amortised ~2 ops per add). Fitness is recovered
//! at the end as `count × payoff` per category.
//!
//! # Exactness
//!
//! The count-based payout is **bit-identical** to the scalar kernel's
//! round-by-round `f64` accumulation whenever the payoff matrix is
//! integral and no sum of the game can pass 2⁵³
//! ([`crate::payoff::PayoffMatrix::pays_exactly`], which takes the game
//! length): both computations are then exact integer arithmetic, so they
//! produce the same integer and hence the same `f64` bit pattern.
//! [`play_deterministic_batch`] only takes the bit-sliced path under that
//! condition (and memory ≤ 1); otherwise it falls back to
//! [`play_deterministic`] per game, so its results equal the scalar
//! kernel's *unconditionally* (property-tested).
//!
//! ```
//! use ipd::prelude::*;
//! use ipd::batch::play_deterministic_batch;
//!
//! let space = StateSpace::new(1).unwrap();
//! let cfg = GameConfig::default();
//! let all: Vec<PureStrategy> =
//!     (0..16).map(|i| PureStrategy::from_memory_one_index(space, i)).collect();
//! let pairs: Vec<(&PureStrategy, &PureStrategy)> =
//!     all.iter().flat_map(|a| all.iter().map(move |b| (a, b))).collect();
//! let fast = play_deterministic_batch(&space, &pairs, &cfg);
//! for (k, &(a, b)) in pairs.iter().enumerate() {
//!     assert_eq!(fast[k], play_deterministic(&space, a, b, &cfg));
//! }
//! ```

use crate::game::{play_deterministic, GameConfig, GameOutcome};
use crate::state::StateSpace;
use crate::strategy::PureStrategy;

/// A vertical (bit-sliced) ripple-carry counter: plane `i` holds bit `i`
/// of 64 independent lane counts. Adding a mask increments every lane
/// whose bit is set; amortised cost is ~2 bitwise ops per add.
#[derive(Debug, Default)]
struct LaneCounter {
    planes: Vec<u64>,
}

impl LaneCounter {
    #[inline]
    fn add(&mut self, mut mask: u64) {
        for plane in &mut self.planes {
            let carry = *plane & mask;
            *plane ^= mask;
            mask = carry;
            if mask == 0 {
                return;
            }
        }
        if mask != 0 {
            self.planes.push(mask);
        }
    }

    #[inline]
    fn count(&self, lane: usize) -> u64 {
        self.planes
            .iter()
            .enumerate()
            .map(|(i, p)| ((p >> lane) & 1) << i)
            .sum()
    }
}

/// Bit-sliced evaluation of up to 64 memory-≤1 pairs. Lane `l` plays
/// `pairs[l]`; both players start from the all-cooperation view.
fn batch64(
    space: &StateSpace,
    pairs: &[(&PureStrategy, &PureStrategy)],
    config: &GameConfig,
) -> Vec<GameOutcome> {
    debug_assert!(pairs.len() <= 64);
    debug_assert!(space.mem_steps() <= 1);
    // Table planes: bit l of t*[j] = pair l's move in state j (1 = defect).
    // Memory-zero tables have a single state; replicating its bit across
    // all four planes makes the state mux a no-op for those lanes.
    let mut ta = [0u64; 4];
    let mut tb = [0u64; 4];
    let states = space.num_states();
    for (l, &(a, b)) in pairs.iter().enumerate() {
        debug_assert_eq!(a.space(), space);
        debug_assert_eq!(b.space(), space);
        let (wa, wb) = (a.words()[0], b.words()[0]);
        for j in 0..4 {
            let s = j.min(states - 1);
            ta[j] |= ((wa >> s) & 1) << l;
            tb[j] |= ((wb >> s) & 1) << l;
        }
    }
    let live: u64 = if pairs.len() == 64 {
        u64::MAX
    } else {
        (1u64 << pairs.len()) - 1
    };
    // Last-move planes; the initial state is all-cooperation (state 0).
    let (mut ma, mut mb) = (0u64, 0u64);
    let mut cc = LaneCounter::default();
    let mut cd = LaneCounter::default();
    let mut dc = LaneCounter::default();
    for _ in 0..config.rounds {
        let a = (!ma & !mb & ta[0]) | (!ma & mb & ta[1]) | (ma & !mb & ta[2]) | (ma & mb & ta[3]);
        let b = (!mb & !ma & tb[0]) | (!mb & ma & tb[1]) | (mb & !ma & tb[2]) | (mb & ma & tb[3]);
        cc.add(!a & !b & live);
        cd.add(!a & b & live);
        dc.add(a & !b & live);
        ma = a;
        mb = b;
    }
    // One flush for the word's games, not two shared-line writes per lane.
    obs::counters().add_games(pairs.len() as u64, config.rounds);
    (0..pairs.len())
        .map(|l| {
            let (ncc, ncd, ndc) = (cc.count(l), cd.count(l), dc.count(l));
            let ndd = config.rounds as u64 - ncc - ncd - ndc;
            // Exact (bit-identical to the scalar kernel): the caller gated
            // on `pays_exactly`.
            GameOutcome::from_counts(&config.payoff, [ncc, ncd, ndc, ndd], config.rounds)
        })
        .collect()
}

/// `true` if [`play_deterministic_batch`] will take the word-parallel path
/// for this space and configuration (memory ≤ 1 and a payoff matrix whose
/// count payout is exact at this game length — the exactness condition
/// documented at module level).
pub fn batch_is_word_parallel(space: &StateSpace, config: &GameConfig) -> bool {
    space.mem_steps() <= 1 && config.payoff.pays_exactly(config.rounds)
}

/// Play every pair in `pairs` deterministically (pure strategies, no
/// noise), 64 games per word where the representation allows it.
///
/// Returns one [`GameOutcome`] per input pair, in order, **identical** to
/// what [`play_deterministic`] returns for that pair: bit-identical via
/// integer exactness on the word-parallel path, trivially identical on the
/// scalar fallback (memory > 1 or non-integral payoffs). Telemetry parity
/// holds too — every game increments the `obs` game counters exactly as
/// the scalar kernel does.
pub fn play_deterministic_batch(
    space: &StateSpace,
    pairs: &[(&PureStrategy, &PureStrategy)],
    config: &GameConfig,
) -> Vec<GameOutcome> {
    if batch_is_word_parallel(space, config) {
        pairs.chunks(64).flat_map(|c| batch64(space, c, config)).collect()
    } else {
        pairs
            .iter()
            .map(|&(a, b)| play_deterministic(space, a, b, config))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classic;
    use crate::payoff::PayoffMatrix;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn sp(n: usize) -> StateSpace {
        StateSpace::new(n).unwrap()
    }

    fn cfg(rounds: u32) -> GameConfig {
        GameConfig {
            rounds,
            ..GameConfig::default()
        }
    }

    fn assert_bit_identical(got: &GameOutcome, want: &GameOutcome, ctx: &str) {
        assert_eq!(
            got.fitness_a.to_bits(),
            want.fitness_a.to_bits(),
            "{ctx}: fitness_a {} vs {}",
            got.fitness_a,
            want.fitness_a
        );
        assert_eq!(got.fitness_b.to_bits(), want.fitness_b.to_bits(), "{ctx}");
        assert_eq!(got, want, "{ctx}");
    }

    #[test]
    fn all_256_memory_one_pairs_bit_identical() {
        let s = sp(1);
        let all: Vec<PureStrategy> =
            (0..16).map(|i| PureStrategy::from_memory_one_index(s, i)).collect();
        let pairs: Vec<(&PureStrategy, &PureStrategy)> =
            all.iter().flat_map(|a| all.iter().map(move |b| (a, b))).collect();
        for rounds in [0u32, 1, 2, 7, 50, 200, 1_000] {
            let fast = play_deterministic_batch(&s, &pairs, &cfg(rounds));
            assert_eq!(fast.len(), 256);
            for (k, &(a, b)) in pairs.iter().enumerate() {
                let want = play_deterministic(&s, a, b, &cfg(rounds));
                assert_bit_identical(&fast[k], &want, &format!("pair {k}, {rounds} rounds"));
            }
        }
    }

    #[test]
    fn memory_zero_pairs_bit_identical() {
        let s = sp(0);
        let strats = [PureStrategy::all_cooperate(s), PureStrategy::all_defect(s)];
        let pairs: Vec<(&PureStrategy, &PureStrategy)> = strats
            .iter()
            .flat_map(|a| strats.iter().map(move |b| (a, b)))
            .collect();
        let fast = play_deterministic_batch(&s, &pairs, &cfg(30));
        for (k, &(a, b)) in pairs.iter().enumerate() {
            assert_bit_identical(
                &fast[k],
                &play_deterministic(&s, a, b, &cfg(30)),
                &format!("pair {k}"),
            );
        }
    }

    #[test]
    fn odd_batch_sizes_mask_dead_lanes() {
        // Sizes around the 64-lane boundary: masking must keep lane counts
        // correct in partially-filled words.
        let s = sp(1);
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let strats: Vec<PureStrategy> =
            (0..130).map(|_| PureStrategy::random(s, &mut rng)).collect();
        for size in [1usize, 63, 64, 65, 127, 128, 130] {
            let pairs: Vec<(&PureStrategy, &PureStrategy)> = (0..size)
                .map(|i| (&strats[i], &strats[(i * 37 + 11) % strats.len()]))
                .collect();
            let fast = play_deterministic_batch(&s, &pairs, &cfg(73));
            for (k, &(a, b)) in pairs.iter().enumerate() {
                assert_bit_identical(
                    &fast[k],
                    &play_deterministic(&s, a, b, &cfg(73)),
                    &format!("size {size}, pair {k}"),
                );
            }
        }
    }

    #[test]
    fn scalar_fallback_covers_deep_memory_and_non_integral_payoffs() {
        // Memory > 1 falls back per game; results still identical.
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        for mem in 2..=4 {
            let s = sp(mem);
            let strats: Vec<PureStrategy> =
                (0..10).map(|_| PureStrategy::random(s, &mut rng)).collect();
            let pairs: Vec<(&PureStrategy, &PureStrategy)> = strats
                .iter()
                .flat_map(|a| strats.iter().map(move |b| (a, b)))
                .collect();
            assert!(!batch_is_word_parallel(&s, &cfg(50)));
            let fast = play_deterministic_batch(&s, &pairs, &cfg(50));
            for (k, &(a, b)) in pairs.iter().enumerate() {
                assert_bit_identical(
                    &fast[k],
                    &play_deterministic(&s, a, b, &cfg(50)),
                    &format!("memory-{mem}, pair {k}"),
                );
            }
        }
        // Non-integral payoffs force the fallback even at memory one.
        let s = sp(1);
        let frac = GameConfig {
            rounds: 40,
            payoff: PayoffMatrix::from_rstp(3.5, 0.0, 4.25, 1.0),
            ..GameConfig::default()
        };
        assert!(!batch_is_word_parallel(&s, &frac));
        let a = classic::tft(&s);
        let b = classic::wsls(&s);
        let fast = play_deterministic_batch(&s, &[(&a, &b)], &frac);
        assert_bit_identical(&fast[0], &play_deterministic(&s, &a, &b, &frac), "frac");
    }

    #[test]
    fn all_non_positive_matrix_pays_out_positive_zero() {
        // Every entry ≤ -0.0: a game that scores zero sums to +0.0 round
        // by round, and the count payout must too (it adds from +0.0).
        let s = sp(1);
        let cfg = GameConfig {
            rounds: 9,
            payoff: PayoffMatrix::from_rstp(-3.0, -0.0, -1.0, -2.0),
            ..GameConfig::default()
        };
        assert!(batch_is_word_parallel(&s, &cfg));
        let (c, d) = (classic::all_c(&s), classic::all_d(&s));
        let fast = play_deterministic_batch(&s, &[(&c, &d)], &cfg);
        let want = play_deterministic(&s, &c, &d, &cfg);
        assert_eq!(want.fitness_a.to_bits(), 0.0f64.to_bits());
        assert_bit_identical(&fast[0], &want, "ALLC vs ALLD, all payoffs ≤ -0.0");
    }

    #[test]
    fn integral_donation_matrix_takes_word_parallel_path() {
        let s = sp(1);
        let donation = GameConfig {
            rounds: 60,
            payoff: PayoffMatrix::donation(2.0, 1.0),
            ..GameConfig::default()
        };
        assert!(batch_is_word_parallel(&s, &donation));
        let a = classic::tft(&s);
        let b = classic::all_d(&s);
        let fast = play_deterministic_batch(&s, &[(&a, &b)], &donation);
        assert_bit_identical(&fast[0], &play_deterministic(&s, &a, &b, &donation), "donation");
    }

    #[test]
    fn word_parallel_gate_bounds_the_game_length() {
        // An odd integral reward of ~2^32 over 2^22 rounds: the
        // round-by-round sum passes 2^53 and rounds from there on, so the
        // exact count payout is not what the scalar kernel returns, and the
        // batch must fall back to it.
        let s = sp(1);
        let long = GameConfig {
            rounds: 1 << 22,
            payoff: PayoffMatrix::from_rstp(4_294_967_295.0, 0.0, 1.0, 0.0),
            ..GameConfig::default()
        };
        assert!(!batch_is_word_parallel(&s, &long));
        let c = classic::all_c(&s);
        let scalar = play_deterministic(&s, &c, &c, &long);
        assert_ne!(scalar.fitness_a, long.rounds as f64 * long.payoff.reward, "the sum is inexact here");
        let fast = play_deterministic_batch(&s, &[(&c, &c)], &long);
        assert_bit_identical(&fast[0], &scalar, "2^22 rounds of ~2^32");
    }

    #[test]
    fn empty_batch_is_empty() {
        let s = sp(1);
        assert!(play_deterministic_batch(&s, &[], &cfg(10)).is_empty());
    }

    #[test]
    fn batch_counts_games_like_the_scalar_kernel() {
        let s = sp(1);
        let a = classic::tft(&s);
        let pairs: Vec<(&PureStrategy, &PureStrategy)> = (0..70).map(|_| (&a, &a)).collect();
        let before = obs::counters().snapshot();
        play_deterministic_batch(&s, &pairs, &cfg(25));
        let delta = obs::counters().snapshot().delta_since(&before);
        assert!(delta.games_played >= 70);
        assert!(delta.rounds_simulated >= 70 * 25);
    }

    #[test]
    fn lane_counter_counts_per_lane() {
        let mut c = LaneCounter::default();
        for i in 0..13 {
            // Lane 0 every time, lane 1 on even steps, lane 63 once.
            let mut m = 1u64;
            if i % 2 == 0 {
                m |= 2;
            }
            if i == 5 {
                m |= 1 << 63;
            }
            c.add(m);
        }
        assert_eq!(c.count(0), 13);
        assert_eq!(c.count(1), 7);
        assert_eq!(c.count(63), 1);
        assert_eq!(c.count(17), 0);
    }
}
