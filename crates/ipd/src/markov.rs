//! Exact expected game outcomes via Markov-chain forward iteration.
//!
//! A game between two (possibly mixed) memory-*n* strategies with
//! execution noise is a Markov chain over the `4^n` joint history states:
//! both players see the *same* actual history, each through its own
//! perspective transform. Iterating the state distribution forward for the
//! game's rounds gives the **exact expected** payoffs and cooperation
//! counts — no sampling variance — in `O(rounds · 4^n)` time (memory-six:
//! 4,096 states, still trivially cheap).
//!
//! Uses:
//! - variance-free fitness evaluation for stochastic populations (the
//!   expected-fitness mode in `evo-core`), where it is the **analytic fast
//!   path** that bypasses round simulation entirely — each evaluation is
//!   counted in the `markov_fastpath_evals` observability counter;
//! - exact verification of zero-determinant score relations ([`crate::zd`]);
//! - analytic ground truth for the Monte-Carlo engine (property-tested
//!   agreement).
//!
//! The forward iteration precomputes each state's noisy cooperation
//! probabilities and its four successor states once, then reuses two
//! distribution buffers across rounds — no per-round allocation, and the
//! accumulation order is fixed (ascending state id, then the four move
//! combinations in C/C, C/D, D/C, D/D order), so results are reproducible
//! to the bit.
//!
//! # Exact vs approximate
//!
//! For **pure strategies with zero noise** the distribution never spreads:
//! all probability mass stays on the single joint state the deterministic
//! game visits, every round weight is exactly `1.0`, and the payoff
//! accumulates in the same order as [`crate::game::play_deterministic`] —
//! so the expected outcome is **bit-identical** to the simulated one at
//! *any* memory depth (asserted by this module's tests). For mixed
//! strategies or ε > 0 it is the exact *expectation* of a distribution the
//! sampled kernels draw from — a different fitness mode, not an
//! approximation error (see `docs/PERFORMANCE.md`).
//!
//! ```
//! use ipd::prelude::*;
//! use ipd::markov::expected_outcome;
//!
//! let space = StateSpace::new(1).unwrap();
//! let cfg = GameConfig::default();
//! // Pure + noiseless: the expectation IS the deterministic outcome, bit for bit.
//! let tft = classic::tft(&space);
//! let wsls = classic::wsls(&space);
//! let sim = play_deterministic(&space, &tft, &wsls, &cfg);
//! let exact = expected_outcome(
//!     &space, &Strategy::Pure(tft.clone()), &Strategy::Pure(wsls), &cfg);
//! assert_eq!(exact.fitness_a.to_bits(), sim.fitness_a.to_bits());
//!
//! // Under noise the expectation is variance-free where simulation samples.
//! let noisy = GameConfig { noise: 0.05, ..GameConfig::default() };
//! let t = Strategy::Pure(tft);
//! assert!(expected_outcome(&space, &t, &t, &noisy).mean_fitness_a() < 2.5);
//! ```

use crate::game::GameConfig;
use crate::payoff::Move;
use crate::state::{StateId, StateSpace};
use crate::strategy::Strategy;

/// Cooperation probability of `strategy` in `state`, with execution noise
/// ε folded in: `p' = p(1−ε) + (1−p)ε`.
fn coop_prob(strategy: &Strategy, state: StateId, noise: f64) -> f64 {
    let p = match strategy {
        Strategy::Pure(p) => {
            if p.move_for(state).is_cooperate() {
                1.0
            } else {
                0.0
            }
        }
        Strategy::Mixed(m) => m.coop_prob(state),
    };
    p * (1.0 - noise) + (1.0 - p) * noise
}

/// The precomputed forward-iteration kernel for one strategy pair: each
/// state's noisy cooperation probabilities, its four successor states, and
/// the per-move-combination payoff/cooperation contributions. Building it
/// once hoists every strategy lookup and state transition out of the
/// per-round loop; [`ForwardKernel::step`] then reuses caller-owned
/// buffers, so iterating `rounds` steps allocates nothing.
struct ForwardKernel {
    /// Noisy cooperation probability of A in each state (A's perspective).
    pa: Vec<f64>,
    /// Noisy cooperation probability of B in each state (A's perspective;
    /// B reads the perspective-swapped state).
    pb: Vec<f64>,
    /// `next[s][k]` = successor of state `s` under move combination `k`
    /// (`k = 2·a_defects + b_defects`, i.e. C/C, C/D, D/C, D/D).
    next: Vec<[usize; 4]>,
    /// `pay[k] = [payoff_a, payoff_b, a_cooperates, b_cooperates]` for
    /// move combination `k`.
    pay: [[f64; 4]; 4],
}

const MOVES: [Move; 2] = [Move::Cooperate, Move::Defect];

impl ForwardKernel {
    fn new(space: &StateSpace, a: &Strategy, b: &Strategy, config: &GameConfig) -> Self {
        let n = space.num_states();
        let mut pa = Vec::with_capacity(n);
        let mut pb = Vec::with_capacity(n);
        let mut next = Vec::with_capacity(n);
        for s in 0..n {
            let sa = s as StateId;
            let sb = space.swap_perspective(sa);
            pa.push(coop_prob(a, sa, config.noise));
            pb.push(coop_prob(b, sb, config.noise));
            let mut nx = [0usize; 4];
            for (ka, move_a) in MOVES.iter().enumerate() {
                for (kb, move_b) in MOVES.iter().enumerate() {
                    nx[2 * ka + kb] = space.advance(sa, *move_a, *move_b) as usize;
                }
            }
            next.push(nx);
        }
        let mut pay = [[0.0f64; 4]; 4];
        for (ka, move_a) in MOVES.iter().enumerate() {
            for (kb, move_b) in MOVES.iter().enumerate() {
                let (fa, fb) = config.payoff.payoffs(*move_a, *move_b);
                pay[2 * ka + kb] = [
                    fa,
                    fb,
                    move_a.is_cooperate() as u8 as f64,
                    move_b.is_cooperate() as u8 as f64,
                ];
            }
        }
        ForwardKernel { pa, pb, next, pay }
    }

    /// One forward step of the joint-state distribution. `dist[s]` is the
    /// probability that the last *n* rounds equal state `s` (from player
    /// A's perspective). Writes the next distribution into `next_dist` and
    /// this round's expected `(payoff_a, payoff_b, coop_a, coop_b)` into
    /// `round`. The accumulation order (and hence every f64 bit) matches
    /// the naive re-derivation from the strategies.
    fn step(&self, dist: &[f64], next_dist: &mut [f64], round: &mut [f64; 4]) {
        next_dist.fill(0.0);
        *round = [0.0; 4];
        for (s, &mass) in dist.iter().enumerate() {
            if mass == 0.0 {
                continue;
            }
            let (pa, pb) = (self.pa[s], self.pb[s]);
            for (ka, wa) in [(0usize, pa), (1, 1.0 - pa)] {
                if wa == 0.0 {
                    continue;
                }
                for (kb, wb) in [(0usize, pb), (1, 1.0 - pb)] {
                    if wb == 0.0 {
                        continue;
                    }
                    let w = mass * wa * wb;
                    let k = 2 * ka + kb;
                    let p = &self.pay[k];
                    round[0] += w * p[0];
                    round[1] += w * p[1];
                    round[2] += w * p[2];
                    round[3] += w * p[3];
                    next_dist[self.next[s][k]] += w;
                }
            }
        }
    }
}

/// Expected game outcome (total fitness and expected cooperation counts,
/// as `f64`s) of the iterated game [`crate::game::play`] simulates —
/// computed exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExpectedOutcome {
    /// Expected total fitness of player A.
    pub fitness_a: f64,
    /// Expected total fitness of player B.
    pub fitness_b: f64,
    /// Expected number of A's cooperation moves.
    pub coop_a: f64,
    /// Expected number of B's cooperation moves.
    pub coop_b: f64,
    /// Rounds played.
    pub rounds: u32,
}

impl ExpectedOutcome {
    /// Expected mean per-round fitness of player A.
    pub fn mean_fitness_a(&self) -> f64 {
        self.fitness_a / self.rounds as f64
    }

    /// Expected mean per-round fitness of player B.
    pub fn mean_fitness_b(&self) -> f64 {
        self.fitness_b / self.rounds as f64
    }
}

/// Compute the exact expected outcome of a game between `a` and `b` —
/// the analytic fast path that replaces round simulation (counted in the
/// `markov_fastpath_evals` observability counter). See the module docs
/// for when the result is bit-identical to the simulated game.
pub fn expected_outcome(
    space: &StateSpace,
    a: &Strategy,
    b: &Strategy,
    config: &GameConfig,
) -> ExpectedOutcome {
    obs::counters().add(obs::Counter::MarkovFastpathEvals, 1);
    let kernel = ForwardKernel::new(space, a, b, config);
    let mut dist = vec![0.0; space.num_states()];
    let mut next = vec![0.0; space.num_states()];
    let mut round = [0.0f64; 4];
    dist[space.initial_state() as usize] = 1.0;
    let mut out = ExpectedOutcome {
        fitness_a: 0.0,
        fitness_b: 0.0,
        coop_a: 0.0,
        coop_b: 0.0,
        rounds: config.rounds,
    };
    for _ in 0..config.rounds {
        kernel.step(&dist, &mut next, &mut round);
        std::mem::swap(&mut dist, &mut next);
        out.fitness_a += round[0];
        out.fitness_b += round[1];
        out.coop_a += round[2];
        out.coop_b += round[3];
    }
    out
}

/// Cesàro (time-averaged) state distribution over `iters` rounds — the
/// long-run behaviour that zero-determinant score relations constrain.
/// Converges for any strategy pair, including deterministic cycles.
pub fn limit_distribution(
    space: &StateSpace,
    a: &Strategy,
    b: &Strategy,
    config: &GameConfig,
    iters: u32,
) -> Vec<f64> {
    assert!(iters > 0);
    let kernel = ForwardKernel::new(space, a, b, config);
    let mut dist = vec![0.0; space.num_states()];
    let mut next = vec![0.0; space.num_states()];
    let mut round = [0.0f64; 4];
    dist[space.initial_state() as usize] = 1.0;
    let mut avg = vec![0.0; space.num_states()];
    for _ in 0..iters {
        kernel.step(&dist, &mut next, &mut round);
        std::mem::swap(&mut dist, &mut next);
        for (acc, d) in avg.iter_mut().zip(&dist) {
            *acc += d;
        }
    }
    for v in &mut avg {
        *v /= iters as f64;
    }
    avg
}

/// Long-run expected per-round payoffs `(s_a, s_b)` under the Cesàro
/// distribution.
pub fn long_run_payoffs(
    space: &StateSpace,
    a: &Strategy,
    b: &Strategy,
    config: &GameConfig,
    iters: u32,
) -> (f64, f64) {
    // Average the per-round expected payoffs directly (exact Cesàro mean).
    let kernel = ForwardKernel::new(space, a, b, config);
    let mut dist = vec![0.0; space.num_states()];
    let mut next = vec![0.0; space.num_states()];
    let mut round = [0.0f64; 4];
    dist[space.initial_state() as usize] = 1.0;
    let (mut sa, mut sb) = (0.0, 0.0);
    for _ in 0..iters {
        kernel.step(&dist, &mut next, &mut round);
        std::mem::swap(&mut dist, &mut next);
        sa += round[0];
        sb += round[1];
    }
    (sa / iters as f64, sb / iters as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classic;
    use crate::game::{play, play_deterministic};
    use crate::payoff::PayoffMatrix;
    use crate::strategy::MixedStrategy;
    use crate::zd;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn sp(n: usize) -> StateSpace {
        StateSpace::new(n).unwrap()
    }

    #[test]
    fn exact_for_pure_noiseless_pairs() {
        let cfg = GameConfig::default();
        for n in [0usize, 1, 2, 3, 6] {
            let s = sp(n);
            let mut rng = ChaCha8Rng::seed_from_u64(n as u64);
            for _ in 0..5 {
                let a = crate::strategy::PureStrategy::random(s, &mut rng);
                let b = crate::strategy::PureStrategy::random(s, &mut rng);
                let det = play_deterministic(&s, &a, &b, &cfg);
                let exp = expected_outcome(
                    &s,
                    &Strategy::Pure(a.clone()),
                    &Strategy::Pure(b.clone()),
                    &cfg,
                );
                assert!((exp.fitness_a - det.fitness_a).abs() < 1e-9, "memory-{n}");
                assert!((exp.fitness_b - det.fitness_b).abs() < 1e-9);
                assert!((exp.coop_a - det.coop_a as f64).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn bit_identical_to_simulation_for_pure_noiseless_memory_le_3() {
        // The fitness-mode guarantee the fast path advertises: for pure,
        // noiseless pairs the forward iteration keeps all probability mass
        // exactly 1.0 on the simulated trajectory, so the accumulated
        // payoffs are the *same* f64s as `play_deterministic`, not merely
        // close. Checked exhaustively over random pairs at every memory
        // depth the analytic mode targets (≤ 3) and several round counts.
        for n in [0usize, 1, 2, 3] {
            let s = sp(n);
            let mut rng = ChaCha8Rng::seed_from_u64(0xC0FFEE + n as u64);
            for rounds in [1u32, 7, 50, 1000] {
                let cfg = GameConfig {
                    rounds,
                    ..GameConfig::default()
                };
                for _ in 0..8 {
                    let a = crate::strategy::PureStrategy::random(s, &mut rng);
                    let b = crate::strategy::PureStrategy::random(s, &mut rng);
                    let det = play_deterministic(&s, &a, &b, &cfg);
                    let exp = expected_outcome(
                        &s,
                        &Strategy::Pure(a.clone()),
                        &Strategy::Pure(b.clone()),
                        &cfg,
                    );
                    assert_eq!(
                        exp.fitness_a.to_bits(),
                        det.fitness_a.to_bits(),
                        "memory-{n} rounds-{rounds}: {} vs {}",
                        exp.fitness_a,
                        det.fitness_a
                    );
                    assert_eq!(exp.fitness_b.to_bits(), det.fitness_b.to_bits());
                    assert_eq!(exp.coop_a, det.coop_a as f64);
                    assert_eq!(exp.coop_b, det.coop_b as f64);
                }
            }
        }
    }

    #[test]
    fn noisy_fast_path_is_approximate_not_bit_identical() {
        // Under noise the fast path computes the *expectation* while the
        // simulator samples — the contract is documented tolerance, not
        // bit-identity. The expectation must sit near the empirical mean.
        let s = sp(2);
        let cfg = GameConfig {
            rounds: 64,
            noise: 0.05,
            ..GameConfig::default()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let a = Strategy::Pure(crate::strategy::PureStrategy::random(s, &mut rng));
        let b = Strategy::Pure(crate::strategy::PureStrategy::random(s, &mut rng));
        let exact = expected_outcome(&s, &a, &b, &cfg);
        let games = 20_000;
        let mut mc = 0.0;
        for _ in 0..games {
            mc += play(&s, &a, &b, &cfg, &mut rng).fitness_a;
        }
        mc /= games as f64;
        let rel = (exact.fitness_a - mc).abs() / exact.fitness_a.abs().max(1.0);
        assert!(rel < 0.02, "exact {} vs MC {mc}", exact.fitness_a);
    }

    #[test]
    fn fast_path_evals_are_counted() {
        let before = obs::counters().snapshot().markov_fastpath_evals;
        let s = sp(1);
        let tft = Strategy::Pure(classic::tft(&s));
        let _ = expected_outcome(&s, &tft, &tft, &GameConfig::default());
        let after = obs::counters().snapshot().markov_fastpath_evals;
        assert!(after > before);
    }

    #[test]
    fn matches_monte_carlo_for_mixed_strategies() {
        let s = sp(1);
        let cfg = GameConfig {
            rounds: 100,
            noise: 0.02,
            ..GameConfig::default()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let a = Strategy::Mixed(MixedStrategy::random(s, &mut rng));
        let b = Strategy::Mixed(MixedStrategy::random(s, &mut rng));
        let exact = expected_outcome(&s, &a, &b, &cfg);
        let games = 30_000;
        let mut mc = 0.0;
        for _ in 0..games {
            mc += play(&s, &a, &b, &cfg, &mut rng).fitness_a;
        }
        mc /= games as f64;
        let rel = (exact.fitness_a - mc).abs() / exact.fitness_a;
        assert!(rel < 0.01, "exact {} vs MC {mc}", exact.fitness_a);
    }

    #[test]
    fn noise_degrades_tft_self_play_exactly() {
        // TFT self-play under noise: the long-run per-round payoff drops
        // toward the (R+S+T+P)/4 = 2 mixing value.
        let s = sp(1);
        let tft = Strategy::Pure(classic::tft(&s));
        let clean = GameConfig::default();
        let noisy = GameConfig {
            noise: 0.05,
            ..GameConfig::default()
        };
        let e_clean = expected_outcome(&s, &tft, &tft, &clean);
        let e_noisy = expected_outcome(&s, &tft, &tft, &noisy);
        assert!((e_clean.mean_fitness_a() - 3.0).abs() < 1e-12);
        assert!(e_noisy.mean_fitness_a() < 2.5);
        // And WSLS holds up better — the §III-E claim, now exact.
        let wsls = Strategy::Pure(classic::wsls(&s));
        let w_noisy = expected_outcome(&s, &wsls, &wsls, &noisy);
        assert!(
            w_noisy.mean_fitness_a() > e_noisy.mean_fitness_a() + 0.3,
            "WSLS {} vs TFT {}",
            w_noisy.mean_fitness_a(),
            e_noisy.mean_fitness_a()
        );
    }

    #[test]
    fn zd_extortion_relation_holds_exactly() {
        // The Press-Dyson relation s_X − P = χ(s_Y − P) verified to
        // numerical precision on the long-run payoffs.
        let s = sp(1);
        let payoff = PayoffMatrix::default();
        let chi = 3.0;
        let phi = zd::phi_max(&payoff, payoff.punishment, chi) * 0.7;
        let x = Strategy::Mixed(zd::extortionate(&s, &payoff, chi, phi).unwrap());
        for opp in [
            Strategy::Pure(classic::all_c(&s)),
            Strategy::Mixed(MixedStrategy::memory_one(s, [0.8, 0.3, 0.6, 0.1]).unwrap()),
        ] {
            let (sx, sy) = long_run_payoffs(&s, &x, &opp, &GameConfig::default(), 60_000);
            let lhs = sx - payoff.punishment;
            let rhs = chi * (sy - payoff.punishment);
            assert!(
                (lhs - rhs).abs() < 1e-3,
                "ZD relation violated: {lhs} vs {rhs}"
            );
        }
    }

    #[test]
    fn limit_distribution_is_a_distribution() {
        let s = sp(2);
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let a = Strategy::Mixed(MixedStrategy::random(s, &mut rng));
        let b = Strategy::Mixed(MixedStrategy::random(s, &mut rng));
        let d = limit_distribution(&s, &a, &b, &GameConfig::default(), 2_000);
        let total: f64 = d.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(d.iter().all(|&p| p >= 0.0));
    }

    #[test]
    fn deterministic_cycle_has_uniform_cesaro_limit() {
        // WSLS vs ALLD cycles with period two through (C,D) and (D,D):
        // the Cesàro limit puts mass ½ on each of the two visited states.
        let s = sp(1);
        let wsls = Strategy::Pure(classic::wsls(&s));
        let alld = Strategy::Pure(classic::all_d(&s));
        let d = limit_distribution(&s, &wsls, &alld, &GameConfig::default(), 10_000);
        // States in A's view: (C,D) = 1, (D,D) = 3.
        assert!((d[1] - 0.5).abs() < 1e-3, "{d:?}");
        assert!((d[3] - 0.5).abs() < 1e-3, "{d:?}");
        assert!(d[0] < 1e-3 && d[2] < 1e-3);
    }

    #[test]
    fn gtft_forgiveness_quantified_exactly() {
        // GTFT vs ALLD: GTFT cooperates 2/3 of the time after defection,
        // so its long-run cooperation rate against ALLD is exactly 2/3.
        let s = sp(1);
        let gtft = Strategy::Mixed(classic::gtft(&s, &PayoffMatrix::default()));
        let alld = Strategy::Pure(classic::all_d(&s));
        let cfg = GameConfig {
            rounds: 5_000,
            ..GameConfig::default()
        };
        let e = expected_outcome(&s, &gtft, &alld, &cfg);
        let rate = e.coop_a / cfg.rounds as f64;
        assert!((rate - 2.0 / 3.0).abs() < 1e-3, "rate {rate}");
    }
}
