//! The iterated two-player game engine (paper §IV-C, the `IPD()` function).
//!
//! A game is `rounds` consecutive plays of the Prisoner's Dilemma between
//! two strategies. Both players start from the all-cooperation view (the
//! paper arbitrarily sets the first plays to 0) and each round:
//!
//! 1. each player's current state is its rolling state id — the last *n*
//!    rounds from its own perspective, packed two bits a round,
//! 2. each picks a move via its strategy: a bit of the packed table for a
//!    pure strategy, a sample for a mixed one,
//! 3. execution noise flips each move independently with probability ε
//!    (§III-E),
//! 4. **the round step** (`Lane::step`, the one round body of every
//!    kernel that sums round by round): on the raw move bits `a`, `b` (1 = defect) both payoffs are
//!    read from the 4-entry table `[R,S,T,P]` at `a<<1|b` and `b<<1|a` and
//!    added to the two per-game `f64` sums, the defections are counted as
//!    integers, and both state ids shift the round in — no branch, no
//!    `Move`, no `match`.
//!
//! Steps 1–3 differ per kernel; step 4 is shared by every kernel that
//! plays every round: [`play_deterministic_lanes`] (and
//! [`play_deterministic`], its one-lane case) read step 2 from the strategy
//! words, [`play`] draws steps 2–3 from the caller's RNG. They add the sums
//! round by round in round order, so their results agree to the bit for
//! any payoff matrix and memory depth.
//!
//! # Paying a game out from its cycle
//!
//! A noiseless game between pure strategies is eventually periodic: B's
//! state id is always A's with each round's bits swapped, so A's id alone
//! is the game's state, one of `4^n`. [`play_deterministic_cycle`] (and
//! [`play_deterministic_cycles`], its `K`-opponent form) walk A's id until
//! Brent's table-free detection finds its cycle, count the four outcomes
//! over prefix + whole cycles + remainder as integers, and pay the counts
//! out once (their round, `Walk::round`, is step 4's state shift,
//! `Walk::shift`, without the sums). That payout is the round-by-round sum to the bit
//! exactly where [`PayoffMatrix::pays_exactly`] holds (integral payoffs,
//! every sum within 2⁵³); everywhere else the cycle kernels play every
//! round through the lanes, so they too agree to the bit with every other
//! deterministic kernel for every matrix.
//!
//! # Lockstep lanes
//!
//! One game is a dependent chain — state → table word → shift → mask →
//! next state — of about ten cycles a round with nothing else to overlap
//! it. Games are independent of one another, so
//! [`play_deterministic_lanes`] advances `K` of them a round at a time:
//! the chains interleave and the core's idle issue slots do the other
//! lanes' work (docs/PERFORMANCE.md §1 has the measured table). Every
//! round of every lane is still simulated.
//!
//! The paper's agent computes *both* plays from a single `current_view` by
//! evaluating the view from each perspective; we keep two mirrored state
//! ids, which is equivalent (property-tested in [`crate::history`]) and
//! avoids the per-round perspective swap.

use crate::history::HistoryView;
use crate::payoff::{Move, PayoffMatrix};
use crate::state::{StateId, StateSpace, StateTable};
use crate::strategy::{PureStrategy, Strategy};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Parameters of one iterated game.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GameConfig {
    /// Rounds per game. The paper fixes 200 (§V-C), "similar to Smith and
    /// Price's mathematical model".
    pub rounds: u32,
    /// Per-move execution error probability ε (§III-E). 0 disables noise.
    pub noise: f64,
    /// The payoff matrix; defaults to the paper's `[3,0,4,1]`.
    pub payoff: PayoffMatrix,
}

impl Default for GameConfig {
    fn default() -> Self {
        GameConfig {
            rounds: 200,
            noise: 0.0,
            payoff: PayoffMatrix::default(),
        }
    }
}

/// The result of one iterated game.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GameOutcome {
    /// Total fitness accumulated by player A (the paper's `fitness` return).
    pub fitness_a: f64,
    /// Total fitness accumulated by player B.
    pub fitness_b: f64,
    /// Rounds in which A cooperated.
    pub coop_a: u32,
    /// Rounds in which B cooperated.
    pub coop_b: u32,
    /// Rounds played.
    pub rounds: u32,
}

impl GameOutcome {
    /// The outcome of a `rounds`-round game with `counts` rounds of
    /// `[CC, CD, DC, DD]` (player A's move first): each total paid out once,
    /// from `+0.0`, in `[R, S, T, P]` order — the one count-to-payoff
    /// formula. Equal to the round-by-round sums to the bit where
    /// `payoff.pays_exactly(rounds)`.
    pub(crate) fn from_counts(payoff: &PayoffMatrix, [cc, cd, dc, dd]: [u64; 4], rounds: u32) -> GameOutcome {
        let pay = |counts: [u64; 4]| {
            counts.iter().zip(payoff.as_rstp()).fold(0.0, |total, (&n, p)| total + n as f64 * p)
        };
        GameOutcome {
            fitness_a: pay([cc, cd, dc, dd]),
            fitness_b: pay([cc, dc, cd, dd]),
            coop_a: (cc + cd) as u32,
            coop_b: (cc + dc) as u32,
            rounds,
        }
    }

    /// Mean per-round fitness of player A.
    pub fn mean_fitness_a(&self) -> f64 {
        self.fitness_a / self.rounds as f64
    }

    /// Mean per-round fitness of player B.
    pub fn mean_fitness_b(&self) -> f64 {
        self.fitness_b / self.rounds as f64
    }

    /// Fraction of all moves (both players) that were cooperation.
    pub fn cooperation_rate(&self) -> f64 {
        (self.coop_a + self.coop_b) as f64 / (2 * self.rounds) as f64
    }

    /// The same outcome from player B's perspective.
    pub fn swapped(&self) -> GameOutcome {
        GameOutcome {
            fitness_a: self.fitness_b,
            fitness_b: self.fitness_a,
            coop_a: self.coop_b,
            coop_b: self.coop_a,
            rounds: self.rounds,
        }
    }
}

/// How agents locate their current state each round — the ablation behind
/// the paper's Fig 4 runtime analysis ("the increase in runtime actually
/// comes from identifying this state").
#[derive(Debug, Clone, Copy)]
pub enum StateLookup<'a> {
    /// O(1) rolling bit-packed index (our optimisation).
    Rolling,
    /// The paper's linear scan of the materialised state table,
    /// O(n · 4^n) per round.
    LinearScan(&'a StateTable),
}

/// Both players' rolling state ids: all a noiseless game carries from one
/// round to the next. B's id is always A's with each round's two bits
/// swapped — both start at 0 and every round shifts `ab` into one and `ba`
/// into the other — so A's id alone is the state of the game, one of `4^n`.
#[derive(Debug, Clone, Copy)]
struct Walk {
    state_a: u32,
    state_b: u32,
}

impl Walk {
    /// Game start: the all-cooperation view ([`StateSpace::initial_state`]).
    const START: Walk = Walk { state_a: 0, state_b: 0 };

    /// Shift a round with move bits `a`, `b` into both ids (`mask` is
    /// [`StateSpace::mask`], zero at memory zero, which pins the state
    /// there) and return its outcome from each side, `a<<1|b` and `b<<1|a`.
    #[inline(always)]
    fn shift(&mut self, mask: u32, a: u32, b: u32) -> (usize, usize) {
        let (ab, ba) = ((a << 1 | b) & 3, (b << 1 | a) & 3);
        self.state_a = (self.state_a << 2 | ab) & mask;
        self.state_b = (self.state_b << 2 | ba) & mask;
        (ab as usize, ba as usize)
    }

    /// One round of a noiseless game whose move bits `moves` gives from the
    /// two ids: the ids shifted on, and the outcome `a<<1|b`.
    #[inline(always)]
    fn round(&mut self, mask: u32, moves: &impl Fn(u32, u32) -> (u32, u32)) -> usize {
        let (a, b) = moves(self.state_a, self.state_b);
        self.shift(mask, a, b).0
    }
}

/// One game in flight: its walk and the totals so far.
#[derive(Debug, Clone, Copy)]
struct Lane {
    walk: Walk,
    fitness_a: f64,
    fitness_b: f64,
    /// Defections so far: A's in the low half, B's in the high half (one
    /// add a round; neither half can carry, a game has `u32` rounds).
    defects: u64,
}

impl Lane {
    /// Game start: nothing accrued.
    const START: Lane = Lane {
        walk: Walk::START,
        fitness_a: 0.0,
        fitness_b: 0.0,
        defects: 0,
    };

    /// The round step (module doc, step 4). `a` and `b` are the players'
    /// move bits, `table` is `[R,S,T,P]`, `mask` is [`StateSpace::mask`].
    #[inline(always)]
    fn step(&mut self, table: &[f64; 4], mask: u32, a: u32, b: u32) {
        /// What a round adds to `defects`, by `a<<1|b`.
        const DEFECTS: [u64; 4] = [0, 1 << 32, 1, 1 << 32 | 1];
        let (ab, ba) = self.walk.shift(mask, a, b);
        self.fitness_a += table[ab];
        self.fitness_b += table[ba];
        self.defects += DEFECTS[ab];
    }

    fn outcome(&self, rounds: u32) -> GameOutcome {
        GameOutcome {
            fitness_a: self.fitness_a,
            fitness_b: self.fitness_b,
            coop_a: rounds - self.defects as u32,
            coop_b: rounds - (self.defects >> 32) as u32,
            rounds,
        }
    }
}

/// The move bit (1 = defect) for `state` in `word`, the word of a pure
/// strategy's packed table ([`PureStrategy::words`]) that holds it.
#[inline(always)]
fn word_bit(word: u64, state: u32) -> u32 {
    ((word >> (state & 63)) & 1) as u32
}

/// The move bit for `state` in a packed table (the kernels take the slice
/// once, outside the round loop).
#[inline(always)]
fn move_bit(words: &[u64], state: u32) -> u32 {
    word_bit(words[(state >> 6) as usize], state)
}

/// Play `K` games to the end, a round of every lane at a time. `moves`
/// gives lane `k`'s move bits for the round from its two state ids.
#[inline(always)]
fn play_lanes<const K: usize>(
    space: &StateSpace,
    config: &GameConfig,
    mut moves: impl FnMut(usize, StateId, StateId) -> (u32, u32),
) -> [GameOutcome; K] {
    let table = config.payoff.as_rstp();
    let mask = space.mask() as u32;
    let mut lanes = [Lane::START; K];
    for _ in 0..config.rounds {
        for (k, lane) in lanes.iter_mut().enumerate() {
            let (a, b) = moves(k, lane.walk.state_a as StateId, lane.walk.state_b as StateId);
            lane.step(&table, mask, a, b);
        }
    }
    obs::counters().add_games(K as u64, config.rounds);
    lanes.map(|lane| lane.outcome(config.rounds))
}

/// Both players' moves for one round: each decides from its state
/// (sampling if mixed), then execution noise flips each move with
/// probability `noise` — A's draws before B's at each stage.
#[inline]
fn sample_moves<R: Rng + ?Sized>(
    a: &Strategy,
    b: &Strategy,
    (state_a, state_b): (StateId, StateId),
    noise: f64,
    rng: &mut R,
) -> (Move, Move) {
    let mut move_a = a.decide(state_a, rng);
    let mut move_b = b.decide(state_b, rng);
    if noise > 0.0 {
        if rng.random::<f64>() < noise {
            move_a = move_a.flipped();
        }
        if rng.random::<f64>() < noise {
            move_b = move_b.flipped();
        }
    }
    (move_a, move_b)
}

/// Play one iterated game between two strategies, sampling mixed moves and
/// noise from `rng`.
pub fn play<R: Rng + ?Sized>(
    space: &StateSpace,
    a: &Strategy,
    b: &Strategy,
    config: &GameConfig,
    rng: &mut R,
) -> GameOutcome {
    play_with_lookup(space, a, b, config, StateLookup::Rolling, rng)
}

/// Play one iterated game with an explicit state-lookup mode (used by the
/// `state_lookup` ablation bench; results are identical across modes).
pub fn play_with_lookup<R: Rng + ?Sized>(
    space: &StateSpace,
    a: &Strategy,
    b: &Strategy,
    config: &GameConfig,
    lookup: StateLookup<'_>,
    rng: &mut R,
) -> GameOutcome {
    debug_assert_eq!(a.space(), space, "strategy A space mismatch");
    debug_assert_eq!(b.space(), space, "strategy B space mismatch");
    let [outcome] = match lookup {
        StateLookup::Rolling => play_lanes(space, config, |_, state_a, state_b| {
            let (move_a, move_b) = sample_moves(a, b, (state_a, state_b), config.noise, rng);
            (move_a.bit() as u32, move_b.bit() as u32)
        }),
        // The paper's agents keep their explicit views and search the
        // state table with them; the rolling ids are not consulted.
        StateLookup::LinearScan(table) => {
            let mut view_a = HistoryView::new(*space);
            let mut view_b = HistoryView::new(*space);
            play_lanes(space, config, |_, _, _| {
                let states = (view_a.find_state_linear(table), view_b.find_state_linear(table));
                let (move_a, move_b) = sample_moves(a, b, states, config.noise, rng);
                view_a.record(move_a, move_b);
                view_b.record(move_b, move_a);
                (move_a.bit() as u32, move_b.bit() as u32)
            })
        }
    };
    outcome
}

/// Play one focal pure strategy against `K` pure opponents with no noise,
/// the `K` games in lockstep (module doc, "Lockstep lanes"). Game `k` is
/// `focal` (player A) against `opponents[k]` (player B); each outcome is
/// bit-identical to [`play_deterministic`]'s for that pair.
pub fn play_deterministic_lanes<const K: usize>(
    space: &StateSpace,
    focal: &PureStrategy,
    opponents: [&PureStrategy; K],
    config: &GameConfig,
) -> [GameOutcome; K] {
    debug_assert_eq!(focal.space(), space);
    debug_assert!(opponents.iter().all(|o| o.space() == space));
    if space.num_states() <= 64 {
        // Up to memory three a table is one word and rides in a register:
        // no load and no index on the lane's dependent chain.
        let focal = focal.words()[0];
        let opponents = opponents.map(|o| o.words()[0]);
        play_lanes(space, config, |k, state_a, state_b| {
            (word_bit(focal, state_a as u32), word_bit(opponents[k], state_b as u32))
        })
    } else {
        let focal = focal.words();
        let opponents = opponents.map(|o| o.words());
        play_lanes(space, config, |k, state_a, state_b| {
            (move_bit(focal, state_a as u32), move_bit(opponents[k], state_b as u32))
        })
    }
}

/// Play a fully deterministic game between two *pure* strategies with no
/// noise — no RNG required. This is the hot kernel of the scaling studies
/// (the paper's strong/weak scaling runs use pure strategies).
pub fn play_deterministic(
    space: &StateSpace,
    a: &PureStrategy,
    b: &PureStrategy,
    config: &GameConfig,
) -> GameOutcome {
    let [outcome] = play_deterministic_lanes(space, a, [b], config);
    outcome
}

/// Rounds of each outcome of a game, indexed by `a<<1|b` (player A's move
/// first): `[CC, CD, DC, DD]`.
type Counts = [u64; 4];

/// The counts of a `rounds`-round game, with no table, by Brent's cycle
/// detection over A's state id: the tortoise waits at A's state of round
/// 2^k − 1 while the game itself walks on as the hare. When the hare meets
/// it `len` rounds on, the game has been on a cycle of period `len` since
/// the tortoise's round, so the rest of the game is `full` more cycles of
/// the counts the hare took since then and the first `part` rounds of one,
/// walked again.
///
/// The counts walked are packed 16 bits an outcome, one add a round. A game
/// of 4ⁿ ≤ 4096 states meets the tortoise before round 3·4096 and then
/// walks fewer than 4096 rounds more, so no field can carry.
fn counts_by_brent(mask: u32, rounds: u32, moves: impl Fn(u32, u32) -> (u32, u32)) -> Counts {
    let field = |packed: u64, i: usize| packed >> (16 * i) & 0xffff;
    let mut walked = 0u64;
    let mut walk = Walk::START;
    let (mut tortoise, mut at_tortoise) = (0, 0);
    let (mut power, mut len) = (1, 0);
    let mut r = 0;
    while r < rounds {
        if len == power {
            (tortoise, at_tortoise) = (walk.state_a, walked);
            power *= 2;
            len = 0;
        }
        walked += 1 << (16 * walk.round(mask, &moves));
        (r, len) = (r + 1, len + 1);
        if walk.state_a == tortoise {
            let left = rounds - r;
            let (full, part) = (u64::from(left / len), left % len);
            let cycle = walked - at_tortoise;
            let mut tail = 0;
            for _ in 0..part {
                tail += 1 << (16 * walk.round(mask, &moves));
            }
            return std::array::from_fn(|i| field(walked, i) + full * field(cycle, i) + field(tail, i));
        }
    }
    std::array::from_fn(|i| field(walked, i))
}

/// Play a deterministic game paid out from its **cycle**: a noiseless game
/// between pure strategies is a walk on A's `4^n` state ids (`Walk`), so it
/// is eventually periodic — a memory-one game repeats a state within five
/// rounds. The kernel finds the cycle, counts the four outcomes over the
/// prefix, the whole cycles and the remainder as integers, and converts the
/// counts to payoffs once. It allocates nothing and keeps no table: Brent's
/// detection needs one remembered state.
///
/// The payout is taken only where it equals the round-by-round `f64` sums
/// to the bit ([`PayoffMatrix::pays_exactly`]); any other game is played
/// round by round through [`play_deterministic_lanes`]. So the result is
/// [`play_deterministic`]'s for **every** matrix, by construction, and the
/// `obs` counters count the game's rounds as if every one were simulated.
/// This is the shape of fine-grained optimisation the paper's future-work
/// section anticipates for accelerator ports.
pub fn play_deterministic_cycle(
    space: &StateSpace,
    a: &PureStrategy,
    b: &PureStrategy,
    config: &GameConfig,
) -> GameOutcome {
    let [outcome] = play_deterministic_cycles(space, a, [b], config);
    outcome
}

/// [`play_deterministic_cycle`] for one focal pure strategy against `K`
/// opponents — game `k` is `focal` (player A) against `opponents[k]` — with
/// one `obs` flush for the `K` games, as [`play_deterministic_lanes`]
/// (which plays them where the cycle payout is not exact).
pub fn play_deterministic_cycles<const K: usize>(
    space: &StateSpace,
    focal: &PureStrategy,
    opponents: [&PureStrategy; K],
    config: &GameConfig,
) -> [GameOutcome; K] {
    if !config.payoff.pays_exactly(config.rounds) {
        return play_deterministic_lanes(space, focal, opponents, config);
    }
    debug_assert_eq!(focal.space(), space);
    debug_assert!(opponents.iter().all(|o| o.space() == space));
    let (mask, rounds) = (space.mask() as u32, config.rounds);
    let mut outcomes = [GameOutcome::from_counts(&config.payoff, [0; 4], 0); K];
    for (outcome, opponent) in outcomes.iter_mut().zip(opponents) {
        // Up to memory three a table is one word, read from a register, as
        // in the lanes.
        let counts = if space.num_states() <= 64 {
            let (a, b) = (focal.words()[0], opponent.words()[0]);
            counts_by_brent(mask, rounds, move |sa, sb| (word_bit(a, sa), word_bit(b, sb)))
        } else {
            let (a, b) = (focal.words(), opponent.words());
            counts_by_brent(mask, rounds, move |sa, sb| (move_bit(a, sa), move_bit(b, sb)))
        };
        *outcome = GameOutcome::from_counts(&config.payoff, counts, rounds);
    }
    obs::counters().add_games(K as u64, rounds);
    outcomes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classic;
    use rand::{RngCore, SeedableRng};
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

    /// The round body the kernels had before they shared `Lane::step`,
    /// kept as an independent oracle: `Move`s, `PayoffMatrix::payoffs` and
    /// `StateSpace::advance`, nothing of the step or its move bits.
    fn oracle<R: Rng + ?Sized>(
        space: &StateSpace,
        a: &Strategy,
        b: &Strategy,
        config: &GameConfig,
        rng: &mut R,
    ) -> (Vec<(Move, Move)>, GameOutcome) {
        let mut state_a = space.initial_state();
        let mut state_b = space.initial_state();
        let mut moves = Vec::new();
        let mut out = GameOutcome {
            fitness_a: 0.0,
            fitness_b: 0.0,
            coop_a: 0,
            coop_b: 0,
            rounds: config.rounds,
        };
        for _ in 0..config.rounds {
            let mut move_a = a.decide(state_a, rng);
            let mut move_b = b.decide(state_b, rng);
            if config.noise > 0.0 {
                if rng.random::<f64>() < config.noise {
                    move_a = move_a.flipped();
                }
                if rng.random::<f64>() < config.noise {
                    move_b = move_b.flipped();
                }
            }
            let (pa, pb) = config.payoff.payoffs(move_a, move_b);
            out.fitness_a += pa;
            out.fitness_b += pb;
            out.coop_a += move_a.is_cooperate() as u32;
            out.coop_b += move_b.is_cooperate() as u32;
            moves.push((move_a, move_b));
            state_a = space.advance(state_a, move_a, move_b);
            state_b = space.advance(state_b, move_b, move_a);
        }
        (moves, out)
    }

    fn assert_same_bits(got: &GameOutcome, want: &GameOutcome, ctx: &str) {
        assert_eq!(got.fitness_a.to_bits(), want.fitness_a.to_bits(), "{ctx}: fitness_a");
        assert_eq!(got.fitness_b.to_bits(), want.fitness_b.to_bits(), "{ctx}: fitness_b");
        assert_eq!(got, want, "{ctx}");
    }

    /// The default matrix, a weak dilemma with a fractional temptation, a
    /// donation game with a negative sucker's payoff, and an integral one
    /// with no positive entry, whose zero-scoring games must sum to +0.0.
    fn payoffs() -> [PayoffMatrix; 4] {
        [
            PayoffMatrix::default(),
            PayoffMatrix::from_rstp(1.0, 0.0, 1.85, 0.0),
            PayoffMatrix::donation(2.0, 0.3),
            PayoffMatrix::from_rstp(-3.0, -0.0, -1.0, -2.0),
        ]
    }

    proptest::proptest! {
        /// Every lane of every group width is the oracle's game to the bit.
        #[test]
        fn lanes_match_the_oracle(seed in proptest::prelude::any::<u64>(), mem in 0usize..=6) {
            fn check<const K: usize>(space: &StateSpace, strats: &[PureStrategy], config: &GameConfig) {
                let opponents: [&PureStrategy; K] = std::array::from_fn(|k| &strats[k + 1]);
                let got = play_deterministic_lanes(space, &strats[0], opponents, config);
                let mut unused = ChaCha8Rng::seed_from_u64(0);
                let focal = Strategy::Pure(strats[0].clone());
                for (k, lane) in got.iter().enumerate() {
                    let opp = Strategy::Pure(opponents[k].clone());
                    let (_, want) = oracle(space, &focal, &opp, config, &mut unused);
                    let ctx = format!("memory-{} {} rounds K={K} lane {k} {:?}", space.mem_steps(), config.rounds, config.payoff);
                    assert_same_bits(lane, &want, &ctx);
                }
            }
            let space = sp(mem);
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let strats: Vec<PureStrategy> = (0..5).map(|_| PureStrategy::random(space, &mut rng)).collect();
            for payoff in payoffs() {
                for rounds in [0u32, 1, 7, 200] {
                    let config = GameConfig { rounds, noise: 0.0, payoff };
                    check::<1>(&space, &strats, &config);
                    check::<2>(&space, &strats, &config);
                    check::<3>(&space, &strats, &config);
                    check::<4>(&space, &strats, &config);
                    let single = play_deterministic(&space, &strats[0], &strats[1], &config);
                    let [lane] = play_deterministic_lanes(&space, &strats[0], [&strats[1]], &config);
                    assert_same_bits(&single, &lane, "play_deterministic is the one-lane case");
                }
            }
        }

        /// `play` is the oracle's game — outcome and the position it leaves
        /// the RNG at — for pure and mixed strategies, with and without
        /// noise.
        #[test]
        fn sampled_kernels_match_the_oracle(seed in proptest::prelude::any::<u64>(), mem in 0usize..=6) {
            let space = sp(mem);
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let pure = |rng: &mut ChaCha8Rng| Strategy::Pure(PureStrategy::random(space, rng));
            let mixed = |rng: &mut ChaCha8Rng| Strategy::Mixed(crate::strategy::MixedStrategy::random(space, rng));
            let pairs = [
                (pure(&mut rng), pure(&mut rng)),
                (mixed(&mut rng), mixed(&mut rng)),
                (pure(&mut rng), mixed(&mut rng)),
            ];
            for (a, b) in &pairs {
                for noise in [0.0, 0.05] {
                    for payoff in payoffs() {
                        let config = GameConfig { rounds: 60, noise, payoff };
                        let ctx = format!("memory-{mem} noise {noise} {payoff:?}");
                        let mut want_rng = ChaCha8Rng::seed_from_u64(seed ^ 1);
                        let (_, want) = oracle(&space, a, b, &config, &mut want_rng);
                        let want_next = want_rng.next_u64();

                        let mut play_rng = ChaCha8Rng::seed_from_u64(seed ^ 1);
                        assert_same_bits(&play(&space, a, b, &config, &mut play_rng), &want, &ctx);
                        assert_eq!(play_rng.next_u64(), want_next, "{ctx}: play's RNG position");
                    }
                }
            }
        }
    }

    #[test]
    fn allc_vs_allc_scores_reward_every_round() {
        let s = sp(1);
        let o = play_deterministic(&s, &classic::all_c(&s), &classic::all_c(&s), &cfg(200));
        assert_eq!(o.fitness_a, 600.0);
        assert_eq!(o.fitness_b, 600.0);
        assert_eq!(o.coop_a, 200);
        assert_eq!(o.cooperation_rate(), 1.0);
    }

    #[test]
    fn alld_exploits_allc() {
        let s = sp(1);
        let o = play_deterministic(&s, &classic::all_d(&s), &classic::all_c(&s), &cfg(200));
        assert_eq!(o.fitness_a, 800.0); // T every round
        assert_eq!(o.fitness_b, 0.0); // S every round
        assert_eq!(o.coop_a, 0);
        assert_eq!(o.coop_b, 200);
    }

    #[test]
    fn tft_vs_alld_loses_only_first_round() {
        let s = sp(1);
        let o = play_deterministic(&s, &classic::tft(&s), &classic::all_d(&s), &cfg(200));
        // Round 1: TFT cooperates (initial view all-C), gets S=0; opponent T=4.
        // Thereafter mutual defection: P=1 each.
        assert_eq!(o.fitness_a, 199.0);
        assert_eq!(o.fitness_b, 4.0 + 199.0);
        assert_eq!(o.coop_a, 1);
    }

    #[test]
    fn tft_vs_tft_sustains_cooperation() {
        let s = sp(1);
        let o = play_deterministic(&s, &classic::tft(&s), &classic::tft(&s), &cfg(100));
        assert_eq!(o.cooperation_rate(), 1.0);
        assert_eq!(o.fitness_a, 300.0);
    }

    #[test]
    fn wsls_vs_alld_alternates() {
        // WSLS vs ALLD: WSLS plays C (S, shift to D), D (P, shift to C),
        // C, D, ... — alternating C/D.
        let s = sp(1);
        let o = play_deterministic(&s, &classic::wsls(&s), &classic::all_d(&s), &cfg(200));
        assert_eq!(o.coop_a, 100);
        assert_eq!(o.fitness_a, 100.0 * 0.0 + 100.0 * 1.0);
        assert_eq!(o.fitness_b, 100.0 * 4.0 + 100.0 * 1.0);
    }

    #[test]
    fn outcome_is_symmetric_under_player_swap() {
        let s = sp(2);
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        for _ in 0..20 {
            let a = crate::strategy::PureStrategy::random(s, &mut rng);
            let b = crate::strategy::PureStrategy::random(s, &mut rng);
            let ab = play_deterministic(&s, &a, &b, &cfg(50));
            let ba = play_deterministic(&s, &b, &a, &cfg(50));
            assert_eq!(ab.swapped(), ba);
        }
    }

    #[test]
    fn stochastic_play_matches_deterministic_for_pure_strategies() {
        let s = sp(3);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for _ in 0..10 {
            let a = crate::strategy::PureStrategy::random(s, &mut rng);
            let b = crate::strategy::PureStrategy::random(s, &mut rng);
            let det = play_deterministic(&s, &a, &b, &cfg(64));
            let gen = play(
                &s,
                &Strategy::Pure(a.clone()),
                &Strategy::Pure(b.clone()),
                &cfg(64),
                &mut rng,
            );
            assert_eq!(det, gen);
        }
    }

    #[test]
    fn linear_scan_lookup_gives_identical_results() {
        let s = sp(2);
        let table = StateTable::new(s);
        let mut rng1 = ChaCha8Rng::seed_from_u64(99);
        let mut rng2 = ChaCha8Rng::seed_from_u64(99);
        let a = Strategy::Pure(classic::wsls(&s));
        let b = Strategy::Mixed(classic::gtft(&s, &PayoffMatrix::default()));
        let fast = play_with_lookup(&s, &a, &b, &cfg(100), StateLookup::Rolling, &mut rng1);
        let slow =
            play_with_lookup(&s, &a, &b, &cfg(100), StateLookup::LinearScan(&table), &mut rng2);
        assert_eq!(fast, slow);
    }

    #[test]
    fn noise_breaks_tft_cooperation() {
        // The paper: an accidental defection is "fatal" for TFT pairs. With
        // noise, TFT vs TFT must score below mutual-cooperation level.
        let s = sp(1);
        let t = Strategy::Pure(classic::tft(&s));
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let noisy = GameConfig {
            rounds: 200,
            noise: 0.05,
            ..GameConfig::default()
        };
        let o = play(&s, &t, &t, &noisy, &mut rng);
        assert!(o.cooperation_rate() < 0.95, "rate {}", o.cooperation_rate());
    }

    #[test]
    fn wsls_recovers_from_noise_better_than_tft() {
        // Nowak & Sigmund [11]: WSLS outperforms TFT under errors. Compare
        // self-play mean fitness under 2% noise across many games.
        let s = sp(1);
        let noisy = GameConfig {
            rounds: 200,
            noise: 0.02,
            ..GameConfig::default()
        };
        let wsls = Strategy::Pure(classic::wsls(&s));
        let tft = Strategy::Pure(classic::tft(&s));
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let games = 200;
        let mut wsls_total = 0.0;
        let mut tft_total = 0.0;
        for _ in 0..games {
            wsls_total += play(&s, &wsls, &wsls, &noisy, &mut rng).fitness_a;
            tft_total += play(&s, &tft, &tft, &noisy, &mut rng).fitness_a;
        }
        assert!(
            wsls_total > tft_total,
            "WSLS self-play {wsls_total} should beat TFT self-play {tft_total} under noise"
        );
    }

    #[test]
    fn zero_rounds_yields_zero_fitness() {
        let s = sp(1);
        let o = play_deterministic(&s, &classic::all_c(&s), &classic::all_d(&s), &cfg(0));
        assert_eq!(o.fitness_a, 0.0);
        assert_eq!(o.fitness_b, 0.0);
        assert_eq!(o.rounds, 0);
    }

    #[test]
    fn memory_zero_strategies_play_constant_moves() {
        let s = sp(0);
        let o = play_deterministic(&s, &classic::all_d(&s), &classic::all_c(&s), &cfg(10));
        assert_eq!(o.fitness_a, 40.0);
        assert_eq!(o.fitness_b, 0.0);
    }

    #[test]
    fn mean_fitness_helpers() {
        let s = sp(1);
        let o = play_deterministic(&s, &classic::all_c(&s), &classic::all_c(&s), &cfg(200));
        assert_eq!(o.mean_fitness_a(), 3.0);
        assert_eq!(o.mean_fitness_b(), 3.0);
    }

    #[test]
    fn oracle_shows_wsls_alternation_vs_alld() {
        let s = sp(1);
        let wsls = Strategy::Pure(classic::wsls(&s));
        let alld = Strategy::Pure(classic::all_d(&s));
        let (moves, _) = oracle(&s, &wsls, &alld, &cfg(10), &mut ChaCha8Rng::seed_from_u64(0));
        // WSLS alternates C, D, C, D, ... against a constant defector.
        let expect: Vec<(Move, Move)> = (0..10)
            .map(|i| (if i % 2 == 0 { Move::Cooperate } else { Move::Defect }, Move::Defect))
            .collect();
        assert_eq!(moves, expect);
    }

    #[test]
    fn oracle_shows_tft_echoing_alld() {
        // ALLD vs TFT: the sucker round, then locked mutual defection —
        // the unbroken echo that §III-E warns about.
        let s = sp(1);
        let alld = Strategy::Pure(classic::all_d(&s));
        let tft = Strategy::Pure(classic::tft(&s));
        let (moves, _) = oracle(&s, &alld, &tft, &cfg(20), &mut ChaCha8Rng::seed_from_u64(0));
        assert_eq!(moves[0], (Move::Defect, Move::Cooperate));
        assert_eq!(moves[1..], [(Move::Defect, Move::Defect); 19]);
    }

    #[test]
    fn cycle_kernel_matches_naive_for_classics() {
        let s = sp(1);
        let cfg200 = cfg(200);
        for (na, a) in classic::roster(&s) {
            for (nb, b) in classic::roster(&s) {
                assert_same_bits(
                    &play_deterministic_cycle(&s, &a, &b, &cfg200),
                    &play_deterministic(&s, &a, &b, &cfg200),
                    &format!("{na} vs {nb}"),
                );
            }
        }
    }

    /// Every group width of the cycle kernel, every depth, every matrix
    /// (the fractional ones through the lanes), against the oracle.
    #[test]
    fn cycle_kernel_matches_the_oracle_at_every_group_width() {
        fn check<const K: usize>(space: &StateSpace, strats: &[PureStrategy], config: &GameConfig) {
            let opponents: [&PureStrategy; K] = std::array::from_fn(|k| &strats[k + 1]);
            let got = play_deterministic_cycles(space, &strats[0], opponents, config);
            let focal = Strategy::Pure(strats[0].clone());
            for (k, game) in got.iter().enumerate() {
                let opp = Strategy::Pure(opponents[k].clone());
                let (_, want) = oracle(space, &focal, &opp, config, &mut ChaCha8Rng::seed_from_u64(0));
                let ctx = format!("memory-{} {} rounds K={K} game {k} {:?}", space.mem_steps(), config.rounds, config.payoff);
                assert_same_bits(game, &want, &ctx);
            }
        }
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        for mem in 0..=6 {
            let s = sp(mem);
            for _ in 0..4 {
                let strats: Vec<PureStrategy> = (0..5).map(|_| PureStrategy::random(s, &mut rng)).collect();
                for payoff in payoffs() {
                    for rounds in [0u32, 1, 7, 50, 200, 1_000] {
                        let config = GameConfig { rounds, noise: 0.0, payoff };
                        check::<1>(&s, &strats, &config);
                        check::<3>(&s, &strats, &config);
                        check::<4>(&s, &strats, &config);
                    }
                }
            }
        }
    }

    #[test]
    fn cycle_kernel_handles_million_round_games() {
        // The arithmetic payout makes absurdly long games cheap.
        let s = sp(1);
        let long = cfg(1_000_000);
        let o = play_deterministic_cycle(&s, &classic::wsls(&s), &classic::all_d(&s), &long);
        // WSLS vs ALLD alternates C/D: half sucker, half punishment.
        assert_eq!(o.fitness_a, 500_000.0);
        assert_eq!(o.fitness_b, 2_500_000.0);
        assert_eq!(o.coop_a, 500_000);
    }

    #[test]
    fn memory_six_deterministic_game_runs() {
        let s = sp(6);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let a = crate::strategy::PureStrategy::random(s, &mut rng);
        let b = crate::strategy::PureStrategy::random(s, &mut rng);
        let o = play_deterministic(&s, &a, &b, &cfg(200));
        assert_eq!(o.rounds, 200);
        let max = 200.0 * 4.0;
        assert!(o.fitness_a <= max && o.fitness_b <= max);
    }
}
