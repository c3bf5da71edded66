//! Moves and the Prisoner's Dilemma payoff matrix (paper Table I).

use serde::{Deserialize, Serialize};

/// A single move in a Prisoner's Dilemma round.
///
/// Encoded per the paper's Table V: cooperation is `0`, defection is `1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[repr(u8)]
pub enum Move {
    /// Cooperate (`C`, bit value 0).
    Cooperate = 0,
    /// Defect (`D`, bit value 1).
    Defect = 1,
}

impl Move {
    /// The bit encoding of this move (C = 0, D = 1).
    #[inline]
    pub const fn bit(self) -> u8 {
        self as u8
    }

    /// Decode a move from its bit encoding. Any non-zero value decodes to
    /// [`Move::Defect`], mirroring the paper's 0/1 convention.
    #[inline]
    pub const fn from_bit(bit: u8) -> Self {
        if bit == 0 {
            Move::Cooperate
        } else {
            Move::Defect
        }
    }

    /// The opposite move; used to model execution errors (paper §III-E: an
    /// error "leads a player to make the opposite move than the one defined
    /// by its strategy").
    #[inline]
    pub const fn flipped(self) -> Self {
        match self {
            Move::Cooperate => Move::Defect,
            Move::Defect => Move::Cooperate,
        }
    }

    /// `true` if this move is cooperation.
    #[inline]
    pub const fn is_cooperate(self) -> bool {
        matches!(self, Move::Cooperate)
    }

    /// Single-character label used in rendered tables: `C` or `D`.
    #[inline]
    pub const fn label(self) -> char {
        match self {
            Move::Cooperate => 'C',
            Move::Defect => 'D',
        }
    }
}

impl std::fmt::Display for Move {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// The taxonomy of symmetric 2×2 games by payoff ordering. The engine is
/// game-agnostic — swap the matrix and the same machinery evolves
/// snowdrift or stag-hunt populations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GameClass {
    /// `T > R > P > S`: defection dominates, mutual cooperation optimal.
    PrisonersDilemma,
    /// `T > R > S > P`: best to do the opposite of your opponent.
    Snowdrift,
    /// `R > T ≥ P > S`: coordination with payoff- vs risk-dominance.
    StagHunt,
    /// `R > T`, `S > P`: cooperation dominates — no dilemma.
    Harmony,
    /// `T > P > R > S`: mutual defection is actually preferred.
    Deadlock,
    /// Any other ordering (ties, degenerate games).
    Other,
}

/// The two-player Prisoner's Dilemma payoff matrix (paper Table I).
///
/// Payoffs are from the perspective of the row player ("Agent"):
///
/// | Agent \ Opponent | C | D |
/// |------------------|---|---|
/// | **C**            | R | S |
/// | **D**            | T | P |
///
/// The paper (and our defaults) use `f[R,S,T,P] = [3,0,4,1]`, which
/// satisfies the PD ordering `T > R > P > S`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PayoffMatrix {
    /// Reward for mutual cooperation.
    pub reward: f64,
    /// Sucker's payoff: you cooperated, the opponent defected.
    pub sucker: f64,
    /// Temptation: you defected, the opponent cooperated.
    pub temptation: f64,
    /// Punishment for mutual defection.
    pub punishment: f64,
}

impl Default for PayoffMatrix {
    /// The paper's standard payoff values `[R,S,T,P] = [3,0,4,1]` (§V-C).
    fn default() -> Self {
        PayoffMatrix {
            reward: 3.0,
            sucker: 0.0,
            temptation: 4.0,
            punishment: 1.0,
        }
    }
}

impl PayoffMatrix {
    /// Construct a payoff matrix from `[R, S, T, P]` in the paper's order.
    pub const fn from_rstp(r: f64, s: f64, t: f64, p: f64) -> Self {
        PayoffMatrix {
            reward: r,
            sucker: s,
            temptation: t,
            punishment: p,
        }
    }

    /// The canonical "donation game" matrix with benefit `b` and cost `c`
    /// (`b > c > 0`): R = b − c, S = −c, T = b, P = 0. Provided for
    /// experiments beyond the paper's fixed matrix.
    pub const fn donation(b: f64, c: f64) -> Self {
        PayoffMatrix {
            reward: b - c,
            sucker: -c,
            temptation: b,
            punishment: 0.0,
        }
    }

    /// The snowdrift (hawk-dove / chicken) game with benefit `b` and
    /// shared cost `c` (`b > c > 0`): R = b − c/2, S = b − c, T = b, P = 0.
    /// Unlike the PD, cooperating against a defector still beats mutual
    /// defection — which changes the evolutionary outcome qualitatively.
    pub const fn snowdrift(b: f64, c: f64) -> Self {
        PayoffMatrix {
            reward: b - c / 2.0,
            sucker: b - c,
            temptation: b,
            punishment: 0.0,
        }
    }

    /// The stag hunt with stag payoff `s` and hare payoff `h`
    /// (`s > h > 0`): R = s, S = 0, T = h, P = h — a coordination game
    /// with a payoff-dominant and a risk-dominant equilibrium.
    pub const fn stag_hunt(s: f64, h: f64) -> Self {
        PayoffMatrix {
            reward: s,
            sucker: 0.0,
            temptation: h,
            punishment: h,
        }
    }

    /// Classify the 2×2 symmetric game by its payoff ordering.
    pub fn classify(&self) -> GameClass {
        let (r, s, t, p) = (self.reward, self.sucker, self.temptation, self.punishment);
        if t > r && r > p && p > s {
            GameClass::PrisonersDilemma
        } else if t > r && r > s && s > p {
            GameClass::Snowdrift
        } else if r > t && t >= p && p > s {
            GameClass::StagHunt
        } else if r > t && s > p {
            GameClass::Harmony
        } else if t > p && p > r && r > s {
            GameClass::Deadlock
        } else {
            GameClass::Other
        }
    }

    /// Payoff to the focal player when they play `mine` and the opponent
    /// plays `theirs`.
    #[inline]
    pub fn payoff(&self, mine: Move, theirs: Move) -> f64 {
        match (mine, theirs) {
            (Move::Cooperate, Move::Cooperate) => self.reward,
            (Move::Cooperate, Move::Defect) => self.sucker,
            (Move::Defect, Move::Cooperate) => self.temptation,
            (Move::Defect, Move::Defect) => self.punishment,
        }
    }

    /// Payoffs to both players for a round: `(payoff_a, payoff_b)` where
    /// player A played `a` and player B played `b`.
    #[inline]
    pub fn payoffs(&self, a: Move, b: Move) -> (f64, f64) {
        (self.payoff(a, b), self.payoff(b, a))
    }

    /// `true` if the matrix satisfies the strict Prisoner's Dilemma ordering
    /// `T > R > P > S` under which defection dominates single-shot play
    /// (paper §III-A).
    pub fn is_prisoners_dilemma(&self) -> bool {
        self.temptation > self.reward
            && self.reward > self.punishment
            && self.punishment > self.sucker
    }

    /// `true` if mutual cooperation beats alternating exploitation, i.e.
    /// `2R > T + S` — the standard extra IPD condition ensuring cooperation
    /// is collectively optimal in repeated play.
    pub fn rewards_mutual_cooperation(&self) -> bool {
        2.0 * self.reward > self.temptation + self.sucker
    }

    /// The payoffs as `[R, S, T, P]` in the paper's order.
    pub fn as_rstp(&self) -> [f64; 4] {
        [self.reward, self.sucker, self.temptation, self.punishment]
    }

    /// `true` if a game of `rounds` rounds paid out from its *outcome
    /// counts* — `n_CC·R + n_CD·S + n_DC·T + n_DD·P`, added from `+0.0` —
    /// gives the round-by-round `f64` sums to the bit: every payoff is an
    /// integer of magnitude at most 2⁵³ and `max|p| · rounds ≤ 2⁵³`. Every
    /// partial sum, product and sum of products on either side is then an
    /// integer no larger than 2⁵³ in magnitude, so no operation rounds, and
    /// an exact zero is `+0.0` on both. This is the soundness condition for
    /// the kernels that count outcomes (the word-parallel batch in
    /// `ipd::batch`, the cycle payout in `ipd::game`). The paper's
    /// `[3,0,4,1]` matrix qualifies at every `u32` game length.
    pub fn pays_exactly(&self, rounds: u32) -> bool {
        const EXACT: u64 = 1 << 53;
        self.as_rstp().iter().all(|&p| {
            // |p| is an integer iff it survives the round trip through u64
            // (`as` saturates, NaN goes to 0; no libm `trunc` call per entry).
            let m = p.abs() as u64;
            m as f64 == p.abs() && m <= EXACT && m.checked_mul(rounds.into()).is_some_and(|total| total <= EXACT)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn move_bit_roundtrip() {
        assert_eq!(Move::from_bit(Move::Cooperate.bit()), Move::Cooperate);
        assert_eq!(Move::from_bit(Move::Defect.bit()), Move::Defect);
        assert_eq!(Move::Cooperate.bit(), 0);
        assert_eq!(Move::Defect.bit(), 1);
    }

    #[test]
    fn move_flip_is_involution() {
        assert_eq!(Move::Cooperate.flipped(), Move::Defect);
        assert_eq!(Move::Defect.flipped(), Move::Cooperate);
        assert_eq!(Move::Cooperate.flipped().flipped(), Move::Cooperate);
    }

    #[test]
    fn move_labels() {
        assert_eq!(Move::Cooperate.label(), 'C');
        assert_eq!(Move::Defect.label(), 'D');
        assert_eq!(Move::Cooperate.to_string(), "C");
    }

    #[test]
    fn default_matrix_matches_paper() {
        let m = PayoffMatrix::default();
        assert_eq!(m.as_rstp(), [3.0, 0.0, 4.0, 1.0]);
        assert!(m.is_prisoners_dilemma());
        assert!(m.rewards_mutual_cooperation());
    }

    #[test]
    fn payoff_lookup_matches_table_one() {
        let m = PayoffMatrix::default();
        assert_eq!(m.payoff(Move::Cooperate, Move::Cooperate), 3.0); // R
        assert_eq!(m.payoff(Move::Cooperate, Move::Defect), 0.0); // S
        assert_eq!(m.payoff(Move::Defect, Move::Cooperate), 4.0); // T
        assert_eq!(m.payoff(Move::Defect, Move::Defect), 1.0); // P
    }

    #[test]
    fn payoffs_are_symmetric_under_swap() {
        let m = PayoffMatrix::default();
        for &a in &[Move::Cooperate, Move::Defect] {
            for &b in &[Move::Cooperate, Move::Defect] {
                let (pa, pb) = m.payoffs(a, b);
                let (qb, qa) = m.payoffs(b, a);
                assert_eq!(pa, qa);
                assert_eq!(pb, qb);
            }
        }
    }

    #[test]
    fn donation_game_ordering() {
        let m = PayoffMatrix::donation(2.0, 1.0);
        assert!(m.is_prisoners_dilemma());
        assert_eq!(m.payoff(Move::Cooperate, Move::Cooperate), 1.0);
        assert_eq!(m.payoff(Move::Defect, Move::Cooperate), 2.0);
    }

    #[test]
    fn game_classification_by_ordering() {
        assert_eq!(PayoffMatrix::default().classify(), GameClass::PrisonersDilemma);
        assert_eq!(
            PayoffMatrix::snowdrift(4.0, 2.0).classify(),
            GameClass::Snowdrift
        );
        assert_eq!(
            PayoffMatrix::stag_hunt(4.0, 2.0).classify(),
            GameClass::StagHunt
        );
        assert_eq!(
            PayoffMatrix::from_rstp(5.0, 2.0, 3.0, 1.0).classify(),
            GameClass::Harmony
        );
        assert_eq!(
            PayoffMatrix::from_rstp(2.0, 0.0, 4.0, 3.0).classify(),
            GameClass::Deadlock
        );
        assert_eq!(
            PayoffMatrix::from_rstp(1.0, 1.0, 1.0, 1.0).classify(),
            GameClass::Other
        );
    }

    #[test]
    fn snowdrift_cooperating_against_defector_beats_mutual_defection() {
        let m = PayoffMatrix::snowdrift(4.0, 2.0);
        assert!(m.payoff(Move::Cooperate, Move::Defect) > m.payoff(Move::Defect, Move::Defect));
        assert!(!m.is_prisoners_dilemma());
    }

    #[test]
    fn count_payout_is_exact_only_while_every_sum_fits_53_bits() {
        let m = PayoffMatrix::default();
        assert!(m.pays_exactly(0) && m.pays_exactly(200) && m.pays_exactly(u32::MAX));
        // Fractional entries never qualify, however short the game.
        assert!(!PayoffMatrix::from_rstp(1.0, 0.0, 1.85, 0.0).pays_exactly(1));
        assert!(!PayoffMatrix::donation(2.0, 0.3).pays_exactly(200));
        for bad in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            assert!(!PayoffMatrix::from_rstp(3.0, 0.0, bad, 1.0).pays_exactly(1));
        }
        // Negative entries and -0.0 are integral; the bound is on |p|.
        let neg = PayoffMatrix::from_rstp(-3.0, -0.0, -1.0, -2.0);
        assert!(neg.pays_exactly(1000));
        // The bound is max|p| · rounds ≤ 2^53, exactly.
        let big = |p: f64| PayoffMatrix::from_rstp(p, 0.0, 1.0, -p);
        assert!(big(2f64.powi(43)).pays_exactly(1 << 10));
        assert!(!big(2f64.powi(43)).pays_exactly((1 << 10) + 1));
        assert!(big(2f64.powi(53)).pays_exactly(1));
        assert!(!big(2f64.powi(53)).pays_exactly(2));
        // 3 · (2^53 + 1) / 3 is 2^53 + 1, which the f64 product rounds
        // down to 2^53: a gate that multiplied in f64 would let it through.
        let third = 3_002_399_751_580_331.0;
        assert_eq!(third * 3.0, 2f64.powi(53));
        assert!(!big(third).pays_exactly(3));
        // Entries of 2^32, which the old gate accepted at any length.
        assert!(!big(2f64.powi(32)).pays_exactly(u32::MAX));
        assert!(!big(2f64.powi(54)).pays_exactly(0));
    }

    #[test]
    fn non_pd_matrix_detected() {
        // Reward exceeds temptation: a harmony game, not a PD.
        let m = PayoffMatrix::from_rstp(5.0, 0.0, 4.0, 1.0);
        assert!(!m.is_prisoners_dilemma());
    }
}
