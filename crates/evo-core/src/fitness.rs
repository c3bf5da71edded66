//! Game dynamics: per-generation fitness evaluation (paper §IV-A, §V-A).
//!
//! Each generation, every SSet's strategy is measured against every strategy
//! assigned to any SSet — `s²` iterated games. These games are independent,
//! so this phase "is easily parallelized … and does not require any
//! communication".
//!
//! Every game in the engine — well-mixed or on a lattice, shared-memory or
//! on a rank — goes through one primitive, [`PairPayoff`]: it alone decides
//! whether an ordered pair is *deterministic* (both pure, zero noise) and
//! may be replayed from the kernel or the [`PayoffCache`], or must be
//! played from its own counter-based stream. It is also the only code that
//! touches the cache, and it does so through one per-thread probe session
//! per evaluation (one read lock and one counter flush for all of an
//! evaluation's probes, the read lock dropped before any write; on the
//! lattice one session per worker's block of cells, with a pair memo in
//! front of the cache, `MemoSession`), in three shapes:
//! [`PairPayoff::sampled`] probes and inserts one pair,
//! [`PairPayoff::evaluate_distinct`] probes a batch, replays the misses
//! together and inserts them (a fixation replicate's `PairTable` probes
//! its pair's four payoffs so, once per replicate), [`PairPayoff::prewarm`]
//! inserts without probing. Three evaluators are built on it:
//! [`PairPayoff::evaluate_naive`] (the paper's schedule, uncached),
//! [`PairPayoff::evaluate_one`] (one focal SSet — what a rank owns) and
//! [`PairPayoff::evaluate_distinct`] (each distinct ordered pair once,
//! weighted by multiplicity). The distinct strategies and multiplicities
//! are a [`Census`] the caller takes once per generation; the weighted rows
//! go back to the SSets through it ([`Census::spread`]). One function,
//! [`PairPayoff::evaluate_rows`], picks among them for both well-mixed
//! backends and alone reads and writes the caller's [`TableMemo`]. Which
//! evaluator runs when, what is cached and what is probed is stated once,
//! in docs/PERFORMANCE.md §2.
//!
//! Deterministic games that have to be played are played a *group* at a
//! time: one focal strategy against up to `LANES` opponents, in one place
//! (`PairPayoff::play_group`), through one kernel, whatever the setting:
//! [`play_deterministic_cycles`] pays each game out from its cycle (the
//! walk to A's first repeated state, integer outcome counts, one payout)
//! wherever that payout is the round-by-round sum to the bit (an integral
//! matrix, every sum within 2⁵³), and plays the group in lockstep lanes
//! ([`ipd::game::play_deterministic_lanes`]) everywhere else. Both give the same bits,
//! and both count every scheduled game and all its rounds in
//! `games_played` / `rounds_simulated`, once per group.
//! [`PairPayoff::evaluate_one`] walks its opponents in such groups — probe,
//! play the group's misses together, add in SSet order, insert — with or
//! without a cache, and [`PairPayoff::evaluate_distinct`] replays its
//! misses in them, one row's at a time.

use crate::paycache::{pair_key, PayoffCache, PayoffKind, Reader};
use crate::pool::{census, Census, StratId, StrategyPool};
use crate::rngstream::game_stream;
use ipd::game::{play, play_deterministic_cycles, GameConfig, GameOutcome};
use ipd::markov::expected_outcome;
use ipd::state::StateSpace;
use ipd::strategy::{PureStrategy, Strategy};
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// A schedule choice that no longer exists. The schedule follows from the
/// input: every evaluation maps its rows and its miss replays through
/// rayon, which runs them on the calling thread at one worker and for ≤ 1
/// item. Read by nothing: the ledger's traced
/// replay still names `ExecMode::Rayon` in the `LocalProvider` struct
/// literal it builds (ROADMAP item 1 re-pins that surface; item 2 deletes
/// this enum with the other knob fields).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExecMode {
    /// The only value.
    Rayon,
}

/// When fitness is computed within the generation loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FitnessPolicy {
    /// Every generation, as the paper's SSet pseudocode does (§IV-D).
    EveryGeneration,
    /// Only in generations where the Nature Agent actually initiates a
    /// pairwise comparison — an extension that skips unused work (the PC
    /// rate in the scaling studies is 1%, so 99% of evaluations go unread).
    OnDemand,
}

/// Deterministic games of one focal strategy evaluated as one group. Fixed
/// by measurement, not a setting: the `game_kernel/lockstep` bench
/// (crates/bench/benches/game_kernel.rs; its table is in
/// docs/PERFORMANCE.md §1) has four lockstep lanes ahead of one and two at
/// every memory depth and never behind eight by more than the spread.
const LANES: usize = 4;
const _: () = assert!(LANES == 4, "PairPayoff::play_group spells out the partial groups of four lanes");

/// A kernel choice that no longer exists. Every deterministic group is
/// played by [`play_deterministic_cycles`], not by this setting; the
/// `kernel` fields that hold it are read by nothing. The ledger's traced
/// replay still names `GameKernel::Naive` in the provider struct literals
/// it builds (ROADMAP item 1 re-pins that surface; item 2 deletes this
/// enum with the other knob fields).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum GameKernel {
    /// The only value.
    #[default]
    Naive,
}

/// The focal payoff of one ordered strategy pair, and the evaluators built
/// on it. Borrowed over a run's tables for the length of one evaluation.
///
/// A pair is *deterministic* when both strategies are pure and the game is
/// noiseless: its payoff is then a pure function of the pair, identical
/// through every deterministic kernel (lockstep lanes, cycle payout,
/// word-parallel batch), and is memoised as [`PayoffKind::Sampled`]. Any
/// other pair draws from the stream its caller keys to the game and is
/// never cached. Exact expectations ([`PayoffKind::Expected`]) are
/// deterministic for every pair.
#[derive(Debug, Clone, Copy)]
pub struct PairPayoff<'a> {
    space: &'a StateSpace,
    pool: &'a StrategyPool,
    game: &'a GameConfig,
    cache: Option<&'a PayoffCache>,
}

impl<'a> PairPayoff<'a> {
    /// Bind the primitive to a run's tables. Panics if `cache` was built
    /// for a different `game` ([`PayoffCache::assert_game`]).
    pub fn new(
        space: &'a StateSpace,
        pool: &'a StrategyPool,
        game: &'a GameConfig,
        cache: Option<&'a PayoffCache>,
    ) -> Self {
        if let Some(c) = cache {
            c.assert_game(game);
        }
        PairPayoff {
            space,
            pool,
            game,
            cache,
        }
    }

    /// The strategy behind `id` if its games can be deterministic: it is
    /// pure and the game noiseless.
    #[inline]
    fn pure(&self, id: StratId) -> Option<&'a PureStrategy> {
        match self.pool.get(id).as_ref() {
            Strategy::Pure(p) if self.game.noise == 0.0 => Some(p),
            _ => None,
        }
    }

    /// The pair's pure strategies if its games are deterministic.
    #[inline]
    fn deterministic(&self, a: StratId, b: StratId) -> Option<(&'a PureStrategy, &'a PureStrategy)> {
        self.pure(a).zip(self.pure(b))
    }

    /// `true` when every pair among `ids` is deterministic — the soundness
    /// condition for deduplicating sampled games.
    pub fn all_deterministic(&self, ids: &[StratId]) -> bool {
        ids.iter().all(|&id| self.deterministic(id, id).is_some())
    }

    /// Focal payoffs of `focal` against up to [`LANES`] `opponents` (any
    /// further ones are not played: callers chunk by `LANES`), in order, in
    /// the leading elements of the result — the one place deterministic
    /// games are played: [`play_deterministic_cycles`] pays each out from
    /// its cycle where that is exact and plays the group in lockstep lanes
    /// where it is not. Every game is scheduled and counted either way;
    /// only how its rounds are evaluated differs.
    fn play_group<'s>(
        &self,
        focal: &'s PureStrategy,
        opponents: impl IntoIterator<Item = &'s PureStrategy>,
    ) -> [f64; LANES] {
        // Unused lanes hold the focal strategy and are never played.
        let mut lanes = [focal; LANES];
        let mut n = 0;
        for (lane, opponent) in lanes.iter_mut().zip(opponents) {
            *lane = opponent;
            n += 1;
        }
        let mut values = [0.0; LANES];
        let mut put = |played: &[GameOutcome]| {
            for (value, outcome) in values.iter_mut().zip(played) {
                *value = outcome.fitness_a;
            }
        };
        let (space, game) = (self.space, self.game);
        match lanes[..n] {
            [] => {}
            [a] => put(&play_deterministic_cycles(space, focal, [a], game)),
            [a, b] => put(&play_deterministic_cycles(space, focal, [a, b], game)),
            [a, b, c] => put(&play_deterministic_cycles(space, focal, [a, b, c], game)),
            // A full group: the partial ones are spelled out above.
            _ => put(&play_deterministic_cycles(space, focal, lanes, game)),
        }
        values
    }

    /// Play a pair that is not deterministic from `rng`, its game's own
    /// stream.
    fn play_stochastic(&self, a: StratId, b: StratId, mut rng: ChaCha8Rng) -> f64 {
        play(self.space, self.pool.get(a), self.pool.get(b), self.game, &mut rng).fitness_a
    }

    /// Focal payoff of the game `a` plays against `b`. A deterministic
    /// pair is served from the cache or replayed through the kernel;
    /// anything else is played once from `stream()`, the game's own
    /// `Domain::GamePlay` stream, which is opened only then.
    /// One call is a probe session of its own; an evaluation that asks for
    /// many pairs opens one session for all of them.
    #[inline]
    pub fn sampled(&self, a: StratId, b: StratId, stream: impl FnOnce() -> ChaCha8Rng) -> f64 {
        self.session().sampled(a, b, stream)
    }

    /// Open this thread's probe session for one evaluation.
    #[inline]
    pub(crate) fn session(&self) -> Session<'a> {
        Session {
            pairs: *self,
            reader: None,
            hits: 0,
            misses: 0,
        }
    }

    /// Open this thread's probe session for a walk over many cells, with a
    /// pair memo in front of the cache ([`MemoSession`]).
    #[inline]
    pub(crate) fn memo_session(&self) -> MemoSession<'a> {
        MemoSession {
            session: self.session(),
            keys: [0; MEMO_SLOTS],
            values: [0.0; MEMO_SLOTS],
            filled: 0,
        }
    }

    /// Exact expected focal payoff of `a` against `b` (Markov forward
    /// iteration), the value [`PayoffKind::Expected`] entries hold.
    fn expected(&self, a: StratId, b: StratId) -> f64 {
        expected_outcome(self.space, self.pool.get(a), self.pool.get(b), self.game).fitness_a
    }

    /// Relative fitness of the single SSet `focal` against the whole
    /// population (self included), one sampled game per opponent in SSet
    /// order — the per-owner computation of the distributed engine (§V-A).
    /// Stochastic games draw from streams keyed by
    /// `(seed, focal, opponent, generation)`, so the value is independent
    /// of who computes it and bit-identical with the cache present, absent,
    /// cold or warm. The opponents are walked a group (`LANES`) at a time;
    /// the values are added in SSet order.
    pub fn evaluate_one(&self, assignments: &[StratId], seed: u64, generation: u64, focal: usize) -> f64 {
        let s = assignments.len() as u32;
        let me = assignments[focal];
        let mut session = self.session();
        let mut total = 0.0;
        for (g, group) in assignments.chunks(LANES).enumerate() {
            let values = session.sampled_group(me, group, |k| {
                game_stream(seed, focal as u32, (g * LANES + k) as u32, s, generation)
            });
            for value in &values[..group.len()] {
                total += value;
            }
        }
        total
    }

    /// Every SSet's relative fitness by the paper's schedule: all `s²`
    /// games played, nothing cached — the fidelity baseline. One rayon task
    /// per focal SSet; `evaluate_naive(..)[i] == evaluate_one(.., i)` bit
    /// for bit.
    pub fn evaluate_naive(&self, assignments: &[StratId], seed: u64, generation: u64) -> Vec<f64> {
        let uncached = PairPayoff { cache: None, ..*self };
        (0..assignments.len())
            .into_par_iter()
            .map(|i| uncached.evaluate_one(assignments, seed, generation, i))
            .collect()
    }

    /// Fitness from each *distinct* ordered strategy pair once, combined by
    /// multiplicity: every SSet's (`focal: None`), or only SSet `i`'s
    /// (`Some(i)`, a one-element vector — one cache row probed, not `u²`).
    /// The distinct strategies and their multiplicities are `census`'s
    /// ([`crate::pool::census`] of the assignments), taken once by the
    /// caller.
    ///
    /// `kind` picks the pair value. [`PayoffKind::Expected`] is the exact
    /// expectation — sound for any strategies, and a change of *dynamics*
    /// for stochastic ones (selection sees no sampling noise).
    /// [`PayoffKind::Sampled`] is the played game, equal to
    /// [`PairPayoff::evaluate_naive`] when every pair is deterministic;
    /// panics otherwise (dedup would change stochastic results). Cache
    /// misses are replayed through rayon, a group of one row's misses per
    /// task (`PairPayoff::play_group`).
    pub fn evaluate_distinct(&self, census: &Census, kind: PayoffKind, focal: Option<usize>) -> Vec<f64> {
        // Every float accumulation below runs in the census's ascending-id
        // order, so it is stable run to run.
        let unique = census.ids();
        assert!(
            kind == PayoffKind::Expected || self.all_deterministic(unique),
            "deduplicated evaluation requires pure strategies and zero noise"
        );
        let one;
        let rows: &[StratId] = match focal {
            Some(i) => {
                one = [census.assignments()[i]];
                &one
            }
            None => unique,
        };
        let payoff = self.session().pair_rows(rows, unique, kind);
        let weighted: Vec<f64> = payoff
            .chunks(unique.len().max(1))
            .map(|row| weighted_row(census.counts(), row))
            .collect();
        match focal {
            Some(_) => weighted,
            None => census.spread(&weighted),
        }
    }

    /// The fitness of `rows` of the table `assignments`, in row order, and
    /// the games their plan scope accounts — the one well-mixed evaluation
    /// of both backends, with the caller's [`TableMemo`] (docs/PERFORMANCE.md
    /// §2.2). `by_census` is the kind a census may evaluate: `Expected`,
    /// `Sampled` (dedup, where every pair is deterministic) or neither.
    pub fn evaluate_rows(
        &self,
        assignments: &[StratId],
        seed: u64,
        generation: u64,
        by_census: Option<PayoffKind>,
        rows: &Rows,
        memo: &mut Option<TableMemo>,
    ) -> (Vec<f64>, u64) {
        let s = assignments.len();
        let naive = || (self.evaluate_naive(assignments, seed, generation), (s * s) as u64);
        // The kind the evaluation probes the cache for.
        let kind = match (rows, by_census) {
            (Rows::All, None) => return naive(),
            (_, Some(PayoffKind::Expected)) => PayoffKind::Expected,
            _ => PayoffKind::Sampled,
        };
        if let Some(kept) = memo.as_ref().and_then(|m| m.reuse(assignments, kind, rows)) {
            return kept;
        }
        let all = *rows == Rows::All;
        let census = (all || kind == PayoffKind::Expected).then(|| census(assignments));
        let (values, width) = match &census {
            Some(census) if all => {
                // Whether dedup is sound is a question about the u distinct
                // strategies, not the s SSets.
                if kind == PayoffKind::Sampled && !self.all_deterministic(census.ids()) {
                    return naive();
                }
                (self.evaluate_distinct(census, kind, None), census.len())
            }
            Some(census) => {
                let values = rows.ssets(s).map(|i| self.evaluate_distinct(census, kind, Some(i))[0]);
                (values.collect(), census.len())
            }
            None => (rows.ssets(s).map(|i| self.evaluate_one(assignments, seed, generation, i)).collect(), s),
        };
        let games = rows.cost(s, values.len(), width).0;
        let memoisable = match rows {
            Rows::All => true,
            Rows::Block(_) => kind == PayoffKind::Expected || self.all_deterministic(assignments),
            // A pair's rows are never kept.
            Rows::Pair(_) => return (values, games),
        };
        *memo = (memoisable && self.cache.is_some()).then(|| TableMemo {
            assignments: assignments.to_vec(),
            kind,
            rows: rows.clone(),
            values: values.clone(),
            width,
        });
        (values, games)
    }

    /// The payoffs of a population of the two strategies `ids` (ascending),
    /// for as long as it holds no other: [`PairTable`]. `None` unless both
    /// are pure and the game noiseless.
    pub(crate) fn pair_table(&self, ids: [StratId; 2]) -> Option<PairTable> {
        assert!(ids[0] < ids[1], "a pair table's ids ascend, as a census's do");
        self.all_deterministic(&ids).then_some(PairTable {
            ids,
            payoffs: None,
            hits: 0,
            misses: 0,
        })
    }

    /// Pre-warm the cache from a strategy table: memoise the `kind` payoff
    /// of every ordered pair of distinct assigned strategies that the
    /// evaluators would legally memoise — all of them for
    /// [`PayoffKind::Expected`], the deterministic ones for
    /// [`PayoffKind::Sampled`]. Returns the number of entries inserted
    /// (0 without a cache).
    ///
    /// This is the resume/retry cold-start fix (docs/PERFORMANCE.md §2):
    /// the cache is deliberately excluded from checkpoints, so a restored
    /// run replays its pair matrix once, up front, without probing (the
    /// hit/miss counters do not move). Cost-only: every value is what a
    /// miss would compute.
    pub fn prewarm(&self, assignments: &[StratId], kind: PayoffKind) -> usize {
        if self.cache.is_none() {
            return 0;
        }
        let mut session = self.session();
        let census = census(assignments);
        let unique = census.ids();
        let mut inserted = 0;
        for &a in unique {
            match kind {
                PayoffKind::Expected => {
                    for &b in unique {
                        session.insert(a, b, kind, self.expected(a, b));
                        inserted += 1;
                    }
                }
                PayoffKind::Sampled => {
                    let row: Vec<_> = unique
                        .iter()
                        .filter_map(|&b| self.deterministic(a, b).map(|(pa, pb)| (b, pa, pb)))
                        .collect();
                    for group in row.chunks(LANES) {
                        let values = self.play_group(group[0].1, group.iter().map(|&(_, _, pb)| pb));
                        for (&(b, ..), value) in group.iter().zip(values) {
                            session.insert(a, b, kind, value);
                            inserted += 1;
                        }
                    }
                }
            }
        }
        inserted
    }
}

/// The SSets one well-mixed evaluation scores on this side, and for which
/// plan scope ([`PairPayoff::evaluate_rows`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rows {
    /// Every SSet: a shared-memory full evaluation.
    All,
    /// One block of a full evaluation whose other blocks are scored
    /// elsewhere: a compute rank's owned SSets.
    Block(std::ops::Range<usize>),
    /// The selected pair, teacher then learner, each `Some` where this side
    /// scores it.
    Pair([Option<usize>; 2]),
}

impl Rows {
    /// The SSets these rows score, of `s`, in row order.
    pub fn ssets(&self, s: usize) -> impl Iterator<Item = usize> {
        let (block, pair) = match self {
            Rows::All => (0..s, [None; 2]),
            Rows::Block(block) => (block.clone(), [None; 2]),
            Rows::Pair(pair) => (0..0, *pair),
        };
        block.chain(pair.into_iter().flatten())
    }

    /// The games an evaluation of these rows over `s` SSets accounts and
    /// the probes its `n` values make against `width` opponents each (a
    /// census's `u`, or `s`; every SSet's are the census's `u` rows).
    fn cost(&self, s: usize, n: usize, width: usize) -> (u64, u64) {
        let (games, probes) = match self {
            Rows::All => (width * width, width * width),
            Rows::Block(_) => (s * s, n * width),
            Rows::Pair(_) => (2 * s, n * width),
        };
        (games as u64, probes as u64)
    }
}

/// The values of one cached evaluation of every SSet or of a block whose
/// every pair was memoisable, with the table, kind and rows it ran on
/// ([`PairPayoff::evaluate_rows`] alone reads and writes one). The pool
/// never reuses an id, so an equal evaluation gives these values again and
/// would hit the cache on every probe: the memo answers it and counts
/// those hits (docs/PERFORMANCE.md §2.2). Cost-only state.
#[derive(Debug, Clone)]
pub struct TableMemo {
    assignments: Vec<StratId>,
    kind: PayoffKind,
    rows: Rows,
    values: Vec<f64>,
    /// Opponents per row: the table's distinct count where it took a census.
    width: usize,
}

impl TableMemo {
    /// The strategy table the kept evaluation ran on.
    #[cfg(test)]
    pub(crate) fn assignments(&self) -> &[StratId] {
        &self.assignments
    }

    /// The number of distinct strategies in `assignments` if it is the kept
    /// table of a census over every SSet.
    pub(crate) fn distinct(&self, assignments: &[StratId]) -> Option<usize> {
        (self.rows == Rows::All && assignments == self.assignments.as_slice()).then_some(self.width)
    }

    /// The kept values and games if `assignments`, `kind` and `rows` are
    /// the memo's, their probes counted as cache hits.
    fn reuse(&self, assignments: &[StratId], kind: PayoffKind, rows: &Rows) -> Option<(Vec<f64>, u64)> {
        if kind != self.kind || *rows != self.rows || assignments != self.assignments.as_slice() {
            return None;
        }
        let (games, probes) = rows.cost(assignments.len(), self.values.len(), self.width);
        count_probes(probes, 0);
        Some((self.values.clone(), games))
    }
}

/// Flush a probe tally to `obs`, the payoff-cache counters' one writer.
fn count_probes(hits: u64, misses: u64) {
    obs::counters().add(obs::Counter::PayoffCacheHits, hits);
    obs::counters().add(obs::Counter::PayoffCacheMisses, misses);
    #[cfg(test)]
    tests::PROBES.with(|probes| probes.set(probes.get() + hits + misses));
}

/// One thread's cache access for one evaluation: the [`PayoffCache`] read
/// lock is taken at the first probe and kept across the hits that follow,
/// and hits and misses are tallied here and reach `obs` once, when the
/// session ends. A miss drops the lock at once — the caller is about to
/// play the game and [`Session::insert`] the result, and a writer must
/// never wait behind this thread's own read guard. Holding the guard makes
/// a session `!Send`; a thread opens one at a time and holds the guard for
/// one evaluation at most (one focal SSet; on the lattice one cell, after
/// which the block's [`MemoSession`] gives it back), so another thread's
/// write waits for a handful of lookups at most.
#[derive(Debug)]
pub(crate) struct Session<'a> {
    pairs: PairPayoff<'a>,
    reader: Option<Reader<'a>>,
    hits: u64,
    misses: u64,
}

impl Session<'_> {
    /// Look `(a, b)` up; `None` without a cache or on a miss. Always
    /// inlined: a hit is a handful of instructions, and the evaluators'
    /// probe loops are nothing but hits once a run is warm.
    #[inline(always)]
    fn probe(&mut self, a: StratId, b: StratId, kind: PayoffKind) -> Option<f64> {
        let cache = self.pairs.cache?;
        let hit = self.reader.get_or_insert_with(|| cache.reader()).get(a, b, kind);
        match hit {
            Some(_) => self.hits += 1,
            None => {
                self.misses += 1;
                self.release();
            }
        }
        hit
    }

    /// Give the read lock back (the next probe takes it again).
    #[inline]
    fn release(&mut self) {
        self.reader = None;
    }

    /// Memoise `(a, b)`; a no-op without a cache.
    fn insert(&mut self, a: StratId, b: StratId, kind: PayoffKind, value: f64) {
        if let Some(cache) = self.pairs.cache {
            self.release();
            cache.insert(a, b, kind, value);
        }
    }

    /// [`PairPayoff::sampled`] within this session.
    #[inline]
    pub(crate) fn sampled(&mut self, a: StratId, b: StratId, stream: impl FnOnce() -> ChaCha8Rng) -> f64 {
        let pairs = self.pairs;
        match pairs.deterministic(a, b) {
            Some((pa, pb)) => self.probe_or_play(a, b, pa, pb),
            None => pairs.play_stochastic(a, b, stream()),
        }
    }

    /// The deterministic pair `(a, b)` (strategies `pa`, `pb`): probed, and
    /// played and inserted on a miss.
    #[inline]
    fn probe_or_play(&mut self, a: StratId, b: StratId, pa: &PureStrategy, pb: &PureStrategy) -> f64 {
        self.probe(a, b, PayoffKind::Sampled).unwrap_or_else(|| {
            let [value, ..] = self.pairs.play_group(pa, [pb]);
            self.insert(a, b, PayoffKind::Sampled, value);
            value
        })
    }

    /// The `kind` payoff of every row strategy against every one of
    /// `unique`, row-major (`payoff[r·u + q]` is `rows[r]` against
    /// `unique[q]`): every pair probed in that order, the misses replayed
    /// through rayon with no lock held — a group of one row's misses per
    /// task (`PairPayoff::play_group`) — and inserted after. For
    /// [`PayoffKind::Sampled`] every pair must be deterministic.
    fn pair_rows(&mut self, rows: &[StratId], unique: &[StratId], kind: PayoffKind) -> Vec<f64> {
        let pairs = self.pairs;
        let u = unique.len();
        let mut payoff = vec![0.0f64; rows.len() * u];
        let mut misses: Vec<usize> = Vec::new();
        for (r, &a) in rows.iter().enumerate() {
            for (q, &b) in unique.iter().enumerate() {
                match self.probe(a, b, kind) {
                    Some(v) => payoff[r * u + q] = v,
                    None => misses.push(r * u + q),
                }
            }
        }
        // The replay may be long and parallel: no lock is held across it.
        self.release();
        let pair = |slot: usize| (rows[slot / u], unique[slot % u]);
        let replayed: Vec<f64> = match kind {
            PayoffKind::Expected => (0..misses.len())
                .into_par_iter()
                .map(|m| {
                    let (a, b) = pair(misses[m]);
                    pairs.expected(a, b)
                })
                .collect(),
            PayoffKind::Sampled => {
                let pures: Vec<(&PureStrategy, &PureStrategy)> = misses
                    .iter()
                    .map(|&slot| {
                        let (a, b) = pair(slot);
                        // detlint: allow(panic-path, reason = "invariant: both callers check first that every strategy they pass is pure and the game noiseless (evaluate_distinct's soundness assert, pair_table's all_deterministic), so every pair among them is deterministic")
                        pairs.deterministic(a, b).expect("asserted deterministic")
                    })
                    .collect();
                // The misses of one row share their focal strategy: one
                // group of them per task.
                let groups: Vec<_> = pures
                    .chunk_by(|x, y| std::ptr::eq(x.0, y.0))
                    .flat_map(|row| row.chunks(LANES))
                    .collect();
                (0..groups.len())
                    .into_par_iter()
                    .map(|g| pairs.play_group(groups[g][0].0, groups[g].iter().map(|pair| pair.1)))
                    .collect::<Vec<_>>()
                    .into_iter()
                    .zip(&groups)
                    .flat_map(|(values, group)| values.into_iter().take(group.len()))
                    .collect()
            }
        };
        for (&slot, &v) in misses.iter().zip(&replayed) {
            payoff[slot] = v;
            let (a, b) = pair(slot);
            self.insert(a, b, kind, v);
        }
        payoff
    }

    /// This session's `(hits, misses)` so far.
    #[cfg(test)]
    pub(crate) fn tally(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// [`Session::sampled`] for `me` against up to [`LANES`] `opponents`
    /// at once; `stream(k)` opens the stream of the game against
    /// `opponents[k]`. Values, probe counts and cache contents are those of
    /// `sampled` called per opponent in order — an opponent the group has
    /// already missed counts as the hit it would have been by then — but
    /// the misses are played together ([`PairPayoff::play_group`]) and
    /// inserted after. A group of hits costs what its probes cost.
    #[inline]
    pub(crate) fn sampled_group(
        &mut self,
        me: StratId,
        opponents: &[StratId],
        stream: impl Fn(usize) -> ChaCha8Rng,
    ) -> [f64; LANES] {
        let pairs = self.pairs;
        let focal = pairs.pure(me);
        let mut values = [0.0; LANES];
        // Bit k: the game against `opponents[k]` is still to be played.
        let mut unplayed = 0u32;
        for (k, (&opp, value)) in opponents.iter().zip(&mut values).enumerate() {
            if focal.and(pairs.pure(opp)).is_none() {
                *value = pairs.play_stochastic(me, opp, stream(k));
            } else if unplayed != 0 && pairs.cache.is_some() && Self::slots(opponents, unplayed).any(|j| opponents[j] == opp) {
                self.hits += 1;
                unplayed |= 1 << k;
            } else if let Some(hit) = self.probe(me, opp, PayoffKind::Sampled) {
                *value = hit;
            } else {
                unplayed |= 1 << k;
            }
        }
        if unplayed != 0 {
            self.play_unplayed(me, opponents, unplayed, &mut values);
        }
        values
    }

    /// The slots of a group whose bit is set in `unplayed`, ascending.
    fn slots(opponents: &[StratId], unplayed: u32) -> impl Iterator<Item = usize> + '_ {
        (0..opponents.len().min(LANES)).filter(move |k| unplayed >> k & 1 == 1)
    }

    /// Play a group's unplayed slots together and memoise the games. With a
    /// cache, slots that name one opponent share one game (the later ones
    /// were counted as hits); without one every scheduled game is played.
    #[inline(never)]
    fn play_unplayed(&mut self, me: StratId, opponents: &[StratId], unplayed: u32, values: &mut [f64; LANES]) {
        let pairs = self.pairs;
        // The slot whose game slot `k` takes its value from.
        let source = |k: usize| match pairs.cache {
            Some(_) => Self::slots(opponents, unplayed).find(|&j| opponents[j] == opponents[k]).unwrap_or(k),
            None => k,
        };
        let games = || Self::slots(opponents, unplayed).filter(|&k| source(k) == k);
        let Some(focal) = pairs.pure(me) else { return };
        let played = pairs.play_group(focal, games().filter_map(|k| pairs.pure(opponents[k])));
        for (k, value) in games().zip(played) {
            values[k] = value;
            self.insert(me, opponents[k], PayoffKind::Sampled, value);
        }
        for k in Self::slots(opponents, unplayed) {
            values[k] = values[source(k)];
        }
    }
}

impl Drop for Session<'_> {
    fn drop(&mut self) {
        self.release();
        count_probes(self.hits, self.misses);
    }
}

/// The fitness of one focal row of a deduplicated evaluation:
/// `Σ_q counts[q] · row[q]`, in ascending `q` — the census's ascending-id
/// order. [`PairPayoff::evaluate_distinct`] and [`PairTable::fitness`] both
/// sum through here, so their bits agree by construction.
#[inline]
fn weighted_row(counts: &[u32], row: &[f64]) -> f64 {
    counts.iter().zip(row).map(|(&c, v)| f64::from(c) * v).sum()
}

/// The four payoffs of a population of two deterministic strategies — a
/// resident/mutant fixation replicate — probed once and reused for every
/// generation that follows ([`PairPayoff::pair_table`]). Each
/// [`PairTable::fitness`] gives what
/// [`PairPayoff::evaluate_distinct`]`(census, Sampled, None)` gives, to the
/// bit, while both strategies are present. Its probes are tallied as that
/// evaluation's would be: the first call probes the cache for real (a miss
/// plays and inserts), every later one counts its four probes as the hits
/// they would be, as a [`MemoSession`] answer counts as the hit it
/// replaces. The tally reaches `obs` once, when the table drops.
#[derive(Debug)]
pub(crate) struct PairTable {
    ids: [StratId; 2],
    /// `[π₀₀, π₀₁, π₁₀, π₁₁]` once probed (`π_ab`: `ids[a]` against `ids[b]`).
    payoffs: Option<[f64; 4]>,
    hits: u64,
    misses: u64,
}

impl PairTable {
    /// Every SSet's fitness, written into `fitness`. `pairs` must be the
    /// [`PairPayoff`] that built the table, and `assignments` must hold both
    /// of its strategies and no other.
    pub(crate) fn fitness(&mut self, pairs: &PairPayoff<'_>, assignments: &[StratId], fitness: &mut Vec<f64>) {
        let payoffs = match self.payoffs {
            Some(payoffs) => {
                self.hits += 4;
                payoffs
            }
            None => {
                let mut session = pairs.session();
                let rows = session.pair_rows(&self.ids, &self.ids, PayoffKind::Sampled);
                self.hits += std::mem::take(&mut session.hits);
                self.misses += std::mem::take(&mut session.misses);
                *self.payoffs.insert([rows[0], rows[1], rows[2], rows[3]])
            }
        };
        let second = assignments.iter().filter(|&&id| id == self.ids[1]).count() as u32;
        let counts = [assignments.len() as u32 - second, second];
        debug_assert!(counts.iter().all(|&c| c > 0), "both strategies present");
        let rows = [weighted_row(&counts, &payoffs[..2]), weighted_row(&counts, &payoffs[2..])];
        fitness.clear();
        fitness.extend(assignments.iter().map(|&id| rows[usize::from(id == self.ids[1])]));
    }
}

impl Drop for PairTable {
    fn drop(&mut self) {
        count_probes(self.hits, self.misses);
    }
}

/// Slots in a [`MemoSession`]'s pair memo: `1 << MEMO_BITS`, one bit each
/// of its `filled` word.
const MEMO_BITS: u32 = 6;
const MEMO_SLOTS: usize = 1 << MEMO_BITS;
const _: () = assert!(MEMO_SLOTS <= u64::BITS as usize, "one `filled` bit per memo slot");

/// A [`Session`] with a small pair memo in front of the cache, for a walk
/// that asks for the same few pairs again and again: a block of lattice
/// cells, whose stencils meet a handful of distinct strategy pairs
/// thousands of times. The memo is direct-mapped, `MEMO_SLOTS` entries on
/// the stack, and holds only deterministic pairs the cache answered or took
/// in within this session. So it answers only where the cache would have
/// hit, with the cache's value, and its answer counts as that hit: values,
/// `hits + misses` and cache contents are those of [`Session::sampled`]
/// called pair by pair. Stochastic pairs never enter it, and without a
/// cache it stays empty (every game is played, as uncached probes play it).
///
/// A memo answer takes no lock. The walk calls [`MemoSession::release`]
/// after every cell, so the read guard a cache probe takes is held for one
/// stencil at most, as a per-cell session held it.
#[derive(Debug)]
pub(crate) struct MemoSession<'a> {
    session: Session<'a>,
    /// `keys[s]` ([`pair_key`]) and `values[s]` hold a pair where bit `s` of
    /// `filled` is set.
    keys: [u64; MEMO_SLOTS],
    values: [f64; MEMO_SLOTS],
    filled: u64,
}

impl MemoSession<'_> {
    /// [`Session::sampled`], served from the memo where it holds the pair.
    #[inline]
    pub(crate) fn sampled(&mut self, a: StratId, b: StratId, stream: impl FnOnce() -> ChaCha8Rng) -> f64 {
        let key = pair_key(a, b);
        let slot = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (u64::BITS - MEMO_BITS)) as usize;
        if self.filled >> slot & 1 == 1 && self.keys[slot] == key {
            self.session.hits += 1;
            return self.values[slot];
        }
        let pairs = self.session.pairs;
        let Some((pa, pb)) = pairs.deterministic(a, b) else {
            return pairs.play_stochastic(a, b, stream());
        };
        let value = self.session.probe_or_play(a, b, pa, pb);
        if pairs.cache.is_some() {
            self.keys[slot] = key;
            self.values[slot] = value;
            self.filled |= 1 << slot;
        }
        value
    }

    /// Give the read lock back, if a probe took it (the next probe takes it
    /// again).
    #[inline]
    pub(crate) fn release(&mut self) {
        self.session.release();
    }

    /// This session's `(hits, misses)` so far, memo answers among the hits.
    #[cfg(test)]
    pub(crate) fn tally(&self) -> (u64, u64) {
        self.session.tally()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rngstream::{stream, Domain};
    use ipd::classic;
    use ipd::game::play_deterministic;
    use ipd::payoff::PayoffMatrix;
    use ipd::strategy::{MixedStrategy, PureStrategy};
    use rand::Rng;

    fn setup_pure(
        n_ssets: usize,
        mem: usize,
        seed: u64,
    ) -> (StateSpace, Vec<StratId>, StrategyPool) {
        let space = StateSpace::new(mem).unwrap();
        let mut pool = StrategyPool::new();
        let mut rng = stream(seed, Domain::Init, 0, 0);
        let assignments = (0..n_ssets)
            .map(|_| pool.intern(Strategy::Pure(PureStrategy::random(space, &mut rng))))
            .collect();
        (space, assignments, pool)
    }

    /// `n` SSets cycling through `distinct` random memory-one mixed
    /// strategies.
    fn setup_mixed(n: usize, distinct: usize, seed: u64) -> (StateSpace, Vec<StratId>, StrategyPool) {
        let space = StateSpace::new(1).unwrap();
        let mut pool = StrategyPool::new();
        let mut rng = stream(seed, Domain::Init, 0, 0);
        let ids: Vec<StratId> = (0..distinct)
            .map(|_| pool.intern(Strategy::Mixed(MixedStrategy::random(space, &mut rng))))
            .collect();
        (space, (0..n).map(|i| ids[i % distinct]).collect(), pool)
    }

    /// 32 SSets over ALLC / ALLD / TFT / WSLS: heavy duplication at memory
    /// one.
    fn setup_classics() -> (StateSpace, Vec<StratId>, StrategyPool) {
        let space = StateSpace::new(1).unwrap();
        let mut pool = StrategyPool::new();
        let ids = [
            pool.intern(Strategy::Pure(classic::all_c(&space))),
            pool.intern(Strategy::Pure(classic::all_d(&space))),
            pool.intern(Strategy::Pure(classic::tft(&space))),
            pool.intern(Strategy::Pure(classic::wsls(&space))),
        ];
        (space, (0..32).map(|i| ids[i % 4]).collect(), pool)
    }

    /// 16 SSets over a pool ~200 times their size, as a long mutating run
    /// leaves it: every SSet was overwritten by fresh strategies again and
    /// again, then took one of five survivors scattered across the pool —
    /// few, high and sparse live ids among thousands of dead ones.
    fn setup_dead_pool() -> (StateSpace, Vec<StratId>, StrategyPool) {
        let (space, mut asg, mut pool) = setup_pure(16, 2, 71);
        let mut rng = stream(71, Domain::Init, 1, 0);
        for _ in 0..200 {
            for slot in &mut asg {
                *slot = pool.intern(Strategy::Pure(PureStrategy::random(space, &mut rng)));
            }
        }
        let top = pool.len() as StratId - 1;
        for (i, slot) in asg.iter_mut().enumerate() {
            *slot = top - (i as StratId % 5) * 700;
        }
        assert!(pool.len() > 100 * asg.len());
        (space, asg, pool)
    }

    fn cfg() -> GameConfig {
        GameConfig {
            rounds: 50,
            noise: 0.0,
            payoff: PayoffMatrix::default(),
        }
    }

    fn noisy(rounds: u32, noise: f64) -> GameConfig {
        GameConfig {
            rounds,
            noise,
            payoff: PayoffMatrix::default(),
        }
    }

    /// The uncached primitive.
    fn plain<'a>(space: &'a StateSpace, pool: &'a StrategyPool, game: &'a GameConfig) -> PairPayoff<'a> {
        PairPayoff::new(space, pool, game, None)
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    thread_local! {
        /// Every probe this thread's sessions, pair tables and table memos
        /// counted ([`count_probes`]).
        pub(super) static PROBES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    /// `f`'s result and the probes it counted on this thread.
    fn probes_of<T>(f: impl FnOnce() -> T) -> (T, u64) {
        let before = PROBES.with(|p| p.get());
        let out = f();
        (out, PROBES.with(|p| p.get()) - before)
    }

    /// Every row of docs/PERFORMANCE.md §2.2's table: rows × census kind
    /// (`None`: neither flag; `Sampled`: `dedup`; `Expected`:
    /// `expected_fitness`, `dedup` either way) × a population that is all
    /// deterministic or not × a memo that is cold, warm or of the other
    /// kind. Values against the reference evaluators, bit for bit; probes,
    /// games, the memo's answer and the memo left behind against the table.
    #[test]
    fn evaluate_rows_follows_the_evaluator_table() {
        #[derive(Debug, Clone, Copy, PartialEq)]
        enum Memo {
            Cold,
            Warm,
            OtherKind,
        }
        let game = cfg();
        let (seed, generation) = (11, 5);
        let key = |m: &Option<TableMemo>| m.as_ref().map(|m| (m.kind, m.rows.clone(), m.assignments.clone(), bits(&m.values)));
        let (space, classics, pool) = setup_classics();
        let (mixed_space, mixed, mixed_pool) = setup_mixed(12, 3, 7);
        for (space, asg, pool, det) in [(space, classics, pool, true), (mixed_space, mixed, mixed_pool, false)] {
            let (s, u) = (asg.len(), census(&asg).len());
            let reference = plain(&space, &pool, &game);
            let naive = reference.evaluate_naive(&asg, seed, generation);
            let exact = reference.evaluate_distinct(&census(&asg), PayoffKind::Expected, None);
            for rows in [Rows::All, Rows::Block(s / 4..s / 2), Rows::Pair([Some(s - 1), Some(2)]), Rows::Pair([None, Some(2)])] {
                let scored: Vec<usize> = match &rows {
                    Rows::All => (0..s).collect(),
                    Rows::Block(block) => block.clone().collect(),
                    Rows::Pair(pair) => pair.iter().flatten().copied().collect(),
                };
                let n = scored.len();
                for by_census in [None, Some(PayoffKind::Sampled), Some(PayoffKind::Expected)] {
                    let expected = by_census == Some(PayoffKind::Expected);
                    let census_row = matches!(rows, Rows::All) && (expected || by_census.is_some() && det);
                    // The table's evaluator (its values), kind, probes and games.
                    let (want, kind, probes) = match &rows {
                        Rows::All if census_row => {
                            let kind = by_census.expect("a census row has a kind");
                            (reference.evaluate_distinct(&census(&asg), kind, None), Some(kind), u * u)
                        }
                        Rows::All => (naive.clone(), None, 0),
                        _ if expected => (scored.iter().map(|&i| exact[i]).collect(), Some(PayoffKind::Expected), n * u),
                        _ => {
                            let want = scored.iter().map(|&i| reference.evaluate_one(&asg, seed, generation, i)).collect();
                            (want, Some(PayoffKind::Sampled), if det { n * s } else { 0 })
                        }
                    };
                    let games = match rows {
                        Rows::All if census_row => u * u,
                        Rows::All | Rows::Block(_) => s * s,
                        Rows::Pair(_) => 2 * s,
                    };
                    let full = !matches!(rows, Rows::Pair(_));
                    let memoisable = full && kind.is_some() && (kind == Some(PayoffKind::Expected) || det);
                    for state in [Memo::Cold, Memo::Warm, Memo::OtherKind] {
                        let label = format!("det {det}, {rows:?}, {by_census:?}, {state:?} memo");
                        let mut memo = None;
                        let other = if expected { Some(PayoffKind::Sampled) } else { Some(PayoffKind::Expected) };
                        let filler = match state {
                            Memo::Cold => None,
                            Memo::Warm => Some(by_census),
                            Memo::OtherKind => Some(other),
                        };
                        if let Some(by) = filler {
                            let warm = PayoffCache::new(game);
                            PairPayoff::new(&space, &pool, &game, Some(&warm)).evaluate_rows(&asg, seed, generation, by, &rows, &mut memo);
                        }
                        let before = key(&memo);
                        // A cold cache: an answer from the memo leaves it empty.
                        let cache = PayoffCache::new(game);
                        let pairs = PairPayoff::new(&space, &pool, &game, Some(&cache));
                        let ((values, got_games), got_probes) =
                            probes_of(|| pairs.evaluate_rows(&asg, seed, generation, by_census, &rows, &mut memo));
                        assert_eq!(bits(&values), bits(&want), "{label}: values");
                        assert_eq!(got_games, games as u64, "{label}: games");
                        assert_eq!(got_probes, probes as u64, "{label}: probes");
                        let answered = memoisable && state == Memo::Warm;
                        assert_eq!(cache.is_empty(), answered || probes == 0, "{label}: answered from the memo");
                        let left = key(&memo);
                        if memoisable {
                            let kind = kind.expect("a memoisable row probes");
                            assert_eq!(left, Some((kind, rows.clone(), asg.clone(), bits(&values))), "{label}: memo kept");
                        } else if full && kind.is_some() {
                            assert_eq!(left, None, "{label}: memo cleared");
                        } else {
                            assert_eq!(left, before, "{label}: memo untouched");
                        }
                    }
                }
            }
        }
        // A memo answers only the rows it kept: another block re-evaluates.
        let (space, asg, pool) = setup_classics();
        let mut memo = None;
        let warm = PayoffCache::new(game);
        PairPayoff::new(&space, &pool, &game, Some(&warm)).evaluate_rows(&asg, seed, generation, None, &Rows::Block(0..4), &mut memo);
        let cache = PayoffCache::new(game);
        PairPayoff::new(&space, &pool, &game, Some(&cache)).evaluate_rows(&asg, seed, generation, None, &Rows::Block(4..8), &mut memo);
        assert!(!cache.is_empty(), "another block's memo answered");
    }

    #[test]
    fn deduped_matches_naive() {
        let (space, asg, pool) = setup_classics();
        let game = cfg();
        let pp = plain(&space, &pool, &game);
        let naive = pp.evaluate_naive(&asg, 0, 0);
        let dedup = pp.evaluate_distinct(&census(&asg), PayoffKind::Sampled, None);
        for i in 0..32 {
            assert!((naive[i] - dedup[i]).abs() < 1e-9, "sset {i}");
        }
    }

    #[test]
    fn deduped_matches_naive_random_population() {
        let (space, asg, pool) = setup_pure(40, 3, 9);
        let game = cfg();
        let pp = plain(&space, &pool, &game);
        let naive = pp.evaluate_naive(&asg, 9, 2);
        let dedup = pp.evaluate_distinct(&census(&asg), PayoffKind::Sampled, None);
        for i in 0..asg.len() {
            assert!((naive[i] - dedup[i]).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "deduplicated evaluation requires")]
    fn deduped_rejects_noise() {
        let (space, asg, pool) = setup_pure(8, 1, 0);
        let game = noisy(10, 0.1);
        plain(&space, &pool, &game).evaluate_distinct(&census(&asg), PayoffKind::Sampled, None);
    }

    #[test]
    #[should_panic(expected = "deduplicated evaluation requires")]
    fn deduped_rejects_mixed_strategies() {
        let space = StateSpace::new(1).unwrap();
        let mut pool = StrategyPool::new();
        let id = pool.intern(Strategy::Mixed(classic::random_mixed(&space)));
        plain(&space, &pool, &cfg()).evaluate_distinct(&census(&[id, id]), PayoffKind::Sampled, None);
    }

    #[test]
    fn alld_dominates_allc_population_fitness() {
        // In a population of ALLC with one ALLD, the defector's relative
        // fitness must exceed every cooperator's.
        let space = StateSpace::new(1).unwrap();
        let mut pool = StrategyPool::new();
        let c = pool.intern(Strategy::Pure(classic::all_c(&space)));
        let d = pool.intern(Strategy::Pure(classic::all_d(&space)));
        let mut asg = vec![c; 16];
        asg[7] = d;
        let fit = plain(&space, &pool, &cfg()).evaluate_naive(&asg, 0, 0);
        for (i, f) in fit.iter().enumerate() {
            if i != 7 {
                assert!(fit[7] > *f, "defector must out-earn cooperator {i}");
            }
        }
    }

    #[test]
    fn fitness_depends_on_generation_for_stochastic_games() {
        let (space, asg, pool) = setup_mixed(6, 6, 5);
        let game = noisy(30, 0.0);
        let pp = plain(&space, &pool, &game);
        let g0 = pp.evaluate_naive(&asg, 5, 0);
        let g1 = pp.evaluate_naive(&asg, 5, 1);
        assert_ne!(g0, g1, "mixed-strategy games re-sample each generation");
    }

    #[test]
    fn is_deterministic_detects_kinds() {
        let space = StateSpace::new(1).unwrap();
        let mut pool = StrategyPool::new();
        let p = pool.intern(Strategy::Pure(classic::tft(&space)));
        let m = pool.intern(Strategy::Mixed(classic::random_mixed(&space)));
        assert!(plain(&space, &pool, &cfg()).all_deterministic(&[p, p]));
        assert!(!plain(&space, &pool, &cfg()).all_deterministic(&[p, m]));
        let game = GameConfig {
            noise: 0.01,
            ..cfg()
        };
        assert!(!plain(&space, &pool, &game).all_deterministic(&[p, p]));
    }

    #[test]
    fn self_play_counts_toward_fitness() {
        // A lone pair of ALLC SSets: each plays itself (R*rounds) and the
        // other (R*rounds) = 2 * 3 * 50 = 300.
        let space = StateSpace::new(1).unwrap();
        let mut pool = StrategyPool::new();
        let c = pool.intern(Strategy::Pure(classic::all_c(&space)));
        let fit = plain(&space, &pool, &cfg()).evaluate_naive(&[c, c], 0, 0);
        assert_eq!(fit, vec![300.0, 300.0]);
    }

    #[test]
    fn evaluate_one_matches_vector_evaluate() {
        let (space, asg, pool) = setup_pure(20, 2, 13);
        let game = cfg();
        let pp = plain(&space, &pool, &game);
        let vec = pp.evaluate_naive(&asg, 13, 4);
        for (i, expected) in vec.iter().enumerate() {
            assert_eq!(*expected, pp.evaluate_one(&asg, 13, 4, i), "sset {i}");
        }
    }

    #[test]
    fn evaluate_one_matches_for_stochastic_games() {
        let (space, asg, pool) = setup_mixed(10, 10, 21);
        let game = noisy(30, 0.03);
        let pp = plain(&space, &pool, &game);
        let vec = pp.evaluate_naive(&asg, 21, 9);
        for (i, expected) in vec.iter().enumerate() {
            assert_eq!(*expected, pp.evaluate_one(&asg, 21, 9, i), "sset {i}");
        }
    }

    #[test]
    fn expected_one_matches_vector_expected_bitwise() {
        // The OnDemand path must reproduce the EveryGeneration path to the
        // bit: both sum counts-weighted expectations in ascending-StratId
        // order, so even f64 rounding agrees exactly.
        let (space, asg, pool) = setup_pure(24, 2, 7);
        let game = cfg();
        let pp = plain(&space, &pool, &game);
        let vec = pp.evaluate_distinct(&census(&asg), PayoffKind::Expected, None);
        for (i, expected) in vec.iter().enumerate() {
            let one = pp.evaluate_distinct(&census(&asg), PayoffKind::Expected, Some(i));
            assert_eq!(bits(&one), [expected.to_bits()], "sset {i}");
        }

        // Mixed strategies under noise: expectations stay deterministic.
        let (space, asg, pool) = setup_mixed(12, 4, 33);
        let game = noisy(40, 0.03);
        let pp = plain(&space, &pool, &game);
        let vec = pp.evaluate_distinct(&census(&asg), PayoffKind::Expected, None);
        for (i, expected) in vec.iter().enumerate() {
            let one = pp.evaluate_distinct(&census(&asg), PayoffKind::Expected, Some(i));
            assert_eq!(bits(&one), [expected.to_bits()], "sset {i} (mixed)");
        }
    }

    #[test]
    fn expected_equals_naive_for_deterministic_populations() {
        // With pure strategies and no noise, expectation = realisation.
        let (space, asg, pool) = setup_pure(24, 2, 17);
        let game = cfg();
        let pp = plain(&space, &pool, &game);
        let naive = pp.evaluate_naive(&asg, 17, 0);
        let expected = pp.evaluate_distinct(&census(&asg), PayoffKind::Expected, None);
        for i in 0..asg.len() {
            assert!((naive[i] - expected[i]).abs() < 1e-6, "sset {i}");
        }
    }

    #[test]
    fn expected_fitness_is_generation_invariant() {
        // Unlike sampled stochastic fitness, expectations don't depend on
        // the generation's RNG streams.
        let (space, asg, pool) = setup_mixed(8, 8, 23);
        let game = noisy(50, 0.02);
        let pp = plain(&space, &pool, &game);
        let e1 = pp.evaluate_distinct(&census(&asg), PayoffKind::Expected, None);
        let e2 = pp.evaluate_distinct(&census(&asg), PayoffKind::Expected, None);
        assert_eq!(e1, e2);
        // And it approximates the mean of many sampled evaluations.
        let mut mean = vec![0.0; asg.len()];
        let reps = 400;
        for g in 0..reps {
            let f = pp.evaluate_naive(&asg, 23, g);
            for (m, v) in mean.iter_mut().zip(&f) {
                *m += v;
            }
        }
        for m in &mut mean {
            *m /= reps as f64;
        }
        for i in 0..asg.len() {
            let rel = (mean[i] - e1[i]).abs() / e1[i].abs().max(1.0);
            assert!(rel < 0.05, "sset {i}: sampled mean {} vs exact {}", mean[i], e1[i]);
        }
    }

    /// Every route to a payoff gives the same bits: kernel {cycle payout,
    /// lockstep lanes} × cache {none, cold, warm}, for the pair primitive
    /// and the three evaluators (each of every SSet's rows and of one row),
    /// each pair against the one-lane kernel; and swapping roles transposes.
    #[test]
    fn every_kernel_and_cache_state_gives_the_same_bits() {
        // Heavy duplication (memory one), memory three, a mid-depth
        // population with few duplicates, two sizes that leave a partial
        // last group, a pool mostly of dead ids, and the deeper walks of
        // memory four and six — under the default matrix, which
        // `play_group` pays out from cycles, and a fractional one, which it
        // plays in lanes.
        let populations = [
            setup_classics(),
            setup_pure(40, 3, 9),
            setup_pure(20, 2, 13),
            setup_pure(3, 2, 5),
            setup_pure(13, 3, 6),
            setup_dead_pool(),
            setup_pure(9, 4, 14),
            setup_pure(7, 6, 15),
        ];
        let weak = GameConfig {
            payoff: PayoffMatrix::from_rstp(1.0, 0.0, 1.85, 0.0),
            ..cfg()
        };
        for ((space, asg, pool), game) in populations.iter().flat_map(|p| [(p, cfg()), (p, weak)]) {
            let reference = plain(space, pool, &game);
            let naive = bits(&reference.evaluate_naive(asg, 13, 4));
            let dedup = bits(&reference.evaluate_distinct(&census(asg), PayoffKind::Sampled, None));
            let unique: Vec<StratId> = asg.iter().copied().collect::<std::collections::BTreeSet<_>>().into_iter().collect();
            let pure = |id: StratId| match pool.get(id).as_ref() {
                Strategy::Pure(p) => p,
                Strategy::Mixed(_) => panic!("pure population expected"),
            };
            let cache = PayoffCache::new(game);
            // `None`, then the same cache cold and warm.
            for cached in [None, Some(&cache), Some(&cache)] {
                let pp = PairPayoff::new(space, pool, &game, cached);
                let label = format!("mem {} {:?} cache {}", space.mem_steps(), game.payoff, cached.map_or(0, |c| c.len()));
                for (r, &a) in unique.iter().enumerate() {
                    // The row pair by pair through the one-shot, and
                    // whole through one session; which goes first (and
                    // so takes a cold cache's misses) alternates.
                    let one_shot = || -> Vec<f64> {
                        let play = |&b| pp.sampled(a, b, || panic!("deterministic pairs open no stream"));
                        unique.iter().map(play).collect()
                    };
                    let in_session = || -> Vec<f64> {
                        let mut session = pp.session();
                        let mut play = |&b| session.sampled(a, b, || panic!("deterministic pairs open no stream"));
                        unique.iter().map(&mut play).collect()
                    };
                    let (row, session_row) = if r % 2 == 0 {
                        let row = one_shot();
                        (row, in_session())
                    } else {
                        let session_row = in_session();
                        (one_shot(), session_row)
                    };
                    assert_eq!(bits(&session_row), bits(&row), "{label}: session row {a}");
                    for (&b, v) in unique.iter().zip(&row) {
                        let swapped = play_deterministic(space, pure(b), pure(a), &game);
                        assert_eq!(v.to_bits(), swapped.fitness_b.to_bits(), "{label}: role swap ({a},{b})");
                    }
                }
                assert_eq!(bits(&pp.evaluate_naive(asg, 13, 4)), naive, "{label}");
                assert_eq!(bits(&pp.evaluate_distinct(&census(asg), PayoffKind::Sampled, None)), dedup, "{label}");
                for i in 0..asg.len() {
                    assert_eq!(pp.evaluate_one(asg, 13, 4, i).to_bits(), naive[i], "{label}: one {i}");
                    let one = pp.evaluate_distinct(&census(asg), PayoffKind::Sampled, Some(i));
                    assert_eq!(bits(&one), [dedup[i]], "{label}: distinct one {i}");
                }
            }
            assert_eq!(cache.len(), unique.len() * unique.len(), "every ordered distinct pair memoised once");
        }

        // One mixed SSet in a pure population at noise 0: its groups hold
        // deterministic and stochastic opponents side by side. The
        // reference is the pair-by-pair sum built from the kernels alone.
        let game = cfg();
        let (space, mut asg, mut pool) = setup_pure(13, 2, 6);
        asg[5] = pool.intern(Strategy::Mixed(MixedStrategy::random(space, &mut stream(6, Domain::Init, 1, 0))));
        let s = asg.len() as u32;
        let reference: Vec<u64> = (0..asg.len())
            .map(|i| {
                let total = asg.iter().enumerate().fold(0.0, |total, (j, &opp)| {
                    total + match (pool.get(asg[i]).as_ref(), pool.get(opp).as_ref()) {
                        (Strategy::Pure(a), Strategy::Pure(b)) => play_deterministic(&space, a, b, &game).fitness_a,
                        (a, b) => play(&space, a, b, &game, &mut game_stream(13, i as u32, j as u32, s, 4)).fitness_a,
                    }
                });
                total.to_bits()
            })
            .collect();
        let pure_ids = asg.iter().filter(|&&id| id != asg[5]).collect::<std::collections::BTreeSet<_>>().len();
        let cache = PayoffCache::new(game);
        for cached in [None, Some(&cache), Some(&cache)] {
            let pp = PairPayoff::new(&space, &pool, &game, cached);
            assert_eq!(bits(&pp.evaluate_naive(&asg, 13, 4)), reference);
            for (i, want) in reference.iter().enumerate() {
                assert_eq!(pp.evaluate_one(&asg, 13, 4, i).to_bits(), *want, "one {i}");
            }
        }
        assert_eq!(cache.len(), pure_ids * pure_ids, "only the pure pairs are memoised");

        // Expected payoffs, for strategies no sampled path may cache.
        let (space, asg, pool) = setup_mixed(12, 4, 41);
        let game = noisy(40, 0.03);
        let exact = bits(&plain(&space, &pool, &game).evaluate_distinct(&census(&asg), PayoffKind::Expected, None));
        let cache = PayoffCache::new(game);
        for cached in [None, Some(&cache), Some(&cache)] {
            let pp = PairPayoff::new(&space, &pool, &game, cached);
            assert_eq!(bits(&pp.evaluate_distinct(&census(&asg), PayoffKind::Expected, None)), exact);
            // The OnDemand companion shares the same entries.
            for (i, want) in exact.iter().enumerate() {
                let one = pp.evaluate_distinct(&census(&asg), PayoffKind::Expected, Some(i));
                assert_eq!(bits(&one), [*want], "sset {i} (one)");
            }
        }
        assert_eq!(cache.len(), 16, "4 distinct strategies → 16 Expected entries");
    }

    /// The group walk against the per-pair walk on twin half-warm caches:
    /// hits and misses fall inside one group, opponents repeat inside one
    /// group, the last group is partial — and the values, the probe tallies
    /// and the cache contents come out the same.
    #[test]
    fn group_walk_probes_and_inserts_like_the_per_pair_walk() {
        let game = cfg();
        // The classics two SSets each, so that neighbours in a group repeat.
        let (space, classics, pool) = setup_classics();
        let doubled = (space, (0..14).map(|i| classics[(i / 2) % 4]).collect(), pool);
        for (space, asg, pool) in [doubled, setup_pure(13, 3, 6), setup_pure(3, 2, 5)] {
            let naive = bits(&plain(&space, &pool, &game).evaluate_naive(&asg, 13, 4));
            // Warm the strategies of the first third of the SSets.
            let warm = &asg[..asg.len() / 3];
            let (grouped, paired) = (PayoffCache::new(game), PayoffCache::new(game));
            let by_group = PairPayoff::new(&space, &pool, &game, Some(&grouped));
            let by_pair = PairPayoff::new(&space, &pool, &game, Some(&paired));
            assert_eq!(by_group.prewarm(warm, PayoffKind::Sampled), by_pair.prewarm(warm, PayoffKind::Sampled));
            let no_stream = |_: usize| -> ChaCha8Rng { panic!("deterministic pairs open no stream") };
            for (i, &me) in asg.iter().enumerate() {
                let label = format!("mem {} focal {i}", space.mem_steps());
                let (total, tally) = {
                    let mut session = by_group.session();
                    let mut total = 0.0;
                    for group in asg.chunks(LANES) {
                        let values = session.sampled_group(me, group, no_stream);
                        for value in &values[..group.len()] {
                            total += value;
                        }
                    }
                    (total, (session.hits, session.misses))
                };
                let mut session = by_pair.session();
                let want = asg.iter().fold(0.0, |t, &opp| t + session.sampled(me, opp, || no_stream(0)));
                assert_eq!(total.to_bits(), want.to_bits(), "{label}");
                assert_eq!(total.to_bits(), naive[i], "{label}: against the uncached evaluator");
                assert_eq!(tally, (session.hits, session.misses), "{label}: (hits, misses)");
                assert_eq!(tally.0 + tally.1, asg.len() as u64, "{label}: one probe per opponent");
            }
            let distinct = asg.iter().collect::<std::collections::BTreeSet<_>>().len();
            assert_eq!((grouped.len(), paired.len()), (distinct * distinct, distinct * distinct));
        }
    }

    /// The lifting identity (Gaffney, Harper & Knight, arXiv:1912.04493)
    /// through every evaluator: a population of memory-n pure strategies and
    /// the same population lifted to memory m (the move for state `s` is the
    /// original's for `s & mask_n`; `classic`'s TFT and WSLS lift
    /// themselves) get the same fitness bits from `evaluate_one`,
    /// `evaluate_naive` and `evaluate_distinct(Sampled)`, each with no cache,
    /// a cold one and a warm one — under an integral matrix, which
    /// `play_group` pays out from cycles, and the fractional 1.85 one, which
    /// it plays in lanes.
    #[test]
    fn lifted_populations_score_the_same_through_every_evaluator_and_cache_state() {
        let lift = |p: &PureStrategy, wider: StateSpace| {
            let mask = p.space().mask();
            PureStrategy::from_fn(wider, |s| p.move_for(s & mask))
        };
        let weak = GameConfig {
            payoff: PayoffMatrix::from_rstp(1.0, 0.0, 1.85, 0.0),
            ..cfg()
        };
        for (n, m) in [(1usize, 2usize), (1, 4), (2, 3), (1, 6), (3, 5)] {
            let (space, wider) = (StateSpace::new(n).unwrap(), StateSpace::new(m).unwrap());
            let mut rng = stream(1912, Domain::Init, n as u64, m as u64);
            let random: Vec<PureStrategy> = (0..5).map(|_| PureStrategy::random(space, &mut rng)).collect();
            let narrow = [classic::tft(&space), classic::wsls(&space)].into_iter().chain(random.iter().cloned());
            let lifted = [classic::tft(&wider), classic::wsls(&wider)]
                .into_iter()
                .chain(random.iter().map(|p| lift(p, wider)));
            // Eleven SSets over the seven tables, so that dedup weighs
            // repeated strategies.
            let population = |tables: Vec<PureStrategy>| {
                let mut pool = StrategyPool::new();
                let ids: Vec<StratId> = tables.into_iter().map(|p| pool.intern(Strategy::Pure(p))).collect();
                let asg: Vec<StratId> = (0..11).map(|i| ids[i * 5 % ids.len()]).collect();
                (pool, asg)
            };
            let (narrow_pool, asg) = population(narrow.collect());
            let (lifted_pool, lifted_asg) = population(lifted.collect());
            assert_eq!(asg, lifted_asg, "lifting keeps which SSets share a strategy");
            for game in [cfg(), weak] {
                let reference = plain(&space, &narrow_pool, &game);
                let naive = bits(&reference.evaluate_naive(&asg, 13, 4));
                let dedup = bits(&reference.evaluate_distinct(&census(&asg), PayoffKind::Sampled, None));
                let cache = PayoffCache::new(game);
                for cached in [None, Some(&cache), Some(&cache)] {
                    let label = format!("memory {n} lifted to {m}, {:?}, cache {}", game.payoff, cached.map_or(0, |c| c.len()));
                    let pp = PairPayoff::new(&wider, &lifted_pool, &game, cached);
                    for (i, want) in naive.iter().enumerate() {
                        assert_eq!(pp.evaluate_one(&asg, 13, 4, i).to_bits(), *want, "{label}: one {i}");
                    }
                    assert_eq!(bits(&pp.evaluate_naive(&asg, 13, 4)), naive, "{label}: naive");
                    assert_eq!(bits(&pp.evaluate_distinct(&census(&asg), PayoffKind::Sampled, None)), dedup, "{label}: distinct");
                }
                assert!(!cache.is_empty(), "the cold pass warms the cache");
            }
        }
    }

    /// A pair table against the deduplicating evaluator on a twin cache, at
    /// every mixture of its two strategies: the same fitness bits, and the
    /// same probe tally — four real probes the first time, four hits each
    /// time after.
    #[test]
    fn pair_table_gives_the_bits_and_probes_of_the_deduplicating_evaluator() {
        let weak = GameConfig {
            payoff: PayoffMatrix::from_rstp(1.0, 0.0, 1.85, 0.0),
            ..cfg()
        };
        for (space, _, pool) in [setup_classics(), setup_pure(6, 3, 8)] {
            for game in [cfg(), weak] {
                let (tabled, evaluated) = (PayoffCache::new(game), PayoffCache::new(game));
                let by_table = PairPayoff::new(&space, &pool, &game, Some(&tabled));
                let by_census = PairPayoff::new(&space, &pool, &game, Some(&evaluated));
                let mut table = by_table.pair_table([1, 2]).expect("pure and noiseless");
                let (mut fitness, mut probes) = (Vec::new(), (0, 0));
                for second in [3usize, 1, 7, 4] {
                    let asg: Vec<StratId> = (0..8).map(|i| if i < second { 2 } else { 1 }).collect();
                    table.fitness(&by_table, &asg, &mut fitness);
                    // The evaluator's probes, through the session it opens.
                    let mut session = by_census.session();
                    session.pair_rows(&[1, 2], &[1, 2], PayoffKind::Sampled);
                    probes = (probes.0 + session.hits, probes.1 + session.misses);
                    drop(session);
                    let want = by_census.evaluate_distinct(&census(&asg), PayoffKind::Sampled, None);
                    assert_eq!(bits(&fitness), bits(&want), "mixture {second}/8");
                    assert_eq!((table.hits, table.misses), probes, "mixture {second}/8: probe tally");
                }
                assert_eq!(probes, (12, 4), "four misses, then hits");
                assert_eq!(tabled.len(), 4);
            }
        }
        let (space, _, pool) = setup_mixed(4, 2, 3);
        assert!(PairPayoff::new(&space, &pool, &cfg(), None).pair_table([0, 1]).is_none(), "mixed strategies");
        let (space, _, pool) = setup_classics();
        assert!(PairPayoff::new(&space, &pool, &noisy(10, 0.01), None).pair_table([0, 1]).is_none(), "noise");
    }

    /// Four threads race one cold cache, a session per focal row each: a
    /// session that misses while the others hold theirs takes the write
    /// lock and must get it, and no interleaving changes a bit.
    #[test]
    fn concurrent_sessions_on_a_cold_cache_agree_and_finish() {
        const THREADS: usize = 4;
        let (done, finished) = std::sync::mpsc::channel();
        let work = std::thread::spawn(move || {
            let (space, asg, pool) = setup_pure(40, 3, 9);
            let game = cfg();
            let reference = plain(&space, &pool, &game);
            let cache = PayoffCache::new(game);
            let shared = PairPayoff::new(&space, &pool, &game, Some(&cache));
            let start = std::sync::Barrier::new(THREADS);
            std::thread::scope(|scope| {
                for t in 0..THREADS {
                    let (asg, start) = (&asg, &start);
                    scope.spawn(move || {
                        start.wait();
                        // Each thread starts a quarter of the way round, so
                        // one thread's cold rows are another's warm ones.
                        for row in 0..asg.len() {
                            let a = asg[(row + t * asg.len() / THREADS) % asg.len()];
                            let mut session = shared.session();
                            for &b in asg {
                                let got = session.sampled(a, b, || panic!("deterministic pairs open no stream"));
                                let want = reference.sampled(a, b, || panic!("deterministic pairs open no stream"));
                                assert_eq!(got.to_bits(), want.to_bits(), "thread {t}: ({a},{b})");
                            }
                        }
                    });
                }
            });
            let distinct = asg.iter().collect::<std::collections::BTreeSet<_>>().len();
            assert_eq!(cache.len(), distinct * distinct);
            // The receiver is gone only if the watchdog already fired.
            let _ = done.send(());
        });
        // A deadlocked session would otherwise hang the whole suite.
        match finished.recv_timeout(std::time::Duration::from_secs(120)) {
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                panic!("sessions racing a cold cache did not finish: deadlock")
            }
            // Finished, or failed and dropped the sender: `join` says which.
            _ => work.join().expect("a racing thread failed an assertion"),
        }
    }

    #[test]
    fn cached_evaluate_one_bypasses_cache_for_stochastic_games() {
        let (space, asg, pool) = setup_mixed(8, 8, 51);
        let game = noisy(30, 0.03);
        let cache = PayoffCache::new(game);
        let cached = PairPayoff::new(&space, &pool, &game, Some(&cache));
        // Different generations legitimately re-sample: cached results must
        // track the uncached evaluator, and nothing may be memoised.
        for generation in [0u64, 1, 2] {
            for i in 0..asg.len() {
                let uncached = plain(&space, &pool, &game).evaluate_one(&asg, 21, generation, i);
                assert_eq!(uncached.to_bits(), cached.evaluate_one(&asg, 21, generation, i).to_bits());
            }
        }
        assert!(cache.is_empty(), "stochastic payoffs must never be cached");
    }

    #[test]
    fn warm_cache_hits_reach_the_counters() {
        let space = StateSpace::new(1).unwrap();
        let mut pool = StrategyPool::new();
        let ids = [
            pool.intern(Strategy::Pure(classic::tft(&space))),
            pool.intern(Strategy::Pure(classic::wsls(&space))),
        ];
        let asg: Vec<StratId> = (0..16).map(|i| ids[i % 2]).collect();
        let cache = PayoffCache::new(cfg());
        let game = cfg();
        let pp = PairPayoff::new(&space, &pool, &game, Some(&cache));
        let before = obs::counters().snapshot();
        let cold = pp.evaluate_distinct(&census(&asg), PayoffKind::Sampled, None);
        let mid = obs::counters().snapshot();
        assert!(mid.payoff_cache_misses >= before.payoff_cache_misses + 4);
        let warm = pp.evaluate_distinct(&census(&asg), PayoffKind::Sampled, None);
        let after = obs::counters().snapshot();
        assert!(after.payoff_cache_hits >= mid.payoff_cache_hits + 4);
        assert_eq!(cold, warm);
    }

    #[test]
    fn prewarmed_cache_serves_identical_values() {
        let (space, asg, pool) = setup_pure(24, 2, 61);
        // Cold reference.
        let cold = plain(&space, &pool, &cfg()).evaluate_distinct(&census(&asg), PayoffKind::Sampled, None);
        // Pre-warmed cache: the first evaluation must be all hits and
        // bit-identical to the cold result.
        let cache = PayoffCache::new(cfg());
        let game = cfg();
        let pp = PairPayoff::new(&space, &pool, &game, Some(&cache));
        let n = pp.prewarm(&asg, PayoffKind::Sampled);
        let unique = asg.iter().collect::<std::collections::BTreeSet<_>>().len();
        assert_eq!(n, unique * unique, "every ordered distinct pair memoised");
        assert_eq!(cache.len(), n);
        let before = obs::counters().snapshot();
        let warm = pp.evaluate_distinct(&census(&asg), PayoffKind::Sampled, None);
        let after = obs::counters().snapshot();
        assert_eq!(
            after.payoff_cache_misses, before.payoff_cache_misses,
            "a pre-warmed first evaluation must not miss"
        );
        assert_eq!(bits(&cold), bits(&warm));
    }

    #[test]
    fn prewarm_expected_kind_serves_expected_evaluators() {
        let (space, asg, pool) = setup_mixed(12, 4, 62);
        let game = noisy(40, 0.03);
        let cold = plain(&space, &pool, &game).evaluate_distinct(&census(&asg), PayoffKind::Expected, None);
        let cache = PayoffCache::new(game);
        let pp = PairPayoff::new(&space, &pool, &game, Some(&cache));
        let n = pp.prewarm(&asg, PayoffKind::Expected);
        assert_eq!(n, 16, "4 distinct strategies → 16 Expected entries");
        let warm = pp.evaluate_distinct(&census(&asg), PayoffKind::Expected, None);
        assert_eq!(bits(&cold), bits(&warm));
    }

    #[test]
    fn prewarm_inserts_nothing_for_stochastic_sampled_games() {
        let (space, asg, pool) = setup_mixed(6, 6, 63);
        let game = noisy(20, 0.05);
        let cache = PayoffCache::new(game);
        let n = PairPayoff::new(&space, &pool, &game, Some(&cache))
            .prewarm(&asg, PayoffKind::Sampled);
        assert_eq!(n, 0, "stochastic sampled payoffs must never be memoised");
        assert!(cache.is_empty());
    }

    #[test]
    fn rng_stream_sanity() {
        // game_stream draws differ across (focal, opponent) packing.
        let mut a = game_stream(1, 0, 1, 10, 0);
        let mut b = game_stream(1, 1, 0, 10, 0);
        assert_ne!(a.random::<u64>(), b.random::<u64>());
    }
}
