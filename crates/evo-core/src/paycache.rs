//! Cross-generation pairwise payoff memo-cache.
//!
//! Evolutionary dynamics change at most a couple of assignments per
//! generation (one adoption, one mutation), so consecutive generations
//! re-play almost exactly the same set of distinct strategy pairs.
//! [`PayoffCache`] memoises a pair's focal payoff the first time it is
//! computed and never computes it again for the lifetime of the run.
//!
//! A cached value is the focal player's payoff for one ordered pair of
//! interned strategies under the one [`GameConfig`] the cache was built
//! for; the entry key is `(StratId, StratId, PayoffKind)`, stored as one
//! map per kind under the packed word `a << 32 | b`. The only reader and
//! writer in the engine is [`crate::fitness::PairPayoff`], which decides
//! what may be memoised and probes through a [`Reader`] — one read lock
//! per evaluation, not per pair. The contract — key semantics, why nothing
//! is ever invalidated, what each evaluator probes, locking and
//! determinism under rayon, toggles and counters — is docs/PERFORMANCE.md
//! §2; this module only stores.
//!
//! ```
//! use evo_core::paycache::{PayoffCache, PayoffKind};
//! use ipd::game::GameConfig;
//!
//! let cache = PayoffCache::new(GameConfig::default());
//! assert_eq!(cache.get(0, 1, PayoffKind::Sampled), None); // cold: miss
//! cache.insert(0, 1, PayoffKind::Sampled, 150.0);
//! assert_eq!(cache.get(0, 1, PayoffKind::Sampled), Some(150.0));
//! // Ordered pairs and kinds are distinct entries.
//! assert_eq!(cache.get(1, 0, PayoffKind::Sampled), None);
//! assert_eq!(cache.get(0, 1, PayoffKind::Expected), None);
//! assert_eq!(cache.len(), 1);
//! ```

use crate::pool::StratId;
use ipd::game::GameConfig;
// detlint: allow(hash-iter, reason = "the cache map is lookup/insert only and never iterated, so hasher seed cannot affect any result")
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{RwLock, RwLockReadGuard};

/// Which deterministic evaluator a cached payoff belongs to. The two kinds
/// coincide numerically for pure noiseless pairs but are kept separate so
/// a run mixing fitness modes can never read one mode's value as the
/// other's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PayoffKind {
    /// Focal payoff of a simulated deterministic game
    /// ([`ipd::game::play_deterministic`] or any bit-identical kernel).
    Sampled,
    /// Focal payoff of the exact expectation
    /// ([`ipd::markov::expected_outcome`]).
    Expected,
}

/// Multiply-and-fold hash of one packed pair key. The keys are the
/// program's own dense interned ids, never outside input, so SipHash's
/// collision resistance buys nothing here and costs most of a probe. The
/// fold brings the focal id (the key's high half, which a bare multiply
/// leaves out of the low bits) into the bucket index.
#[derive(Debug, Default, Clone, Copy)]
struct PairHasher(u64);

impl Hasher for PairHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    #[inline]
    fn write_u64(&mut self, key: u64) {
        self.0 = (self.0 ^ key).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

// detlint: allow(hash-iter, reason = "point lookups and inserts only; the maps are never iterated, so bucket order cannot affect any result")
type PairMap = HashMap<u64, f64, BuildHasherDefault<PairHasher>>;

/// The packed word `a << 32 | b` an ordered pair is stored under.
#[inline]
pub(crate) fn pair_key(a: StratId, b: StratId) -> u64 {
    u64::from(a) << 32 | u64::from(b)
}

/// One map per [`PayoffKind`] (indexed by `kind as usize`), keyed by
/// [`pair_key`].
type Maps = [PairMap; 2];

/// A run-scoped memo-cache of ordered-pair focal payoffs. See the module
/// docs for the key semantics and soundness argument.
#[derive(Debug)]
pub struct PayoffCache {
    game: GameConfig,
    maps: RwLock<Maps>,
}

/// The cache's read lock, held across a run of probes
/// ([`PayoffCache::reader`]). Probes through it move no counter: the
/// holder tallies and reports them (`obs::Counter::PayoffCacheHits`,
/// `PayoffCacheMisses`).
///
/// While a thread holds a `Reader` it must not call
/// [`PayoffCache::get`], [`PayoffCache::insert`], [`PayoffCache::len`] or
/// [`PayoffCache::clear`] on the same cache — `std`'s `RwLock` is not
/// re-entrant once a writer queues. Drop the reader first.
#[derive(Debug)]
pub struct Reader<'a>(RwLockReadGuard<'a, Maps>);

impl Reader<'_> {
    /// The memoised focal payoff of the ordered pair `(a, b)`, if any.
    #[inline]
    pub fn get(&self, a: StratId, b: StratId, kind: PayoffKind) -> Option<f64> {
        self.0[kind as usize].get(&pair_key(a, b)).copied()
    }
}

impl PayoffCache {
    /// An empty cache pinned to `game`. Every later access must present
    /// the same configuration ([`PayoffCache::assert_game`]).
    pub fn new(game: GameConfig) -> Self {
        PayoffCache {
            game,
            maps: RwLock::default(),
        }
    }

    /// The game configuration this cache's entries are valid for.
    pub fn game(&self) -> &GameConfig {
        &self.game
    }

    /// Panic unless `game` matches the pinned configuration — the guard
    /// that makes the compressed `(StratId, StratId, PayoffKind)` key
    /// equivalent to the full `(strategy, strategy, rounds, noise)` key.
    pub fn assert_game(&self, game: &GameConfig) {
        assert_eq!(
            &self.game, game,
            "payoff cache used with a different GameConfig than it was built for"
        );
    }

    /// Take the read lock for a run of probes.
    pub fn reader(&self) -> Reader<'_> {
        Reader(self.maps.read().expect("payoff cache lock poisoned"))
    }

    /// Look up the focal payoff of the ordered pair `(a, b)`, recording a
    /// hit or miss in the observability counters: a one-probe
    /// [`PayoffCache::reader`].
    pub fn get(&self, a: StratId, b: StratId, kind: PayoffKind) -> Option<f64> {
        let hit = self.reader().get(a, b, kind);
        let probe = if hit.is_some() { obs::Counter::PayoffCacheHits } else { obs::Counter::PayoffCacheMisses };
        obs::counters().add(probe, 1);
        hit
    }

    /// Memoise the focal payoff of the ordered pair `(a, b)`. Duplicate
    /// inserts (rayon workers racing on the same miss) write the same
    /// value, so last-write-wins is benign.
    pub fn insert(&self, a: StratId, b: StratId, kind: PayoffKind, value: f64) {
        let mut maps = self.maps.write().expect("payoff cache lock poisoned");
        maps[kind as usize].insert(pair_key(a, b), value);
    }

    /// Number of memoised pairs, both kinds together.
    pub fn len(&self) -> usize {
        self.reader().0.iter().map(PairMap::len).sum()
    }

    /// `true` when nothing is memoised yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every entry (cost-only: subsequent evaluations recompute the
    /// identical values).
    pub fn clear(&self) {
        let mut maps = self.maps.write().expect("payoff cache lock poisoned");
        maps.iter_mut().for_each(PairMap::clear);
    }
}

impl Clone for PayoffCache {
    fn clone(&self) -> Self {
        PayoffCache {
            game: self.game,
            maps: RwLock::new(self.reader().0.clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_insert_roundtrip_is_ordered_and_kinded() {
        let c = PayoffCache::new(GameConfig::default());
        c.insert(3, 5, PayoffKind::Sampled, 42.0);
        assert_eq!(c.get(3, 5, PayoffKind::Sampled), Some(42.0));
        assert_eq!(c.get(5, 3, PayoffKind::Sampled), None, "ordered pairs");
        assert_eq!(c.get(3, 5, PayoffKind::Expected), None, "kinds are distinct");
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn packed_keys_keep_order_kind_and_extreme_ids_apart() {
        let c = PayoffCache::new(GameConfig::default());
        let ids = [0, 1, 1 << 31, u32::MAX];
        let kinds = [PayoffKind::Sampled, PayoffKind::Expected];
        // One distinct value per (a, b, kind): any aliasing between
        // swapped pairs, kinds or the id bit patterns shows as a wrong
        // value below.
        let value = |i: usize, j: usize, k: usize| (i * 100 + j * 10 + k) as f64;
        for (i, &a) in ids.iter().enumerate() {
            for (j, &b) in ids.iter().enumerate() {
                for (k, &kind) in kinds.iter().enumerate() {
                    assert_eq!(c.reader().get(a, b, kind), None);
                    c.insert(a, b, kind, value(i, j, k));
                }
            }
        }
        assert_eq!(c.len(), 32, "len counts both kinds");
        let reader = c.reader();
        for (i, &a) in ids.iter().enumerate() {
            for (j, &b) in ids.iter().enumerate() {
                for (k, &kind) in kinds.iter().enumerate() {
                    assert_eq!(reader.get(a, b, kind), Some(value(i, j, k)), "({a}, {b}, {kind:?})");
                }
            }
        }
        drop(reader);
        // The one-shot `get` reads the same entries.
        assert_eq!(c.get(u32::MAX, 0, PayoffKind::Expected), Some(value(3, 0, 1)));
        let d = c.clone();
        c.clear();
        assert!(c.is_empty());
        assert_eq!(d.len(), 32);
        assert_eq!(d.get(1 << 31, 1, PayoffKind::Sampled), Some(value(2, 1, 0)));
    }

    #[test]
    fn bucket_index_depends_on_both_ids() {
        // hashbrown indexes buckets by the low bits: a hash whose low bits
        // ignored the focal id (a bare multiply of `a << 32 | b`) would put
        // every row of the pair matrix on the same few buckets.
        let low = |a: StratId, b: StratId| {
            let mut h = PairHasher::default();
            h.write_u64(pair_key(a, b));
            h.finish() & 0xff
        };
        let by_focal: std::collections::BTreeSet<u64> = (0..64).map(|a| low(a, 7)).collect();
        let by_opponent: std::collections::BTreeSet<u64> = (0..64).map(|b| low(7, b)).collect();
        assert!(by_focal.len() > 32, "{} low-bit patterns over 64 focal ids", by_focal.len());
        assert!(by_opponent.len() > 32, "{} low-bit patterns over 64 opponents", by_opponent.len());
    }

    #[test]
    fn hits_and_misses_reach_the_counters() {
        let before = obs::counters().snapshot();
        let c = PayoffCache::new(GameConfig::default());
        assert_eq!(c.get(0, 0, PayoffKind::Sampled), None);
        c.insert(0, 0, PayoffKind::Sampled, 1.0);
        assert_eq!(c.get(0, 0, PayoffKind::Sampled), Some(1.0));
        let after = obs::counters().snapshot();
        assert!(after.payoff_cache_misses > before.payoff_cache_misses);
        assert!(after.payoff_cache_hits > before.payoff_cache_hits);
    }

    #[test]
    fn clone_copies_entries_and_clear_empties() {
        let c = PayoffCache::new(GameConfig::default());
        c.insert(1, 2, PayoffKind::Expected, 7.5);
        let d = c.clone();
        c.clear();
        assert!(c.is_empty());
        assert_eq!(d.get(1, 2, PayoffKind::Expected), Some(7.5));
    }

    #[test]
    #[should_panic(expected = "different GameConfig")]
    fn rejects_mismatched_game_config() {
        let c = PayoffCache::new(GameConfig::default());
        let other = GameConfig {
            rounds: 7,
            ..GameConfig::default()
        };
        c.assert_game(&other);
    }
}
