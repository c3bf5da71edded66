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
//! for; the entry key is `(StratId, StratId, PayoffKind)`. The only
//! reader and writer in the engine is [`crate::fitness::PairPayoff`],
//! which decides what may be memoised. The contract — key semantics, why
//! nothing is ever invalidated, what each evaluator probes, determinism
//! under rayon, toggles and counters — is docs/PERFORMANCE.md §2; this
//! module only stores.
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
use std::sync::RwLock;

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

/// A run-scoped memo-cache of ordered-pair focal payoffs. See the module
/// docs for the key semantics and soundness argument.
#[derive(Debug)]
pub struct PayoffCache {
    game: GameConfig,
    // detlint: allow(hash-iter, reason = "point lookups and inserts only; the map is never iterated, so hasher seed cannot affect any result")
    map: RwLock<HashMap<(StratId, StratId, PayoffKind), f64>>,
}

impl PayoffCache {
    /// An empty cache pinned to `game`. Every later access must present
    /// the same configuration ([`PayoffCache::assert_game`]).
    pub fn new(game: GameConfig) -> Self {
        PayoffCache {
            game,
            // detlint: allow(hash-iter, reason = "point lookups and inserts only; never iterated")
            map: RwLock::new(HashMap::new()),
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

    /// Look up the focal payoff of the ordered pair `(a, b)`, recording a
    /// hit or miss in the observability counters.
    pub fn get(&self, a: StratId, b: StratId, kind: PayoffKind) -> Option<f64> {
        let hit = self
            .map
            .read()
            .expect("payoff cache lock poisoned")
            .get(&(a, b, kind))
            .copied();
        match hit {
            Some(_) => obs::counters().add_payoff_cache_hit(),
            None => obs::counters().add_payoff_cache_miss(),
        }
        hit
    }

    /// Memoise the focal payoff of the ordered pair `(a, b)`. Duplicate
    /// inserts (rayon workers racing on the same miss) write the same
    /// value, so last-write-wins is benign.
    pub fn insert(&self, a: StratId, b: StratId, kind: PayoffKind, value: f64) {
        self.map
            .write()
            .expect("payoff cache lock poisoned")
            .insert((a, b, kind), value);
    }

    /// Number of memoised pairs.
    pub fn len(&self) -> usize {
        self.map.read().expect("payoff cache lock poisoned").len()
    }

    /// `true` when nothing is memoised yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every entry (cost-only: subsequent evaluations recompute the
    /// identical values).
    pub fn clear(&self) {
        self.map
            .write()
            .expect("payoff cache lock poisoned")
            .clear();
    }
}

impl Clone for PayoffCache {
    fn clone(&self) -> Self {
        PayoffCache {
            game: self.game,
            map: RwLock::new(self.map.read().expect("payoff cache lock poisoned").clone()),
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
