//! Strategy interning — the Nature Agent's "records keeper" role (§V).
//!
//! The paper minimises memory by having the Nature Agent maintain "record of
//! strategies assigned to SSets throughout the generations" while nodes hold
//! only "strategies currently held by other SSets". We intern each distinct
//! strategy once in a [`StrategyPool`] and represent the population as a
//! `Vec<StratId>` — the paper's `SSet_strat` array of "strategy IDs assigned
//! to all SSets". Interning also lets the deduplicated fitness evaluator
//! ([`crate::fitness`]) play each distinct strategy pair only once.
//!
//! Whatever a generation needs to know about *which* strategies its SSets
//! hold — the distinct ids the deduplicated evaluator plays, their
//! multiplicities, the count a record reports — comes from one [`census`]
//! of the assignment array. It counts into a flat per-thread tally indexed
//! by [`StratId`] and resets only the entries it touched, so it costs
//! O(s + u log u) for s SSets holding u distinct strategies, however many
//! strategies the pool has interned over the run (docs/PERFORMANCE.md
//! §2.1).

use ipd::strategy::Strategy;
use std::cell::RefCell;
// detlint: allow(hash-iter, reason = "interning index is point-lookup only; never iterated, so hash order cannot reach any result")
use std::collections::HashMap;
use std::sync::Arc;

/// Index of an interned strategy within a [`StrategyPool`].
pub type StratId = u32;

/// An append-only interning pool of strategies.
///
/// Ids are stable for the lifetime of the pool; re-interning an existing
/// strategy returns its original id. Old strategies are retained even after
/// no SSet holds them, preserving the Nature Agent's full genealogy record
/// (a run mutates at rate μ, so growth is bounded by `μ · generations`).
#[derive(Debug, Clone, Default)]
pub struct StrategyPool {
    entries: Vec<Arc<Strategy>>,
    // detlint: allow(hash-iter, reason = "point lookups via get/insert only; iteration happens over `entries`, which is id-ordered")
    index: HashMap<Arc<Strategy>, StratId>,
}

impl StrategyPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a strategy, returning its stable id.
    pub fn intern(&mut self, strategy: Strategy) -> StratId {
        if let Some(&id) = self.index.get(&strategy) {
            return id;
        }
        let arc = Arc::new(strategy);
        let id = self.entries.len() as StratId;
        self.entries.push(Arc::clone(&arc));
        self.index.insert(arc, id);
        id
    }

    /// The strategy for an id. Panics on an id not issued by this pool.
    #[inline]
    pub fn get(&self, id: StratId) -> &Arc<Strategy> {
        &self.entries[id as usize]
    }

    /// Look up the id of a strategy if it is interned.
    pub fn id_of(&self, strategy: &Strategy) -> Option<StratId> {
        self.index.get(strategy).copied()
    }

    /// Number of distinct strategies ever interned.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if nothing has been interned.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate `(id, strategy)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (StratId, &Arc<Strategy>)> {
        self.entries
            .iter()
            .enumerate()
            .map(|(i, s)| (i as StratId, s))
    }
}

thread_local! {
    /// This thread's tally: `TALLY[id]` counts SSets holding `id` while a
    /// census runs and is 0 between censuses. Grow-only, 4 B per id up to
    /// the largest id this thread has counted.
    static TALLY: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// Run `f` on this thread's tally, grown to hold id `top`. `f` must leave
/// every entry it touched at 0.
fn with_tally<R>(top: StratId, f: impl FnOnce(&mut [u32]) -> R) -> R {
    TALLY.with(|tally| {
        // Cannot re-enter: both callers pass census code that calls out to
        // nothing (no callback, no user type's code), so no second borrow
        // of this thread's tally can start while this one is held.
        let mut tally = tally.borrow_mut();
        let len = top as usize + 1;
        if tally.len() < len {
            tally.resize(len, 0);
        }
        f(&mut tally[..len])
    })
}

/// The distinct strategies among a population's assignments, counted once
/// — see [`census`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Census<'a> {
    assignments: &'a [StratId],
    ids: Vec<StratId>,
    counts: Vec<u32>,
}

impl<'a> Census<'a> {
    /// The assignments this census counted.
    pub fn assignments(&self) -> &'a [StratId] {
        self.assignments
    }

    /// The distinct ids, ascending.
    pub fn ids(&self) -> &[StratId] {
        &self.ids
    }

    /// `counts()[k]` = the number of SSets holding `ids()[k]`; they sum to
    /// the number of SSets.
    pub fn counts(&self) -> &[u32] {
        &self.counts
    }

    /// u, the number of distinct ids.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` for a census of no SSets.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Spread one value per distinct id (`rows[k]` belongs to `ids()[k]`)
    /// back to the SSets: element `i` of the result is the row of the id
    /// SSet `i` holds. O(s + u); panics if `rows` is not one per id.
    pub fn spread<T: Copy>(&self, rows: &[T]) -> Vec<T> {
        assert_eq!(rows.len(), self.ids.len(), "one row per distinct id");
        with_tally(self.ids.last().copied().unwrap_or(0), |tally| {
            for (k, &id) in self.ids.iter().enumerate() {
                tally[id as usize] = k as u32;
            }
            let spread = self.assignments.iter().map(|&id| rows[tally[id as usize] as usize]).collect();
            for &id in &self.ids {
                tally[id as usize] = 0;
            }
            spread
        })
    }
}

/// Count a population's strategies: the distinct ids among `assignments`
/// in ascending order, each with its exact number of SSets.
///
/// O(s + u log u), independent of how many strategies the pool holds:
/// the count goes into this thread's flat tally, which only grows, and
/// only the u entries touched are reset. Ascending order and integer
/// counts make every sum weighted by them run in one fixed order, so its
/// bits are stable run to run and across threads.
pub fn census(assignments: &[StratId]) -> Census<'_> {
    with_tally(assignments.iter().copied().max().unwrap_or(0), |tally| {
        let mut ids = Vec::new();
        for &id in assignments {
            let count = &mut tally[id as usize];
            if *count == 0 {
                ids.push(id);
            }
            *count += 1;
        }
        ids.sort_unstable();
        let counts = ids.iter().map(|&id| std::mem::take(&mut tally[id as usize])).collect();
        Census {
            assignments,
            ids,
            counts,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipd::classic;
    use ipd::state::StateSpace;
    use ipd::strategy::PureStrategy;

    fn sp() -> StateSpace {
        StateSpace::new(1).unwrap()
    }

    #[test]
    fn interning_deduplicates() {
        let mut pool = StrategyPool::new();
        let a = pool.intern(Strategy::Pure(classic::tft(&sp())));
        let b = pool.intern(Strategy::Pure(classic::wsls(&sp())));
        let a2 = pool.intern(Strategy::Pure(classic::tft(&sp())));
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(pool.len(), 2);
    }

    #[test]
    fn ids_are_dense_and_stable() {
        let mut pool = StrategyPool::new();
        let ids: Vec<StratId> = (0..16u8)
            .map(|i| {
                pool.intern(Strategy::Pure(PureStrategy::from_memory_one_index(sp(), i)))
            })
            .collect();
        assert_eq!(ids, (0..16).collect::<Vec<StratId>>());
        // Getting back what was put in.
        for (i, &id) in ids.iter().enumerate() {
            match pool.get(id).as_ref() {
                Strategy::Pure(p) => {
                    assert_eq!(*p, PureStrategy::from_memory_one_index(sp(), i as u8));
                }
                _ => panic!("wrong kind"),
            }
        }
    }

    #[test]
    fn id_of_finds_only_interned() {
        let mut pool = StrategyPool::new();
        let tft = Strategy::Pure(classic::tft(&sp()));
        assert_eq!(pool.id_of(&tft), None);
        let id = pool.intern(tft.clone());
        assert_eq!(pool.id_of(&tft), Some(id));
    }

    #[test]
    fn iter_visits_in_id_order() {
        let mut pool = StrategyPool::new();
        pool.intern(Strategy::Pure(classic::all_c(&sp())));
        pool.intern(Strategy::Pure(classic::all_d(&sp())));
        let ids: Vec<StratId> = pool.iter().map(|(i, _)| i).collect();
        assert_eq!(ids, vec![0, 1]);
    }

    #[test]
    fn empty_pool() {
        let pool = StrategyPool::new();
        assert!(pool.is_empty());
        assert_eq!(pool.len(), 0);
    }

    /// The census as a `BTreeMap` would take it: ascending `(id, count)`.
    fn reference(assignments: &[StratId]) -> Vec<(StratId, u32)> {
        let mut counts = std::collections::BTreeMap::new();
        for &id in assignments {
            *counts.entry(id).or_insert(0) += 1;
        }
        counts.into_iter().collect()
    }

    /// `census` against the reference, plus what it promises beyond it:
    /// counts summing to s, and `spread` giving each SSet its id's row.
    fn check(assignments: &[StratId]) {
        let c = census(assignments);
        let pairs: Vec<(StratId, u32)> = c.ids().iter().copied().zip(c.counts().iter().copied()).collect();
        assert_eq!(pairs, reference(assignments), "census of {assignments:?}");
        assert!(c.ids().windows(2).all(|w| w[0] < w[1]), "ascending ids");
        assert_eq!(c.counts().iter().map(|&n| n as usize).sum::<usize>(), assignments.len());
        assert_eq!((c.len(), c.is_empty()), (pairs.len(), assignments.is_empty()));
        assert_eq!(c.assignments(), assignments);
        assert_eq!(census(assignments), c, "the census left its tally clean");
        let rows: Vec<usize> = (0..c.len()).collect();
        let spread: Vec<StratId> = c.spread(&rows).into_iter().map(|k| c.ids()[k]).collect();
        assert_eq!(spread, assignments, "spread hands every SSet its own id's row");
    }

    mod census_properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Dense ids with heavy duplication, as a well-mixed run holds
            /// them; then, on the same thread, sparse ids up to 100 000
            /// (a long run's pool) and a disjoint repeat — each must match
            /// the reference, so the tally was left clean every time.
            #[test]
            fn census_matches_a_btreemap(
                dense in prop::collection::vec(0u32..16, 0..600),
                sparse in prop::collection::vec(0u32..100_000, 8),
                shift in 1u32..1000,
            ) {
                check(&dense);
                check(&sparse);
                let disjoint: Vec<StratId> = sparse.iter().map(|&id| id + 100_000 + shift).collect();
                check(&disjoint);
                check(&dense);
            }
        }
    }

    #[test]
    fn census_edge_cases() {
        check(&[]);
        assert_eq!(census(&[]).spread::<f64>(&[]), Vec::<f64>::new());
        check(&[7; 512]);
        check(&[0]);
        check(&[199_999, 0, 199_999]);
        check(&[]);
        let c = census(&[3, 1, 3, 3]);
        assert_eq!((c.ids(), c.counts()), (&[1, 3][..], &[1, 3][..]));
        assert_eq!(c.spread(&[10.0, 30.0]), vec![30.0, 10.0, 30.0, 30.0]);
    }

    #[test]
    #[should_panic(expected = "one row per distinct id")]
    fn spread_needs_one_row_per_id() {
        census(&[1, 2]).spread(&[0.0]);
    }

    /// Censuses on several threads at once: each thread's tally is its own.
    #[test]
    fn censuses_on_concurrent_threads_agree_with_the_reference() {
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let start = &start;
                scope.spawn(move || {
                    start.wait();
                    for round in 0..200u32 {
                        let assignments: Vec<StratId> =
                            (0..64u32).map(|i| (i * 7 + round * 13 + t * 1000) % (50 + 97 * t + round)).collect();
                        check(&assignments);
                    }
                });
            }
        });
    }
}
