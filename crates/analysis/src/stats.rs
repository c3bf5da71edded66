//! Population statistics over snapshots.
//!
//! Supports the paper's §VI-A claims — "85% of all SSets have adopted the
//! strategy of \[0101\], which is WSLS" — and general diagnostics of evolved
//! populations.

use evo_core::pool::{census, StratId};
use evo_core::record::PopulationSnapshot;

/// Abundance of each strategy id: `(id, count)` sorted by descending count
/// (ties by ascending id).
pub fn abundance(snapshot: &PopulationSnapshot) -> Vec<(StratId, usize)> {
    let census = census(&snapshot.assignments);
    let mut v: Vec<(StratId, usize)> =
        census.ids().iter().zip(census.counts()).map(|(&id, &count)| (id, count as usize)).collect();
    // A stable sort of the census's ascending ids: ties stay by id.
    v.sort_by_key(|&(_, count)| std::cmp::Reverse(count));
    v
}

/// The most abundant strategy id and the fraction of SSets holding it.
pub fn dominant_strategy(snapshot: &PopulationSnapshot) -> (StratId, f64) {
    let ab = abundance(snapshot);
    let (id, count) = ab[0];
    (id, count as f64 / snapshot.num_ssets() as f64)
}

/// Fraction of SSets whose strategy feature vector is within `tolerance`
/// (L∞) of `target` — e.g. how much of the population is (near-)WSLS. For
/// pure populations use `tolerance = 0.0`; the paper's probabilistic
/// validation run counts strategies that round to WSLS, i.e.
/// `tolerance = 0.5`.
pub fn fraction_matching(snapshot: &PopulationSnapshot, target: &[f64], tolerance: f64) -> f64 {
    let n = snapshot.num_ssets();
    let hits = snapshot
        .features
        .iter()
        .filter(|f| {
            f.len() == target.len()
                && f.iter()
                    .zip(target)
                    .all(|(a, b)| (a - b).abs() <= tolerance + 1e-12)
        })
        .count();
    hits as f64 / n as f64
}

/// Mean per-state cooperation probability across the population.
pub fn mean_cooperativity(snapshot: &PopulationSnapshot) -> f64 {
    let mut total = 0.0;
    let mut n = 0usize;
    for f in &snapshot.features {
        total += f.iter().sum::<f64>();
        n += f.len();
    }
    if n == 0 {
        0.0
    } else {
        total / n as f64
    }
}

/// Shannon diversity (nats) of the strategy-id distribution: 0 when the
/// population has fixated, `ln(S)` when every SSet differs.
pub fn shannon_diversity(snapshot: &PopulationSnapshot) -> f64 {
    let n = snapshot.num_ssets() as f64;
    abundance(snapshot)
        .iter()
        .map(|&(_, c)| {
            let p = c as f64 / n;
            -p * p.ln()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(assignments: Vec<StratId>, features: Vec<Vec<f64>>) -> PopulationSnapshot {
        PopulationSnapshot {
            generation: 0,
            assignments,
            features,
        }
    }

    #[test]
    fn abundance_sorts_by_count() {
        let s = snap(
            vec![2, 1, 2, 2, 3, 1],
            vec![vec![0.0]; 6],
        );
        assert_eq!(abundance(&s), vec![(2, 3), (1, 2), (3, 1)]);
    }

    #[test]
    fn abundance_breaks_ties_by_id() {
        let s = snap(vec![5, 4, 5, 4], vec![vec![0.0]; 4]);
        assert_eq!(abundance(&s), vec![(4, 2), (5, 2)]);
    }

    #[test]
    fn dominant_strategy_fraction() {
        let s = snap(vec![7, 7, 7, 1], vec![vec![0.0]; 4]);
        let (id, frac) = dominant_strategy(&s);
        assert_eq!(id, 7);
        assert_eq!(frac, 0.75);
    }

    #[test]
    fn fraction_matching_exact_and_tolerant() {
        let wsls = vec![1.0, 0.0, 0.0, 1.0];
        let s = snap(
            vec![0, 1, 2, 3],
            vec![
                vec![1.0, 0.0, 0.0, 1.0],  // exactly WSLS
                vec![0.9, 0.1, 0.2, 0.8],  // near-WSLS
                vec![0.0, 1.0, 1.0, 0.0],  // anti-WSLS
                vec![1.0, 1.0, 1.0, 1.0],  // ALLC
            ],
        );
        assert_eq!(fraction_matching(&s, &wsls, 0.0), 0.25);
        assert_eq!(fraction_matching(&s, &wsls, 0.25), 0.5);
        // Rounding tolerance (0.5, open at ties favouring match).
        assert!(fraction_matching(&s, &wsls, 0.49) >= 0.5);
    }

    #[test]
    fn mean_cooperativity_averages_everything() {
        let s = snap(
            vec![0, 1],
            vec![vec![1.0, 1.0], vec![0.0, 0.0]],
        );
        assert_eq!(mean_cooperativity(&s), 0.5);
    }

    #[test]
    fn shannon_diversity_limits() {
        // Fixated population.
        let fix = snap(vec![3; 10], vec![vec![0.0]; 10]);
        assert!(shannon_diversity(&fix).abs() < 1e-12);
        // Maximal diversity: 4 distinct ids.
        let max = snap(vec![0, 1, 2, 3], vec![vec![0.0]; 4]);
        assert!((shannon_diversity(&max) - 4.0f64.ln()).abs() < 1e-12);
    }

    /// The engine's count, the snapshot's and the abundance table agree on
    /// every generation of a mutating run.
    #[test]
    fn every_count_of_one_population_agrees() {
        use evo_core::params::Params;
        use evo_core::population::Population;
        let params = Params {
            num_ssets: 24,
            mutation_rate: 0.3,
            seed: 5,
            ..Params::default()
        };
        let mut pop = Population::new(params).unwrap();
        pop.dedup = true;
        for _ in 0..40 {
            pop.step();
            let snap = pop.snapshot();
            let ab = abundance(&snap);
            assert_eq!(pop.distinct_strategies(), snap.distinct_strategies());
            assert_eq!(ab.len(), snap.distinct_strategies());
            assert_eq!(ab.iter().map(|&(_, n)| n).sum::<usize>(), 24);
            for &(id, n) in &ab {
                assert_eq!(n, snap.assignments.iter().filter(|&&a| a == id).count(), "count of {id}");
            }
        }
        assert!(pop.pool().len() > pop.distinct_strategies(), "mutants came and went");
    }

    #[test]
    fn diversity_monotone_under_merging() {
        let diverse = snap(vec![0, 1, 2, 3], vec![vec![0.0]; 4]);
        let merged = snap(vec![0, 0, 2, 3], vec![vec![0.0]; 4]);
        assert!(shannon_diversity(&merged) < shannon_diversity(&diverse));
    }
}
