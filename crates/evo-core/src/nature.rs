//! The Nature Agent: population dynamics (paper §IV-B, §IV-E).
//!
//! The Nature Agent "acts as a master, keeping track of the strategy
//! assigned to each SSet and associated fitnesses … but also controls the
//! rate of mutations and determines which agents are impacted both by
//! mutations and pairwise comparisons". Per generation it:
//!
//! 1. with probability `pc_rate` initiates a **pairwise comparison**: two
//!    random distinct SSets are chosen, one designated *teacher* and one
//!    *learner*; if the teacher's fitness is higher, the learner adopts the
//!    teacher's strategy with the Fermi probability of Eq. 1;
//! 2. with probability `mutation_rate` (μ) assigns a freshly generated
//!    random strategy to a random SSet.
//!
//! All decisions draw from counter-based streams keyed by the generation, so
//! the schedule is a pure function of `(seed, generation)` — exactly the
//! property that lets the distributed engine's rank 0 and the shared-memory
//! engine make identical choices.

use crate::fermi::fermi_probability;
use crate::params::{MutationKind, Params, StrategyKind};
use crate::pool::StratId;
use crate::rngstream::{stream, Domain};
use ipd::state::StateSpace;
use ipd::strategy::Strategy;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// What the Nature Agent decided to do in one generation, before fitness is
/// known. Computing this first lets the engine skip fitness evaluation in
/// generations with no pairwise comparison (the `OnDemand` policy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GenSchedule {
    /// `(teacher, learner)` SSet indices if a pairwise comparison occurs.
    pub pc: Option<(u32, u32)>,
    /// Target SSet index if a mutation occurs.
    pub mutation: Option<u32>,
}

/// A population-dynamics event that actually changed (or could have
/// changed) the population, recorded for analysis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Event {
    /// A pairwise comparison took place.
    PairwiseComparison {
        /// Teacher SSet index.
        teacher: u32,
        /// Learner SSet index.
        learner: u32,
        /// Teacher's relative fitness π_T.
        teacher_fitness: f64,
        /// Learner's relative fitness π_L.
        learner_fitness: f64,
        /// The Fermi adoption probability that was used.
        p: f64,
        /// Whether the learner adopted the teacher's strategy.
        adopted: bool,
    },
    /// A random new strategy was assigned to an SSet.
    Mutation {
        /// The SSet that received the new strategy.
        sset: u32,
        /// Interned id of the new strategy.
        strategy: StratId,
    },
    /// A Moran birth-death step: `victim` adopted `parent`'s strategy
    /// (parent chosen proportional to fitness).
    Moran {
        /// The reproducing SSet.
        parent: u32,
        /// The replaced SSet.
        victim: u32,
    },
    /// Best-takes-over imitation: `learner` adopted the fittest SSet's
    /// strategy.
    ImitateBest {
        /// The fittest SSet (lowest index on ties).
        best: u32,
        /// The imitating SSet.
        learner: u32,
    },
}

/// The Nature Agent's configuration and decision logic.
#[derive(Debug, Clone)]
pub struct NatureAgent {
    /// Probability per generation of a pairwise-comparison event.
    pub pc_rate: f64,
    /// Probability per generation of a mutation event (μ).
    pub mutation_rate: f64,
    /// Fermi selection intensity β.
    pub beta: f64,
    /// Gate adoption on the teacher being strictly fitter (paper-faithful)
    /// versus the ungated standard Fermi process.
    pub teacher_must_be_fitter: bool,
    /// Strategy family for mutations.
    pub kind: StrategyKind,
    /// Mutation operator.
    pub mutation_kind: MutationKind,
    /// Master seed.
    pub seed: u64,
}

impl NatureAgent {
    /// The Nature Agent a parameter set implies. Both engines construct
    /// theirs through this, so the dynamics configuration cannot drift
    /// between backends.
    pub fn from_params(params: &Params) -> Self {
        NatureAgent {
            pc_rate: params.pc_rate,
            mutation_rate: params.mutation_rate,
            beta: params.beta,
            teacher_must_be_fitter: params.teacher_must_be_fitter,
            kind: params.kind,
            mutation_kind: params.mutation_kind,
            seed: params.seed,
        }
    }

    /// Decide the generation's schedule — PC pair and mutation target — as a
    /// pure function of `(seed, generation)`.
    pub fn schedule(&self, num_ssets: u32, generation: u64) -> GenSchedule {
        debug_assert!(num_ssets >= 2);
        let mut nrng = stream(self.seed, Domain::Nature, 0, generation);
        let pc = if nrng.random::<f64>() < self.pc_rate {
            let teacher = nrng.random_range(0..num_ssets);
            // Rejection-sample a distinct learner; comparing an SSet with
            // itself is a no-op the paper does not intend.
            let learner = loop {
                let l = nrng.random_range(0..num_ssets);
                if l != teacher {
                    break l;
                }
            };
            Some((teacher, learner))
        } else {
            None
        };
        let mut mrng = stream(self.seed, Domain::Mutation, 0, generation);
        let mutation = if mrng.random::<f64>() < self.mutation_rate {
            Some(mrng.random_range(0..num_ssets))
        } else {
            None
        };
        GenSchedule { pc, mutation }
    }

    /// Resolve a scheduled pairwise comparison given both fitnesses:
    /// returns `(p, adopted)` where `p` is the Fermi probability actually
    /// applied. Follows the paper's pseudocode: adoption is considered only
    /// when the teacher is strictly fitter (unless
    /// `teacher_must_be_fitter = false`, the standard ungated rule).
    pub fn resolve_pc(
        &self,
        fitness_teacher: f64,
        fitness_learner: f64,
        generation: u64,
    ) -> (f64, bool) {
        let p = fermi_probability(self.beta, fitness_teacher, fitness_learner);
        if self.teacher_must_be_fitter && fitness_teacher <= fitness_learner {
            return (p, false);
        }
        let mut rng = stream(self.seed, Domain::Nature, 1, generation);
        let adopted = rng.random::<f64>() < p;
        (p, adopted)
    }

    /// Moran birth-death picks: the parent is sampled proportional to
    /// fitness (uniformly when the total fitness is zero, negative, or
    /// non-finite — an infinite payoff or an all-zero generation must not
    /// degenerate into NaN selection weights or a silent last-index pick),
    /// the victim uniformly. Deterministic per `(seed, generation)`.
    pub fn moran_pick(&self, fitness: &[f64], generation: u64) -> (u32, u32) {
        let mut rng = stream(self.seed, Domain::Nature, 2, generation);
        let total: f64 = fitness.iter().sum();
        let parent = if total <= 0.0 || !total.is_finite() {
            rng.random_range(0..fitness.len() as u32)
        } else {
            let mut target = rng.random::<f64>() * total;
            let mut chosen = fitness.len() - 1;
            for (i, &f) in fitness.iter().enumerate() {
                if target < f {
                    chosen = i;
                    break;
                }
                target -= f;
            }
            chosen as u32
        };
        let victim = rng.random_range(0..fitness.len() as u32);
        (parent, victim)
    }

    /// Best-takes-over picks: the fittest SSet (lowest index on ties) and
    /// a uniformly chosen learner.
    pub fn imitate_best_pick(&self, fitness: &[f64], generation: u64) -> (u32, u32) {
        let best = fitness
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1).then(b.0.cmp(&a.0)))
            .map(|(i, _)| i as u32)
            .expect("nonempty fitness");
        let mut rng = stream(self.seed, Domain::Nature, 2, generation);
        let learner = rng.random_range(0..fitness.len() as u32);
        (best, learner)
    }

    /// Generate the new strategy for a scheduled mutation. `Fresh` is the
    /// paper's `gen_new_strat()` (uniform draw); `PointFlip` perturbs the
    /// target's `current` strategy locally.
    pub fn mutation_strategy(
        &self,
        space: &StateSpace,
        generation: u64,
        current: &Strategy,
    ) -> Strategy {
        let mut rng = stream(self.seed, Domain::Mutation, 1, generation);
        match self.mutation_kind {
            MutationKind::Fresh => {
                Strategy::random(*space, matches!(self.kind, StrategyKind::Mixed), &mut rng)
            }
            MutationKind::PointFlip { states } => {
                let k = states.clamp(1, space.num_states());
                // Choose k distinct states via rejection; apply in sorted
                // order so the probability redraws below consume the RNG
                // deterministically (set iteration order is not).
                let mut set = std::collections::BTreeSet::new();
                while set.len() < k {
                    set.insert(rng.random_range(0..space.num_states() as u16));
                }
                let chosen: Vec<u16> = set.into_iter().collect();
                match current {
                    Strategy::Pure(p) => {
                        let mut q = p.clone();
                        for &st in &chosen {
                            q.set_move(st, q.move_for(st).flipped());
                        }
                        Strategy::Pure(q)
                    }
                    Strategy::Mixed(m) => {
                        let mut probs = m.probs().to_vec();
                        for &st in &chosen {
                            probs[st as usize] = rng.random::<f64>();
                        }
                        Strategy::Mixed(
                            ipd::strategy::MixedStrategy::new(*space, probs)
                                .expect("redrawn probabilities are valid"),
                        )
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn agent(pc_rate: f64, mu: f64) -> NatureAgent {
        NatureAgent {
            pc_rate,
            mutation_rate: mu,
            beta: 1.0,
            teacher_must_be_fitter: true,
            kind: StrategyKind::Pure,
            mutation_kind: MutationKind::Fresh,
            seed: 42,
        }
    }

    #[test]
    fn schedule_is_deterministic() {
        let a = agent(0.5, 0.5);
        for g in 0..50 {
            assert_eq!(a.schedule(10, g), a.schedule(10, g));
        }
    }

    #[test]
    fn pc_rate_zero_never_schedules_pc() {
        let a = agent(0.0, 0.0);
        for g in 0..200 {
            let s = a.schedule(10, g);
            assert_eq!(s.pc, None);
            assert_eq!(s.mutation, None);
        }
    }

    #[test]
    fn pc_rate_one_always_schedules_pc() {
        let a = agent(1.0, 1.0);
        for g in 0..200 {
            let s = a.schedule(10, g);
            assert!(s.pc.is_some());
            assert!(s.mutation.is_some());
        }
    }

    #[test]
    fn observed_rates_approximate_parameters() {
        let a = agent(0.1, 0.05);
        let gens = 20_000;
        let mut pcs = 0;
        let mut muts = 0;
        for g in 0..gens {
            let s = a.schedule(100, g);
            pcs += s.pc.is_some() as u32;
            muts += s.mutation.is_some() as u32;
        }
        let pc_rate = pcs as f64 / gens as f64;
        let mu_rate = muts as f64 / gens as f64;
        assert!((pc_rate - 0.1).abs() < 0.01, "PC rate {pc_rate}");
        assert!((mu_rate - 0.05).abs() < 0.005, "mutation rate {mu_rate}");
    }

    #[test]
    fn teacher_and_learner_always_distinct() {
        let a = agent(1.0, 0.0);
        for g in 0..500 {
            let (t, l) = a.schedule(2, g).pc.unwrap();
            assert_ne!(t, l);
            assert!(t < 2 && l < 2);
        }
    }

    #[test]
    fn pc_targets_cover_population() {
        let a = agent(1.0, 1.0);
        let n = 8u32;
        let mut teacher_seen = vec![false; n as usize];
        let mut mut_seen = vec![false; n as usize];
        for g in 0..2_000 {
            let s = a.schedule(n, g);
            if let Some((t, _)) = s.pc {
                teacher_seen[t as usize] = true;
            }
            if let Some(m) = s.mutation {
                mut_seen[m as usize] = true;
            }
        }
        assert!(teacher_seen.iter().all(|&x| x), "every SSet can teach");
        assert!(mut_seen.iter().all(|&x| x), "every SSet can mutate");
    }

    #[test]
    fn gated_pc_never_adopts_from_weaker_teacher() {
        let a = agent(1.0, 0.0);
        for g in 0..200 {
            let (_, adopted) = a.resolve_pc(1.0, 5.0, g);
            assert!(!adopted, "weaker teacher must not be copied (gated)");
            let (_, tie) = a.resolve_pc(3.0, 3.0, g);
            assert!(!tie, "ties are not adopted when gated");
        }
    }

    #[test]
    fn ungated_pc_can_adopt_from_weaker_teacher() {
        let mut a = agent(1.0, 0.0);
        a.teacher_must_be_fitter = false;
        a.beta = 0.1; // keep p non-negligible for negative differences
        let adopted = (0..2_000).filter(|&g| a.resolve_pc(1.0, 2.0, g).1).count();
        assert!(adopted > 0, "ungated Fermi allows disadvantageous imitation");
        // But it must still be less frequent than advantageous imitation.
        let adopted_up = (0..2_000).filter(|&g| a.resolve_pc(2.0, 1.0, g).1).count();
        assert!(adopted_up > adopted);
    }

    #[test]
    fn adoption_frequency_tracks_fermi_probability() {
        let a = agent(1.0, 0.0);
        let gens = 10_000;
        let adopted = (0..gens).filter(|&g| a.resolve_pc(1.0, 0.0, g).1).count();
        let expect = fermi_probability(1.0, 1.0, 0.0);
        let observed = adopted as f64 / gens as f64;
        assert!((observed - expect).abs() < 0.02, "observed {observed}, expected {expect}");
    }

    #[test]
    fn infinite_beta_always_adopts_better_teacher() {
        let mut a = agent(1.0, 0.0);
        a.beta = f64::INFINITY;
        for g in 0..100 {
            let (p, adopted) = a.resolve_pc(10.0, 1.0, g);
            assert_eq!(p, 1.0);
            assert!(adopted);
        }
    }

    #[test]
    fn moran_parent_selection_is_fitness_proportional() {
        let a = agent(1.0, 0.0);
        let fitness = [1.0, 3.0, 0.0, 4.0]; // total 8
        let gens = 40_000;
        let mut counts = [0u32; 4];
        for g in 0..gens {
            let (parent, victim) = a.moran_pick(&fitness, g);
            counts[parent as usize] += 1;
            assert!(victim < 4);
        }
        let expect = [0.125, 0.375, 0.0, 0.5];
        for (i, &c) in counts.iter().enumerate() {
            let got = c as f64 / gens as f64;
            assert!(
                (got - expect[i]).abs() < 0.01,
                "sset {i}: observed {got}, expected {}",
                expect[i]
            );
        }
    }

    #[test]
    fn moran_zero_fitness_falls_back_to_uniform() {
        let a = agent(1.0, 0.0);
        let fitness = [0.0; 5];
        let mut seen = [false; 5];
        for g in 0..500 {
            let (parent, _) = a.moran_pick(&fitness, g);
            seen[parent as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all SSets reachable under drift");
    }

    #[test]
    fn moran_non_finite_fitness_falls_back_to_uniform() {
        // An infinite payoff (e.g. beta/payoff pathologies upstream) makes
        // the fitness total non-finite; proportional sampling would then
        // compare against NaN after the first subtraction and silently pick
        // the last index every generation. The guard must treat this like
        // the all-zero case: uniform, deterministic drift.
        let a = agent(1.0, 0.0);
        for fitness in [
            [1.0, f64::INFINITY, 2.0, 3.0],
            [f64::NEG_INFINITY, 1.0, 2.0, 3.0],
            [f64::NAN, 1.0, 2.0, 3.0],
        ] {
            let mut seen = [false; 4];
            for g in 0..500 {
                let (parent, victim) = a.moran_pick(&fitness, g);
                assert!(parent < 4 && victim < 4);
                seen[parent as usize] = true;
                // Deterministic per generation even on the fallback path.
                assert_eq!((parent, victim), a.moran_pick(&fitness, g));
            }
            assert!(
                seen.iter().all(|&s| s),
                "uniform fallback must reach every SSet for {fitness:?}"
            );
        }
    }

    #[test]
    fn imitate_best_picks_argmax_lowest_index_on_tie() {
        let a = agent(1.0, 0.0);
        let (best, _) = a.imitate_best_pick(&[1.0, 9.0, 9.0, 3.0], 0);
        assert_eq!(best, 1, "ties break to the lowest index");
        let (best, _) = a.imitate_best_pick(&[5.0, 1.0], 0);
        assert_eq!(best, 0);
    }

    #[test]
    fn mutation_strategy_varies_by_generation() {
        let a = agent(0.0, 1.0);
        let space = StateSpace::new(2).unwrap();
        let cur = Strategy::Pure(ipd::classic::all_c(&space));
        let s1 = a.mutation_strategy(&space, 1, &cur);
        let s2 = a.mutation_strategy(&space, 2, &cur);
        assert_ne!(s1, s2);
        // Deterministic per generation.
        assert_eq!(s1, a.mutation_strategy(&space, 1, &cur));
    }

    #[test]
    fn mutation_respects_strategy_kind() {
        let mut a = agent(0.0, 1.0);
        let space = StateSpace::new(1).unwrap();
        let cur = Strategy::Pure(ipd::classic::all_c(&space));
        assert!(matches!(a.mutation_strategy(&space, 0, &cur), Strategy::Pure(_)));
        a.kind = StrategyKind::Mixed;
        assert!(matches!(a.mutation_strategy(&space, 0, &cur), Strategy::Mixed(_)));
    }

    #[test]
    fn point_flip_mutation_changes_exactly_k_states() {
        let mut a = agent(0.0, 1.0);
        let space = StateSpace::new(3).unwrap();
        let cur_pure = ipd::classic::all_c(&space);
        for k in [1usize, 3, 7] {
            a.mutation_kind = MutationKind::PointFlip { states: k };
            match a.mutation_strategy(&space, k as u64, &Strategy::Pure(cur_pure.clone())) {
                Strategy::Pure(q) => assert_eq!(q.hamming(&cur_pure), k, "k={k}"),
                _ => panic!("kind preserved"),
            }
        }
        // Clamped to the state count.
        a.mutation_kind = MutationKind::PointFlip { states: 10_000 };
        match a.mutation_strategy(&space, 9, &Strategy::Pure(cur_pure.clone())) {
            Strategy::Pure(q) => assert_eq!(q.hamming(&cur_pure), space.num_states()),
            _ => panic!("kind preserved"),
        }
    }

    #[test]
    fn point_flip_on_mixed_redraws_probabilities() {
        let mut a = agent(0.0, 1.0);
        a.mutation_kind = MutationKind::PointFlip { states: 2 };
        let space = StateSpace::new(1).unwrap();
        let cur = ipd::strategy::MixedStrategy::memory_one(space, [0.5; 4]).unwrap();
        match a.mutation_strategy(&space, 4, &Strategy::Mixed(cur.clone())) {
            Strategy::Mixed(m) => {
                let changed = m
                    .probs()
                    .iter()
                    .zip(cur.probs())
                    .filter(|(a, b)| a != b)
                    .count();
                assert_eq!(changed, 2);
            }
            _ => panic!("kind preserved"),
        }
    }
}
