//! Analytic performance model for Blue Gene-scale extrapolation.
//!
//! The paper's evaluation ran on real Blue Gene/L (small studies, ≤ 2,048
//! processors) and Blue Gene/P (large studies, ≤ 294,912 processors)
//! hardware that we cannot execute on. This module models the per-
//! generation cost of the algorithm in LogGP style:
//!
//! ```text
//! T(P) = penalty(P) · G · [ games/gen · c_game(mem) / P        (compute)
//!                         + n_bcast(gen) · depth(P) · α_coll   (collectives)
//!                         + pc_rate · 2 · (α_p2p + h̄(P) · c_hop) (fitness p2p)
//!                         + μ · depth(P) · (α_coll + states·c_state) (mutation)
//!                         + t_serial ]                          (Nature Agent)
//! ```
//!
//! where `depth(P) = ⌈log₂ P⌉` is the collective-tree depth, `h̄(P)` the
//! mean torus hop count from [`crate::topology`], and `penalty(P)` the
//! non-power-of-two mapping penalty (§VI-D's 15%).
//!
//! Calibration paths:
//!
//! 1. [`MachineProfile::bluegene_l`]/[`MachineProfile::bluegene_p`] carry
//!    *effective* constants chosen to reproduce the paper's published
//!    runtimes (they absorb load imbalance and serial overheads, and are
//!    documented as such — not as hardware datasheet numbers).
//! 2. [`fit_strong_scaling`] least-squares-fits per-row constants directly
//!    to observed `(P, seconds)` points (the embedded paper tables), which
//!    is how the `table6`/`table7` regenerators produce their model rows.
//! 3. [`measure_game_cost`] times the real local Rust kernel the way a
//!    rank drives it, so local profiles report this machine's actual game
//!    costs.

use crate::topology::{CollectiveTree, Torus3D};
use evo_core::fitness::{FitnessPolicy, PairPayoff};
use evo_core::pool::{StratId, StrategyPool};
use ipd::game::{play_with_lookup, GameConfig, StateLookup};
use ipd::state::{StateSpace, StateTable};
use ipd::strategy::{PureStrategy, Strategy};
use serde::{Deserialize, Serialize};

/// The workload whose runtime is being predicted.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Workload {
    /// Number of SSets `S`.
    pub num_ssets: u64,
    /// Memory steps (0..=6).
    pub mem_steps: usize,
    /// Generations `G`.
    pub generations: u64,
    /// Pairwise-comparison rate.
    pub pc_rate: f64,
    /// Mutation rate μ.
    pub mutation_rate: f64,
    /// Fitness evaluation policy: `EveryGeneration` plays all `S²` games
    /// each generation (the paper's small studies); `OnDemand` plays only
    /// the selected teacher's and learner's `2S` games in PC generations —
    /// the only reading under which the paper's flat weak scaling at
    /// `S = 4096·P` is arithmetically possible (see DESIGN.md).
    pub policy: FitnessPolicy,
}

impl Workload {
    /// Expected iterated games per generation under the policy.
    pub fn games_per_generation(&self) -> f64 {
        match self.policy {
            FitnessPolicy::EveryGeneration => (self.num_ssets as f64) * (self.num_ssets as f64),
            FitnessPolicy::OnDemand => self.pc_rate * 2.0 * self.num_ssets as f64,
        }
    }

    /// The paper's small-study workload (§VI-B): `S` SSets, 1,000
    /// generations, PC rate 0.01, all games every generation.
    pub fn small_study(mem_steps: usize, num_ssets: u64) -> Self {
        Workload {
            num_ssets,
            mem_steps,
            generations: 1_000,
            pc_rate: 0.01,
            mutation_rate: 0.05,
            policy: FitnessPolicy::EveryGeneration,
        }
    }

    /// The paper's large-study workload (§VI-C): memory-six, PC rate 0.01,
    /// on-demand fitness.
    pub fn large_study(num_ssets: u64, generations: u64) -> Self {
        Workload {
            num_ssets,
            mem_steps: 6,
            generations,
            pc_rate: 0.01,
            mutation_rate: 0.05,
            policy: FitnessPolicy::OnDemand,
        }
    }
}

/// Effective machine constants for the model. The Blue Gene profiles'
/// values are *fitted effective* parameters reproducing the paper's
/// published tables — they fold load imbalance and implementation overheads
/// into the latency terms rather than quoting hardware datasheets.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineProfile {
    /// Profile name for reports.
    pub name: String,
    /// Seconds per iterated game (200 rounds) by memory steps 0..=6.
    pub game_cost: [f64; 7],
    /// Per-tree-level latency of a collective operation (seconds).
    pub alpha_coll: f64,
    /// Point-to-point message latency (seconds).
    pub alpha_p2p: f64,
    /// Per-hop torus transit cost (seconds).
    pub per_hop: f64,
    /// Per-state cost of broadcasting a mutated strategy (bandwidth term).
    pub mutation_per_state: f64,
    /// Nature Agent serial work + bookkeeping per generation (seconds).
    pub serial_per_gen: f64,
    /// Fractional slowdown applied to non-power-of-two partitions
    /// (the paper's §VI-D reports 15% ⇒ 0.15).
    pub nonpow2_penalty: f64,
}

impl MachineProfile {
    /// Effective Blue Gene/L profile for the paper's *small* studies
    /// (Tables VI & VII, Figures 3–5). Game costs derive from the paper's
    /// Table VI `P = 128` column (compute-dominated cells); the overhead
    /// constants absorb imbalance at low SSets-per-processor counts.
    pub fn bluegene_l() -> Self {
        // cg(m) ≈ T_paper(128) · 128 · 0.7 / (G · S²) with S = 1024,
        // G = 1000: the 0.7 factor leaves 30% for overheads that the
        // constant/log terms carry.
        MachineProfile {
            name: "BlueGene/L (effective, fitted to Tables VI-VII)".into(),
            game_cost: [
                1.1e-6, // memory-0: below the paper's smallest measured case
                2.26e-6, 1.88e-4, 2.05e-4, 2.63e-4, 6.75e-4, 7.42e-4,
            ],
            alpha_coll: 1.7e-4,
            alpha_p2p: 8.0e-6,
            per_hop: 1.0e-7,
            mutation_per_state: 6.0e-9,
            serial_per_gen: 1.0e-3,
            nonpow2_penalty: 0.15,
        }
    }

    /// Effective Blue Gene/P profile for the paper's *large* studies
    /// (Figures 6 & 7): fast dedicated collective network, memory-six
    /// games with the paper's linear state scan.
    pub fn bluegene_p() -> Self {
        MachineProfile {
            name: "BlueGene/P (effective, large studies)".into(),
            game_cost: [
                0.9e-6, 1.9e-6, 1.6e-4, 1.75e-4, 2.2e-4, 5.7e-4, 1.06e-3,
            ],
            alpha_coll: 3.0e-6,
            alpha_p2p: 3.0e-6,
            per_hop: 5.0e-8,
            mutation_per_state: 4.0e-9,
            serial_per_gen: 2.0e-6,
            nonpow2_penalty: 0.15,
        }
    }

    /// Profile with this machine's actually measured game-kernel costs
    /// (per memory step, using the paper's linear state scan when
    /// `linear_scan`), keeping Blue Gene/P communication constants.
    pub fn measured_local(rounds: u32, linear_scan: bool) -> Self {
        let mut p = Self::bluegene_p();
        p.name = format!(
            "local kernel ({} lookup) + BG/P network",
            if linear_scan { "linear-scan" } else { "O(1)" }
        );
        for (mem, slot) in p.game_cost.iter_mut().enumerate() {
            *slot = measure_game_cost(mem, rounds, linear_scan);
        }
        p
    }
}

/// Per-generation cost breakdown of a prediction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Breakdown {
    /// Parallel game-dynamics compute per generation (seconds).
    pub compute: f64,
    /// Communication (collectives + point-to-point) per generation.
    pub comm: f64,
    /// Nature Agent serial time per generation.
    pub serial: f64,
    /// Multiplicative mapping penalty applied (1.0 for powers of two).
    pub penalty: f64,
    /// Total predicted wall-clock for the whole run (seconds).
    pub total: f64,
}

/// The analytic model: a profile applied to workloads.
#[derive(Debug, Clone)]
pub struct PerfModel {
    /// Machine constants in effect.
    pub profile: MachineProfile,
}

impl PerfModel {
    /// Model with the given profile.
    pub fn new(profile: MachineProfile) -> Self {
        PerfModel { profile }
    }

    /// Full per-generation breakdown and run total for `procs` processors.
    pub fn breakdown(&self, w: &Workload, procs: u64) -> Breakdown {
        let _span = obs::span("perf.breakdown");
        obs::counters().add(obs::Counter::PerfModelEvals, 1);
        assert!(procs >= 1);
        let p = &self.profile;
        let depth = CollectiveTree::new(procs as usize).depth() as f64;
        let torus = Torus3D::balanced(procs as usize);
        let states = StateSpace::new(w.mem_steps)
            .expect("valid memory steps")
            .num_states() as f64;

        let compute = w.games_per_generation() * p.game_cost[w.mem_steps] / procs as f64;
        // One schedule broadcast every generation; PC adds two fitness
        // returns and an outcome broadcast; mutation adds a payload-bearing
        // broadcast.
        let comm = depth * p.alpha_coll
            + w.pc_rate
                * (2.0 * (p.alpha_p2p + torus.mean_hops() * p.per_hop) + depth * p.alpha_coll)
            + w.mutation_rate * depth * (p.alpha_coll + states * p.mutation_per_state);
        let serial = p.serial_per_gen;
        let penalty = if (procs as usize).is_power_of_two() {
            1.0
        } else {
            1.0 + p.nonpow2_penalty
        };
        let total = penalty * w.generations as f64 * (compute + comm + serial);
        Breakdown {
            compute,
            comm,
            serial,
            penalty,
            total,
        }
    }

    /// Predicted wall-clock seconds for the whole run.
    pub fn predict(&self, w: &Workload, procs: u64) -> f64 {
        self.breakdown(w, procs).total
    }

    /// Strong-scaling speedup of `procs` relative to `base` processors.
    pub fn speedup(&self, w: &Workload, base: u64, procs: u64) -> f64 {
        self.predict(w, base) / self.predict(w, procs)
    }

    /// Strong-scaling parallel efficiency relative to `base`: the "percent
    /// of ideal speedup achieved for each processor count" (§VI-B1).
    pub fn efficiency(&self, w: &Workload, base: u64, procs: u64) -> f64 {
        self.speedup(w, base, procs) * base as f64 / procs as f64
    }

    /// Weak-scaling series: for each processor count, the predicted
    /// runtime of the workload scaled to `ssets_per_proc · P` SSets
    /// (paper Fig 6: 4,096 SSets per processor).
    pub fn weak_scaling(
        &self,
        template: &Workload,
        ssets_per_proc: u64,
        procs: &[u64],
    ) -> Vec<(u64, f64)> {
        procs
            .iter()
            .map(|&p| {
                let w = Workload {
                    num_ssets: ssets_per_proc * p,
                    ..*template
                };
                (p, self.predict(&w, p))
            })
            .collect()
    }
}

/// Time the real game kernel: seconds per iterated game of `rounds` rounds
/// at `mem_steps`. With the O(1) rolling index this is the kernel *as a
/// rank runs it* — one focal SSet against a population of pure strategies
/// through [`PairPayoff::evaluate_one`], uncached, so the figure carries
/// the engine's lockstep groups and not the latency of one game played
/// alone. With the paper's linear state scan it is the ablation's
/// one-game-at-a-time kernel. This is the measurement feeding Fig 4's
/// local reproduction.
pub fn measure_game_cost(mem_steps: usize, rounds: u32, linear_scan: bool) -> f64 {
    use rand::SeedableRng;
    /// Games per timed call on the engine path (a whole number of groups).
    const SSETS: usize = 16;
    let space = StateSpace::new(mem_steps).expect("valid memory steps");
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0xC0FFEE);
    let mut pool = StrategyPool::new();
    let assignments: Vec<StratId> = (0..SSETS)
        .map(|_| pool.intern(Strategy::Pure(PureStrategy::random(space, &mut rng))))
        .collect();
    let cfg = GameConfig {
        rounds,
        ..GameConfig::default()
    };
    let table = linear_scan.then(|| StateTable::new(space));
    let pairs = PairPayoff::new(&space, &pool, &cfg, None);
    // One timed call and the games it plays.
    let games = if linear_scan { 1 } else { SSETS };
    let mut run = || -> f64 {
        match &table {
            Some(t) => {
                let (a, b) = (pool.get(assignments[0]), pool.get(assignments[1]));
                play_with_lookup(&space, a, b, &cfg, StateLookup::LinearScan(t), &mut rng).fitness_a
            }
            None => pairs.evaluate_one(&assignments, 0, 0, 0),
        }
    };
    // Warm up, then time enough games for a stable estimate.
    let mut sink = 0.0;
    for _ in 0..3 {
        sink += run();
    }
    let timed_games: usize = if linear_scan && mem_steps >= 5 {
        20
    } else if linear_scan && mem_steps >= 3 {
        100
    } else {
        400
    };
    let iters = timed_games / games;
    // detlint: allow(wall-clock, reason = "calibration measurement for the performance model; feeds simulated time, not trajectories")
    let start = std::time::Instant::now();
    for _ in 0..iters {
        sink += run();
    }
    let elapsed = start.elapsed().as_secs_f64();
    std::hint::black_box(sink);
    elapsed / (iters * games) as f64
}

/// A per-row strong-scaling fit: `T(P) ≈ G·(work·game_cost/P + const +
/// log_cost·depth(P))`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FittedRow {
    /// Seconds per work unit (game).
    pub game_cost: f64,
    /// Constant per-generation overhead (seconds).
    pub const_cost: f64,
    /// Per-tree-level per-generation overhead (seconds).
    pub log_cost: f64,
    /// Root-mean-square relative error of the fit over the input points.
    pub rms_rel_error: f64,
}

impl FittedRow {
    /// Predicted total seconds at `procs`.
    pub fn predict(&self, work_units: f64, generations: u64, procs: u64) -> f64 {
        let depth = CollectiveTree::new(procs as usize).depth() as f64;
        generations as f64
            * (work_units * self.game_cost / procs as f64 + self.const_cost + self.log_cost * depth)
    }
}

/// Least-squares fit of the three-term strong-scaling model to observed
/// `(procs, total_seconds)` points for a fixed workload of `work_units`
/// games per generation over `generations` generations. Negative fitted
/// coefficients are clamped to zero and the remaining terms refitted, so
/// the result is always physically meaningful.
pub fn fit_strong_scaling(points: &[(u64, f64)], work_units: f64, generations: u64) -> FittedRow {
    assert!(points.len() >= 3, "need at least three points for a 3-term fit");
    let g = generations as f64;
    let basis = |p: u64| -> [f64; 3] {
        let depth = CollectiveTree::new(p as usize).depth() as f64;
        [g * work_units / p as f64, g, g * depth]
    };
    // Try fits over subsets of active terms, preferring the full model,
    // until all coefficients are non-negative.
    let masks: [[bool; 3]; 4] = [
        [true, true, true],
        [true, false, true],
        [true, true, false],
        [true, false, false],
    ];
    for mask in masks {
        if let Some(coef) = solve_ls(points, &basis, mask) {
            if coef.iter().all(|&c| c >= 0.0) {
                let row = FittedRow {
                    game_cost: coef[0],
                    const_cost: coef[1],
                    log_cost: coef[2],
                    rms_rel_error: 0.0,
                };
                let rms = rms_rel_error(points, work_units, generations, &row);
                return FittedRow {
                    rms_rel_error: rms,
                    ..row
                };
            }
        }
    }
    // Degenerate data: fall back to a pure 1/P work fit through the first
    // point.
    let (p0, t0) = points[0];
    let row = FittedRow {
        game_cost: t0 * p0 as f64 / (g * work_units),
        const_cost: 0.0,
        log_cost: 0.0,
        rms_rel_error: 0.0,
    };
    let rms = rms_rel_error(points, work_units, generations, &row);
    FittedRow {
        rms_rel_error: rms,
        ..row
    }
}

fn rms_rel_error(
    points: &[(u64, f64)],
    work_units: f64,
    generations: u64,
    row: &FittedRow,
) -> f64 {
    let n = points.len() as f64;
    (points
        .iter()
        .map(|&(p, t)| {
            let e = (row.predict(work_units, generations, p) - t) / t;
            e * e
        })
        .sum::<f64>()
        / n)
        .sqrt()
}

/// Solve the masked 3-term linear least squares via normal equations.
/// Returns `None` if the system is singular.
fn solve_ls(
    points: &[(u64, f64)],
    basis: &dyn Fn(u64) -> [f64; 3],
    mask: [bool; 3],
) -> Option<[f64; 3]> {
    let idx: Vec<usize> = (0..3).filter(|&i| mask[i]).collect();
    let k = idx.len();
    let mut ata = [[0.0f64; 3]; 3];
    let mut atb = [0.0f64; 3];
    for &(p, t) in points {
        let b = basis(p);
        for (r, &i) in idx.iter().enumerate() {
            atb[r] += b[i] * t;
            for (c, &j) in idx.iter().enumerate() {
                ata[r][c] += b[i] * b[j];
            }
        }
    }
    // Gaussian elimination with partial pivoting on the k×k system.
    let mut a = ata;
    let mut y = atb;
    let mut x_packed = [0.0f64; 3];
    for col in 0..k {
        let pivot =
            (col..k).max_by(|&r1, &r2| a[r1][col].abs().total_cmp(&a[r2][col].abs()))?;
        if a[pivot][col].abs() < 1e-30 {
            return None;
        }
        a.swap(col, pivot);
        y.swap(col, pivot);
        let pivot_row = a[col];
        for row in col + 1..k {
            let f = a[row][col] / pivot_row[col];
            for (x, p) in a[row][col..k].iter_mut().zip(&pivot_row[col..k]) {
                *x -= f * p;
            }
            y[row] -= f * y[col];
        }
    }
    for col in (0..k).rev() {
        let mut v = y[col];
        for c in col + 1..k {
            v -= a[col][c] * x_packed[c];
        }
        x_packed[col] = v / a[col][col];
    }
    // Scatter back to the full 3-vector.
    let mut x = [0.0f64; 3];
    for (pos, &i) in idx.iter().enumerate() {
        x[i] = x_packed[pos];
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(mem: usize, ssets: u64) -> Workload {
        Workload::small_study(mem, ssets)
    }

    #[test]
    fn games_per_generation_by_policy() {
        let every = small(1, 1_024);
        assert_eq!(every.games_per_generation(), 1_024.0 * 1_024.0);
        let lazy = Workload::large_study(4_096, 1_000);
        assert_eq!(lazy.games_per_generation(), 0.01 * 2.0 * 4_096.0);
    }

    #[test]
    fn more_processors_never_slower_within_powers_of_two() {
        let m = PerfModel::new(MachineProfile::bluegene_l());
        let w = small(6, 1_024);
        let mut last = f64::INFINITY;
        for p in [128u64, 256, 512, 1_024, 2_048] {
            let t = m.predict(&w, p);
            assert!(t < last, "P={p}: {t} ≥ {last}");
            last = t;
        }
    }

    #[test]
    fn efficiency_decreases_with_procs_and_stays_in_range() {
        let m = PerfModel::new(MachineProfile::bluegene_l());
        let w = small(1, 1_024);
        let mut last = 1.01;
        for p in [128u64, 256, 512, 1_024, 2_048] {
            let e = m.efficiency(&w, 128, p);
            assert!(e <= last + 1e-9, "efficiency must not increase");
            assert!(e > 0.0 && e <= 1.0 + 1e-9);
            last = e;
        }
    }

    #[test]
    fn runtime_increases_with_memory_steps() {
        let m = PerfModel::new(MachineProfile::bluegene_l());
        let mut last = 0.0;
        for mem in 1..=6 {
            let t = m.predict(&small(mem, 1_024), 512);
            assert!(t > last, "memory-{mem}");
            last = t;
        }
    }

    #[test]
    fn runtime_grows_with_square_of_ssets() {
        // Table VII's shape: 2x SSets ⇒ ~4x runtime in the compute-bound
        // regime.
        let m = PerfModel::new(MachineProfile::bluegene_l());
        let t1 = m.predict(&small(1, 8_192), 256);
        let t2 = m.predict(&small(1, 16_384), 256);
        let ratio = t2 / t1;
        assert!((3.5..=4.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn bigger_populations_scale_better() {
        // Fig 5: parallel efficiency at 2,048 procs improves with S.
        let m = PerfModel::new(MachineProfile::bluegene_l());
        let small_pop = m.efficiency(&small(1, 1_024), 256, 2_048);
        let large_pop = m.efficiency(&small(1, 32_768), 256, 2_048);
        assert!(
            large_pop > small_pop,
            "large {large_pop} ≤ small {small_pop}"
        );
        assert!(large_pop > 0.9, "32k SSets should scale near-ideally");
    }

    #[test]
    fn weak_scaling_is_flat_for_large_study() {
        // Fig 6: 4,096 SSets/processor, memory-six, on-demand fitness —
        // runtime "fluctuated by at most 1 second" from 1,024 to 262,144
        // processors.
        let m = PerfModel::new(MachineProfile::bluegene_p());
        let template = Workload::large_study(0, 1_000);
        let series =
            m.weak_scaling(&template, 4_096, &[1_024, 4_096, 16_384, 65_536, 262_144]);
        let t0 = series[0].1;
        for &(p, t) in &series {
            assert!(
                (t - t0).abs() < 1.0,
                "P={p}: {t}s vs baseline {t0}s drifts over 1s"
            );
        }
    }

    #[test]
    fn strong_scaling_large_study_matches_paper_shape() {
        // Fig 7: fixed problem from the 1,024-proc weak-scaling point
        // (4,096 SSets/proc ⇒ S = 4,194,304). 99% efficiency through
        // 16,384 procs, ~82% at 262,144.
        let m = PerfModel::new(MachineProfile::bluegene_p());
        let w = Workload::large_study(4_096 * 1_024, 1_000);
        let e16k = m.efficiency(&w, 1_024, 16_384);
        let e262k = m.efficiency(&w, 1_024, 262_144);
        assert!(e16k > 0.97, "16K procs: {e16k}");
        assert!((0.75..=0.90).contains(&e262k), "262K procs: {e262k}");
    }

    #[test]
    fn nonpow2_partition_pays_mapping_penalty() {
        // §VI-D: 72 racks (294,912 cores) degraded ~15% vs 64 racks.
        let m = PerfModel::new(MachineProfile::bluegene_p());
        let w = Workload::large_study(4_096 * 1_024, 1_000);
        let b_pow2 = m.breakdown(&w, 262_144);
        let b_full = m.breakdown(&w, 294_912);
        assert_eq!(b_pow2.penalty, 1.0);
        assert!((b_full.penalty - 1.15).abs() < 1e-12);
        let e_full = m.efficiency(&w, 1_024, 294_912);
        let e_pow2 = m.efficiency(&w, 1_024, 262_144);
        assert!(e_full < e_pow2, "penalised partition must be less efficient");
    }

    #[test]
    fn breakdown_sums_to_total() {
        let m = PerfModel::new(MachineProfile::bluegene_l());
        let w = small(3, 2_048);
        let b = m.breakdown(&w, 512);
        let expect = b.penalty * w.generations as f64 * (b.compute + b.comm + b.serial);
        assert!((b.total - expect).abs() < 1e-9);
    }

    #[test]
    fn fit_recovers_synthetic_constants() {
        // Generate data from known constants; the fit must recover them.
        let truth = FittedRow {
            game_cost: 5.0e-6,
            const_cost: 2.0e-3,
            log_cost: 1.5e-4,
            rms_rel_error: 0.0,
        };
        let work = 1_024.0 * 1_024.0;
        let gens = 1_000;
        let points: Vec<(u64, f64)> = [128u64, 256, 512, 1_024, 2_048]
            .iter()
            .map(|&p| (p, truth.predict(work, gens, p)))
            .collect();
        let fit = fit_strong_scaling(&points, work, gens);
        assert!((fit.game_cost - truth.game_cost).abs() / truth.game_cost < 1e-6);
        assert!((fit.const_cost - truth.const_cost).abs() / truth.const_cost < 1e-6);
        assert!((fit.log_cost - truth.log_cost).abs() / truth.log_cost < 1e-6);
        assert!(fit.rms_rel_error < 1e-9);
    }

    #[test]
    fn fit_clamps_negative_terms() {
        // Pure 1/P data with a slight wobble: const/log terms must not go
        // negative.
        let work = 1.0e6;
        let gens = 100;
        let points: Vec<(u64, f64)> = [64u64, 128, 256, 512]
            .iter()
            .map(|&p| (p, gens as f64 * work * 3.0e-6 / p as f64 * 1.001))
            .collect();
        let fit = fit_strong_scaling(&points, work, gens);
        assert!(fit.game_cost > 0.0);
        assert!(fit.const_cost >= 0.0);
        assert!(fit.log_cost >= 0.0);
    }

    #[test]
    fn fit_paper_table6_memory_one_row() {
        // The fit against the paper's own Table VI memory-one row should
        // land within ~35% RMS (the row contains a superlinear 256→512
        // step no smooth model can hit exactly).
        let points = [
            (128u64, 26.5),
            (256, 13.6),
            (512, 5.9),
            (1_024, 4.59),
            (2_048, 4.04),
        ];
        let fit = fit_strong_scaling(&points, 1_024.0 * 1_024.0, 1_000);
        assert!(fit.rms_rel_error < 0.35, "rms {}", fit.rms_rel_error);
        // And the fitted game cost lands in a physically sane band.
        assert!(fit.game_cost > 1.0e-7 && fit.game_cost < 1.0e-4);
    }

    #[test]
    fn measured_local_game_cost_increases_with_linear_scan() {
        // The paper's Fig 4 claim: state identification dominates runtime
        // growth. The linear scan must cost visibly more at memory-4 than
        // the O(1) index.
        let fast = measure_game_cost(4, 50, false);
        let slow = measure_game_cost(4, 50, true);
        assert!(
            slow > fast * 2.0,
            "linear scan {slow} not sufficiently slower than rolling {fast}"
        );
    }

    #[test]
    fn measure_game_cost_returns_positive() {
        for mem in 0..=2 {
            let c = measure_game_cost(mem, 20, false);
            assert!(c > 0.0 && c < 1.0, "memory-{mem}: {c}");
        }
    }
}
