//! The paper's published measurements, embedded for calibration and
//! paper-vs-model comparison.
//!
//! All values are transcribed from the evaluation section (§VI) of
//! *"Massively Parallel Model of Evolutionary Game Dynamics"* (SC 2012).

/// Processor counts of the small studies (Tables VI; Blue Gene/L).
pub const TABLE6_PROCS: [u64; 5] = [128, 256, 512, 1_024, 2_048];

/// Table VI: total seconds for 1,024 SSets, 1,000 generations, PC rate
/// 0.01, memory-one through memory-six, per processor count.
pub const TABLE6_SECONDS: [(usize, [f64; 5]); 6] = [
    (1, [26.5, 13.6, 5.9, 4.59, 4.04]),
    (2, [2_207.0, 1_106.0, 552.0, 442.0, 277.0]),
    (3, [2_401.0, 1_206.0, 605.0, 478.0, 305.0]),
    (4, [3_079.0, 1_581.0, 824.0, 732.0, 420.0]),
    (5, [7_903.0, 4_011.0, 2_007.0, 1_829.0, 1_005.0]),
    (6, [8_690.0, 4_367.0, 2_188.0, 2_054.0, 1_097.0]),
];

/// SSets per generation of the Table VI workload.
pub const TABLE6_SSETS: u64 = 1_024;

/// Generations of the Table VI workload.
pub const TABLE6_GENERATIONS: u64 = 1_000;

/// Processor counts of Table VII.
pub const TABLE7_PROCS: [u64; 4] = [256, 512, 1_024, 2_048];

/// Table VII: total seconds per SSet count and processor count
/// (memory-one population-size scaling).
pub const TABLE7_SECONDS: [(u64, [f64; 4]); 6] = [
    (1_024, [5.61, 3.18, 1.86, 1.29]),
    (2_048, [22.7, 11.7, 6.7, 4.3]),
    (4_096, [90.5, 47.9, 24.2, 12.2]),
    (8_192, [360.0, 179.7, 88.9, 48.4]),
    (16_384, [1_502.0, 699.0, 344.0, 190.0]),
    (32_768, [5_785.0, 2_861.0, 1_430.0, 736.0]),
];

/// Table VIII as printed: agents per processor for each Table VII SSet
/// count (rows) and processor count (columns). The printed table is
/// internally inconsistent (its 1,024-processor column exceeds its
/// 256-processor one); `table8` reports where it departs from `S²/P`.
pub const TABLE8_PRINTED: [[u64; TABLE7_PROCS.len()]; TABLE7_SECONDS.len()] = [
    [4_096, 2_048, 16_384, 2_048],
    [16_384, 8_192, 262_144, 32_768],
    [65_536, 32_768, 4_194_304, 524_288],
    [262_144, 131_072, 67_108_864, 8_388_608],
    [1_048_576, 524_288, 1_073_741_824, 134_217_728],
    [4_194_304, 2_097_152, 17_179_869_184, 2_147_483_648],
];

/// §VI-A: fraction of SSets that adopted WSLS in the validation run.
pub const FIG2_WSLS_FRACTION: f64 = 0.85;

/// §VI-A: the validation run's population and duration.
pub const FIG2_SSETS: u64 = 5_000;
/// §VI-A: generations of the validation run.
pub const FIG2_GENERATIONS: u64 = 10_000_000;

/// Fig 6/7 processor counts (Blue Gene/P, 64 racks max power-of-two).
pub const LARGE_PROCS: [u64; 5] = [1_024, 2_048, 8_192, 16_384, 262_144];

/// Fig 6: SSets per processor in the weak-scaling study.
pub const FIG6_SSETS_PER_PROC: u64 = 4_096;

/// Fig 7 headline efficiencies: ~99% linear through 16,384 processors,
/// 82% at 262,144.
pub const FIG7_EFF_16K: f64 = 0.99;
/// Fig 7: strong-scaling efficiency at 262,144 processors.
pub const FIG7_EFF_262K: f64 = 0.82;

/// §VI-D: efficiency degradation on the non-power-of-two 294,912-core
/// full machine.
pub const NONPOW2_DEGRADATION: f64 = 0.15;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table6_rows_cover_memory_one_to_six() {
        let mems: Vec<usize> = TABLE6_SECONDS.iter().map(|(m, _)| *m).collect();
        assert_eq!(mems, vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn table6_runtimes_decrease_with_processors() {
        for (mem, row) in &TABLE6_SECONDS {
            for w in row.windows(2) {
                assert!(w[1] < w[0], "memory-{mem} row not monotone");
            }
        }
    }

    #[test]
    fn table6_runtimes_increase_with_memory() {
        for col in 0..TABLE6_PROCS.len() {
            for pair in TABLE6_SECONDS.windows(2) {
                assert!(pair[1].1[col] > pair[0].1[col]);
            }
        }
    }

    #[test]
    fn table7_runtime_grows_roughly_with_ssets_squared() {
        for col in 0..TABLE7_PROCS.len() {
            for pair in TABLE7_SECONDS.windows(2) {
                let ratio = pair[1].1[col] / pair[0].1[col];
                assert!(
                    (2.0..=7.0).contains(&ratio),
                    "doubling SSets gave runtime ratio {ratio}"
                );
            }
        }
    }

    #[test]
    fn large_study_population_matches_headline() {
        // 262,144 procs x 4,096 SSets/proc = 1,073,741,824 SSets; with
        // agents = SSets each agent count is 2^60 = O(10^18).
        let ssets = 262_144u128 * 4_096;
        assert_eq!(ssets, 1_073_741_824);
        assert!(ssets * ssets >= 1_000_000_000_000_000_000u128);
    }
}
