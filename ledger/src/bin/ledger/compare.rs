//! `ledger compare A.json B.json`: apply each end-to-end metric's bound from
//! `BENCHMARK.json` to every workload row, one row per (workload, metric).
//!
//! A is the parent (or the first of two sets of one build), B the change. A
//! pair whose own run-to-run spread in A exceeds the bound cannot resolve a
//! difference of the size of the bound, so it is reported as *unresolved* —
//! never as unchanged — unless every run of B reads better than every run
//! of A.

use ledger::report::{metric_def, Benchmark, RunResult, Sampled, EXACT_COUNTS, RACY_COUNTS};
use ledger::stats;
use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Improved,
    Unresolved,
    Regression,
}

/// The outcome of one comparison.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// The table, ready to print or commit.
    pub text: String,
    pub regressions: u64,
    pub unresolved: u64,
    /// Exact-count layer metrics that differ between A and B.
    pub count_mismatches: u64,
    /// Failed operations in A plus B.
    pub failed_ops: u64,
}

impl Report {
    /// `compare`'s exit rule: a regression, or B failing operations A did not.
    pub fn has_regression(&self) -> bool {
        self.regressions > 0
    }

    /// `selfcheck`'s rule: two sets of one build must agree on everything.
    pub fn sets_agree(&self) -> bool {
        self.regressions == 0
            && self.unresolved == 0
            && self.count_mismatches == 0
            && self.failed_ops == 0
    }
}

/// Share by which `b` is worse than `a` (negative when better).
fn worse_by(a: f64, b: f64, better: &str) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match better {
        "higher" => (a - b) / a,
        _ => (b - a) / a,
    }
}

fn every_b_better(a: &Sampled, b: &Sampled, better: &str) -> bool {
    if a.samples.is_empty() || b.samples.is_empty() {
        return false;
    }
    let (a_min, a_max) = stats::min_max(&a.samples);
    let (b_min, b_max) = stats::min_max(&b.samples);
    match better {
        "higher" => b_min > a_max,
        _ => b_max < a_min,
    }
}

/// `setup_s` is judged on its medians alone, as in the benchmark contract's
/// own acceptance rule: it is a handful of samples per measurement, each
/// holding one whole warm-up child, so its spread says little.
const SPREAD_EXEMPT: &str = "setup_s";

/// Judge one (workload, metric) pair.
pub fn judge(a: &Sampled, b: &Sampled, better: &str, bound: f64) -> (Verdict, f64, f64) {
    let change = worse_by(a.value, b.value, better);
    let spread = stats::spread(&a.samples);
    let verdict = if spread > bound && a.name != SPREAD_EXEMPT {
        if every_b_better(a, b, better) {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        }
    } else if change > bound {
        Verdict::Regression
    } else if every_b_better(a, b, better) && change < -bound {
        Verdict::Improved
    } else {
        Verdict::Ok
    };
    (verdict, change, spread)
}

/// Compare two result files row by row.
pub fn compare(bench: &Benchmark, a: &RunResult, b: &RunResult) -> Report {
    let mut text = String::new();
    let mut report = Report::default();
    let _ = writeln!(
        text,
        "A: seed {} nproc {} {}s/workload   B: seed {} nproc {} {}s/workload",
        a.seed, a.nproc, a.seconds, b.seed, b.nproc, b.seconds
    );
    let _ = writeln!(
        text,
        "{:<14} {:<12} {:>12} {:>12} {:>9} {:>9} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "B worse", "A spread", "bound"
    );
    for wa in &a.workloads {
        let Some(wb) = b.workload(&wa.name) else {
            let _ = writeln!(text, "{:<14} missing from B", wa.name);
            report.regressions += 1;
            continue;
        };
        for sa in &wa.end_to_end {
            let (Some(sb), Some(bound), Some(def)) = (
                wb.e2e(&sa.name),
                bench.bound(&sa.name),
                metric_def(&sa.name),
            ) else {
                continue;
            };
            let (verdict, change, spread) = judge(sa, sb, def.better, bound);
            match verdict {
                Verdict::Regression => report.regressions += 1,
                Verdict::Unresolved => report.unresolved += 1,
                Verdict::Ok | Verdict::Improved => {}
            }
            let _ = writeln!(
                text,
                "{:<14} {:<12} {:>12.5} {:>12.5} {:>+8.1}% {:>8.1}% {:>6.0}%  {}",
                wa.name,
                sa.name,
                sa.value,
                sb.value,
                change * 100.0,
                spread * 100.0,
                bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Improved => "improved",
                    Verdict::Unresolved => "UNRESOLVED (A's own spread exceeds the bound)",
                    Verdict::Regression => "REGRESSION",
                }
            );
        }
        // fail_ratio: bound 0, absolute.
        let worse = wb.fail_ratio() > wa.fail_ratio();
        report.regressions += u64::from(worse);
        report.failed_ops += wa.failed + wb.failed;
        let _ = writeln!(
            text,
            "{:<14} {:<12} {:>12} {:>12} {:>9} {:>9} {:>7}  {}",
            wa.name,
            "fail_ratio",
            format!("{}/{}", wa.failed, wa.attempted),
            format!("{}/{}", wb.failed, wb.attempted),
            "",
            "",
            "0 abs",
            if worse { "REGRESSION" } else { "ok" }
        );
    }
    let _ = writeln!(
        text,
        "\ncount-type layer metrics (must repeat exactly on one build and seed):"
    );
    for wa in &a.workloads {
        let Some(wb) = b.workload(&wa.name) else {
            continue;
        };
        for name in EXACT_COUNTS {
            let (Some(va), Some(vb)) = (wa.layer(name), wb.layer(name)) else {
                continue;
            };
            if va == 0.0 && vb == 0.0 {
                continue;
            }
            let racy = RACY_COUNTS.contains(&(wa.name.as_str(), name));
            let same = va == vb;
            if !same && !racy {
                report.count_mismatches += 1;
            }
            let _ = writeln!(
                text,
                "{:<14} {:<36} {:>16} {:>16}  {}",
                wa.name,
                name,
                va,
                vb,
                match (same, racy) {
                    (true, _) => "same",
                    (false, true) => "differs (excused: rayon workers race on cold cache misses)",
                    (false, false) => "DIFFERS",
                }
            );
        }
    }
    let _ = writeln!(
        text,
        "\n{} regression(s), {} unresolved, {} count mismatch(es), {} failed operation(s)",
        report.regressions, report.unresolved, report.count_mismatches, report.failed_ops
    );
    report.text = text;
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(name: &str, samples: &[f64]) -> Sampled {
        Sampled::new(name, samples.to_vec())
    }

    #[test]
    fn within_bound_is_ok_and_beyond_is_a_regression() {
        let a = s("wall_s", &[1.00, 1.01, 0.99, 1.00, 1.02]);
        let ok = s("wall_s", &[1.05, 1.04, 1.06, 1.05, 1.05]);
        let bad = s("wall_s", &[1.20, 1.21, 1.19, 1.20, 1.22]);
        assert_eq!(judge(&a, &ok, "lower", 0.10).0, Verdict::Ok);
        assert_eq!(judge(&a, &bad, "lower", 0.10).0, Verdict::Regression);
        // Direction matters: a 20% higher throughput is no regression.
        let ua = s("units_per_s", &[100.0, 101.0, 99.0, 100.0, 100.0]);
        let ub = s("units_per_s", &[120.0, 121.0, 119.0, 120.0, 120.0]);
        assert_eq!(judge(&ua, &ub, "higher", 0.10).0, Verdict::Improved);
        assert_eq!(judge(&ub, &ua, "higher", 0.10).0, Verdict::Regression);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let a = s("wall_s", &[0.8, 1.0, 1.2, 0.9, 1.1]);
        let b = s("wall_s", &[0.9, 1.0, 1.1, 1.0, 1.0]);
        let (verdict, _, spread) = judge(&a, &b, "lower", 0.10);
        assert!(spread > 0.10);
        assert_eq!(verdict, Verdict::Unresolved);
        // ...unless every run of B beats every run of A.
        let fast = s("wall_s", &[0.5, 0.6, 0.55, 0.5, 0.52]);
        assert_eq!(judge(&a, &fast, "lower", 0.10).0, Verdict::Improved);
        // Set-up time is judged on its medians alone.
        let setup = |v: &[f64]| s("setup_s", v);
        assert_eq!(
            judge(
                &setup(&[0.8, 1.0, 1.2]),
                &setup(&[0.9, 1.0, 1.1]),
                "lower",
                0.10
            )
            .0,
            Verdict::Ok
        );
    }
}
