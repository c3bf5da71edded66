//! Compares two `--save-json` criterion baselines and fails on regression.
//!
//! Usage:
//!
//! ```text
//! cargo run -p bench --release --bin bench_compare -- \
//!     benchmarks/BENCH_generation.json target/bench/BENCH_generation.json \
//!     [--threshold-pct 10]
//! ```
//!
//! Both inputs are the `{"benchmarks": [{"group", "id", "ns_per_iter",
//! "iterations"}, …]}` files written by `cargo bench -p bench --bench <b>
//! -- --save-json <path>` (see docs/PERFORMANCE.md for the committed
//! `benchmarks/BENCH_*.json` naming scheme). Every `(group, id)` pair
//! present in **both** files is compared; the run exits non-zero if any
//! common benchmark got slower than the threshold (default 10%).
//! Benchmarks only in the candidate are listed as `new` and never fail.
//! Benchmarks only in the **baseline** are a hard error (exit 2): a
//! renamed or deleted bench must be retired from the committed baseline
//! in the same change, or the gate would silently stop watching it.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::process::ExitCode;

#[derive(serde::Deserialize)]
struct File {
    benchmarks: Vec<Entry>,
}

#[derive(serde::Deserialize)]
struct Entry {
    group: String,
    id: String,
    ns_per_iter: f64,
    #[serde(default)]
    #[allow(dead_code)]
    iterations: u64,
}

fn load(path: &str) -> BTreeMap<(String, String), f64> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("bench_compare: cannot read {path}: {e}"));
    let file: File = serde_json::from_str(&text)
        .unwrap_or_else(|e| panic!("bench_compare: {path} is not a --save-json baseline: {e}"));
    file.benchmarks
        .into_iter()
        .map(|b| ((b.group, b.id), b.ns_per_iter))
        .collect()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths = Vec::new();
    let mut threshold_pct = 10.0f64;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--threshold-pct" {
            let v = it.next().expect("--threshold-pct needs a value");
            threshold_pct = v
                .parse()
                .unwrap_or_else(|_| panic!("invalid --threshold-pct value {v:?}"));
        } else {
            paths.push(a.clone());
        }
    }
    if paths.len() != 2 {
        eprintln!(
            "usage: bench_compare <baseline.json> <candidate.json> [--threshold-pct N]"
        );
        return ExitCode::from(2);
    }
    let baseline = load(&paths[0]);
    let candidate = load(&paths[1]);

    let mut regressions = 0usize;
    let mut compared = 0usize;
    let mut gone: Vec<String> = Vec::new();
    println!(
        "{:<44} {:>14} {:>14} {:>9}",
        "benchmark", "baseline ns", "candidate ns", "delta"
    );
    for ((group, id), &base_ns) in &baseline {
        let Some(&cand_ns) = candidate.get(&(group.clone(), id.clone())) else {
            println!("{:<44} {base_ns:>14.0} {:>14} {:>9}", format!("{group}/{id}"), "-", "gone");
            gone.push(format!("{group}/{id}"));
            continue;
        };
        compared += 1;
        let delta_pct = (cand_ns - base_ns) / base_ns * 100.0;
        let verdict = if delta_pct > threshold_pct {
            regressions += 1;
            "REGRESS"
        } else {
            ""
        };
        println!(
            "{:<44} {base_ns:>14.0} {cand_ns:>14.0} {delta_pct:>+8.1}% {verdict}",
            format!("{group}/{id}")
        );
    }
    for (key, &cand_ns) in &candidate {
        if !baseline.contains_key(key) {
            println!(
                "{:<44} {:>14} {cand_ns:>14.0} {:>9}",
                format!("{}/{}", key.0, key.1),
                "-",
                "new"
            );
        }
    }
    println!(
        "\n{compared} benchmarks compared, {regressions} regressed past \
         {threshold_pct}% (candidate slower than baseline)"
    );
    if compared == 0 {
        eprintln!("bench_compare: FAIL — no common benchmarks between the two files");
        return ExitCode::from(2);
    }
    // A baseline benchmark missing from the candidate is a hard error,
    // not a vacuous pass: a renamed or deleted group would otherwise
    // silently drop out of the gate and regressions there would never be
    // seen again. Retiring a bench for real means retiring it from the
    // committed baseline in the same change (docs/PERFORMANCE.md §4).
    if !gone.is_empty() {
        eprintln!(
            "bench_compare: FAIL — {} baseline benchmark(s) missing from candidate \
             (renamed or deleted?): {}",
            gone.len(),
            gone.join(", ")
        );
        eprintln!(
            "bench_compare: if intentionally retired, remove them from the baseline file too"
        );
        return ExitCode::from(2);
    }
    if regressions > 0 {
        eprintln!("bench_compare: FAIL — performance regression past {threshold_pct}%");
        return ExitCode::FAILURE;
    }
    println!("bench_compare: OK");
    ExitCode::SUCCESS
}
