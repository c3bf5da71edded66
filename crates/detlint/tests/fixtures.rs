//! End-to-end fixture tests: the `violations/` tree trips every rule at the
//! expected file:line, the `clean/` tree (annotated allows, exempt paths,
//! tokens hidden in comments/strings) passes, and — the self-check — the
//! live workspace this tool ships in is itself clean.

use std::path::{Path, PathBuf};
use std::process::Command;

use detlint::{check_workspace, Report};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn hits(report: &Report) -> Vec<String> {
    report
        .diagnostics
        .iter()
        .map(|d| format!("{}:{}:{}", d.rule, d.path, d.line))
        .collect()
}

#[test]
fn violations_fixture_trips_every_rule_at_the_expected_lines() {
    let report = check_workspace(&fixture("violations")).expect("fixture tree readable");
    let got = hits(&report);
    let expected = [
        // counters.rs: atomics outside crates/obs.
        "atomics:crates/analysis/src/counters.rs:3",
        "atomics:crates/analysis/src/counters.rs:5",
        "atomics:crates/analysis/src/counters.rs:8",
        // annots.rs: malformed allows do not exempt their lines.
        "bad-annotation:crates/evo-core/src/annots.rs:3",
        "hash-iter:crates/evo-core/src/annots.rs:3",
        "bad-annotation:crates/evo-core/src/annots.rs:5",
        "bad-annotation:crates/evo-core/src/annots.rs:8",
        "hash-iter:crates/evo-core/src/annots.rs:8",
        // lib.rs: missing forbid(unsafe_code) plus raw HashMap use.
        "forbid-unsafe:crates/evo-core/src/lib.rs:1",
        "hash-iter:crates/evo-core/src/lib.rs:3",
        "hash-iter:crates/evo-core/src/lib.rs:5",
        "hash-iter:crates/evo-core/src/lib.rs:6",
        // ambient.rs: one ambient-authority leak per line.
        "ambient-rng:crates/ipd/src/ambient.rs:4",
        "ambient-rng:crates/ipd/src/ambient.rs:5",
        "wall-clock:crates/ipd/src/ambient.rs:9",
        "wall-clock:crates/ipd/src/ambient.rs:10",
        "env-read:crates/ipd/src/ambient.rs:15",
        // engine.rs: RNG constructors reachable from plan (via a helper) and
        // commit (directly) — the structural call-graph walk reports the draw
        // site, not the root.
        "phase-purity:crates/evo-core/src/engine.rs:9",
        "phase-purity:crates/evo-core/src/engine.rs:14",
        // draws.rs: Faults and Nature streams drawn outside their owners.
        "rng-domain:crates/ipd/src/draws.rs:4",
        "rng-domain:crates/ipd/src/draws.rs:9",
        // exchange.rs: wildcard-source then deadline-free receives.
        "comm-discipline:crates/cluster/src/exchange.rs:4",
        "comm-discipline:crates/cluster/src/exchange.rs:8",
        // stats.rs: float accumulation over HashMap iteration order.
        "float-order:src/stats.rs:8",
        "float-order:src/stats.rs:13",
        // dist.rs: unannotated panic paths in the distributed hot path.
        "panic-path:crates/cluster/src/dist.rs:4",
        "panic-path:crates/cluster/src/dist.rs:8",
        "panic-path:crates/cluster/src/dist.rs:12",
    ];
    for want in expected {
        assert!(got.contains(&want.to_string()), "missing {want}; got {got:#?}");
    }
    assert_eq!(got.len(), expected.len(), "unexpected extras in {got:#?}");

    // Every registered rule (and the reserved bad-annotation slug) fired.
    for rule in detlint::rules::REGISTRY {
        assert!(
            report.diagnostics.iter().any(|d| d.rule == rule.slug),
            "rule {} never fired on the violations fixture",
            rule.slug
        );
    }
}

#[test]
fn clean_fixture_passes() {
    let report = check_workspace(&fixture("clean")).expect("fixture tree readable");
    assert!(
        report.is_clean(),
        "clean fixture should have no diagnostics: {:#?}",
        report.diagnostics
    );
    assert_eq!(report.files_scanned, 9);
}

#[test]
fn live_workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = check_workspace(&root).expect("workspace readable");
    let rendered: Vec<String> = report.diagnostics.iter().map(|d| d.render()).collect();
    assert!(
        report.is_clean(),
        "the live workspace must satisfy its own determinism contract:\n{}",
        rendered.join("\n")
    );
    assert!(report.files_scanned > 50, "suspiciously few files scanned");
    // A purity root that names no fn is checked from nowhere: a renamed
    // phase must take its root along.
    assert!(
        report.unresolved_roots.is_empty(),
        "phase-purity roots that resolve to no non-test fn: {:?}",
        report.unresolved_roots
    );

    // The registry carries both lint classes: six lexical rules and the five
    // structural contract checks. A partial registry means the self-check
    // above proved much less than it claims.
    assert_eq!(detlint::rules::REGISTRY.len(), 11);
    assert_eq!(
        detlint::rules::REGISTRY
            .iter()
            .filter(|r| r.is_structural())
            .count(),
        5
    );
}

#[test]
fn cli_exit_codes_and_formats() {
    let bin = env!("CARGO_BIN_EXE_detlint");

    // Violations: exit 1, text diagnostics carry file:line: [rule].
    let out = Command::new(bin)
        .args(["check", "--root"])
        .arg(fixture("violations"))
        .output()
        .expect("run detlint");
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(
        text.contains("crates/ipd/src/ambient.rs:4: [ambient-rng]"),
        "{text}"
    );

    // Same tree as JSON: machine-readable, still exit 1.
    let out = Command::new(bin)
        .args(["check", "--format", "json", "--root"])
        .arg(fixture("violations"))
        .output()
        .expect("run detlint");
    assert_eq!(out.status.code(), Some(1));
    let json = String::from_utf8(out.stdout).unwrap();
    assert!(json.contains("\"rule\":\"hash-iter\""), "{json}");
    assert!(json.contains("\"violations\":28"), "{json}");

    // Same tree as SARIF: valid 2.1.0 envelope with a populated rule index.
    let out = Command::new(bin)
        .args(["check", "--format", "sarif", "--root"])
        .arg(fixture("violations"))
        .output()
        .expect("run detlint");
    assert_eq!(out.status.code(), Some(1));
    let sarif = String::from_utf8(out.stdout).unwrap();
    assert!(sarif.contains("\"version\":\"2.1.0\""), "{sarif}");
    assert!(sarif.contains("\"ruleId\":\"phase-purity\""), "{sarif}");

    // Class filter: the structural pass alone reports the 11 contract hits
    // plus the 3 malformed annotations (bad-annotation rides in both
    // classes so a broken allow can never dodge either stage), and still
    // exits 1.
    let out = Command::new(bin)
        .args(["check", "--rules", "structural", "--format", "json", "--root"])
        .arg(fixture("violations"))
        .output()
        .expect("run detlint");
    assert_eq!(out.status.code(), Some(1));
    let json = String::from_utf8(out.stdout).unwrap();
    assert!(json.contains("\"violations\":14"), "{json}");
    assert!(!json.contains("\"rule\":\"hash-iter\""), "{json}");

    // Clean tree: exit 0.
    let out = Command::new(bin)
        .args(["check", "--root"])
        .arg(fixture("clean"))
        .output()
        .expect("run detlint");
    assert_eq!(out.status.code(), Some(0));

    // Unknown flag: usage error, exit 2.
    let out = Command::new(bin)
        .arg("--bogus")
        .output()
        .expect("run detlint");
    assert_eq!(out.status.code(), Some(2));
}
