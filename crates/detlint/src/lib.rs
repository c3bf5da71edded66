//! `detlint` — the workspace determinism & concurrency static-analysis
//! pass.
//!
//! The engine's headline guarantee (documented in `docs/OBSERVABILITY.md`
//! and pinned by `tests/determinism.rs`) is that a run is **bit-identical**
//! for a given seed at any thread count, in any execution mode. That
//! guarantee is easy to break silently: one `HashMap` iteration feeding a
//! float sum, one `thread_rng()` call, one relaxed atomic in simulation
//! logic, and results differ run to run with every test still green.
//!
//! `detlint` walks every `.rs` file under `crates/`, `src/`, and `tests/`
//! and enforces the contract *statically* (see [`rules::REGISTRY`]):
//!
//! - `hash-iter` — no `HashMap`/`HashSet` in the engine crates;
//! - `ambient-rng` — no `thread_rng`/`rand::random` outside obs/bench/CLI;
//! - `wall-clock` — no `SystemTime::now`/`Instant::now` outside the same;
//! - `env-read` — no `std::env` reads outside the same;
//! - `atomics` — atomics and memory orderings confined to `crates/obs`;
//! - `forbid-unsafe` — `#![forbid(unsafe_code)]` in every crate root.
//!
//! Sites that are provably harmless carry an annotation with a mandatory
//! reason (see [`annot`]):
//!
//! ```text
//! // detlint: allow(hash-iter, reason = "lookup-only; never iterated")
//! ```
//!
//! Run it as `cargo run -p detlint --release -- check` (wired into
//! `scripts/verify.sh`); `--format json` emits the machine-readable report.
//! `docs/STATIC_ANALYSIS.md` documents every rule and the annotation
//! grammar.

#![forbid(unsafe_code)]

pub mod annot;
pub mod clean;
pub mod contracts;
pub mod diag;
pub mod paths;
pub mod rules;
pub mod sarif;
pub mod structure;

pub use diag::{Diagnostic, Report};

use annot::{Allow, AllowScope};
use rules::{Rule, RuleKind};
use std::path::Path;

/// One analyzed file: parsed structure plus its allow tables, so both the
/// per-file passes and the workspace-level call-graph pass can filter
/// diagnostics through the same annotations.
struct Analyzed {
    rel_path: String,
    structure: structure::FileStructure,
    file_allows: Vec<Allow>,
    line_allows: Vec<Vec<Allow>>,
}

impl Analyzed {
    /// Is `slug` allowed at 1-based `line`?
    fn allowed(&self, slug: &str, line: usize) -> bool {
        self.file_allows.iter().any(|a| a.rule == slug)
            || self
                .line_allows
                .get(line.saturating_sub(1))
                .is_some_and(|l| l.iter().any(|a| a.rule == slug))
    }

    /// Drop diagnostics covered by allows (`bad-annotation` never is).
    fn filter(&self, diags: Vec<Diagnostic>) -> Vec<Diagnostic> {
        diags
            .into_iter()
            .filter(|d| d.rule == rules::BAD_ANNOTATION || !self.allowed(&d.rule, d.line))
            .collect()
    }
}

/// Lex + parse one file: annotation tables, annotation diagnostics, and
/// every per-file rule (lexical and local-structural), unfiltered.
fn analyze(rel_path: &str, source: &str) -> (Analyzed, Vec<Diagnostic>) {
    let lines = clean::clean(source);
    let mut diags = Vec::new();

    // Gather annotations: per-line effective allows (trailing, or carried
    // from comment-only lines above) and file-wide allows.
    let mut file_allows: Vec<Allow> = Vec::new();
    let mut line_allows: Vec<Vec<Allow>> = vec![Vec::new(); lines.len()];
    let mut pending: Vec<Allow> = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let (allows, bad) = annot::parse(&line.comment);
        for b in bad {
            diags.push(Diagnostic {
                rule: rules::BAD_ANNOTATION.into(),
                path: rel_path.into(),
                line: i + 1,
                message: b.problem,
            });
        }
        let (file_scope, line_scope): (Vec<Allow>, Vec<Allow>) =
            allows.into_iter().partition(|a| a.scope == AllowScope::File);
        for a in file_scope.iter().chain(line_scope.iter()) {
            if rules::rule(&a.rule).is_none() {
                diags.push(unknown_rule(rel_path, i + 1, &a.rule));
            }
        }
        file_allows.extend(file_scope);
        if line.code.trim().is_empty() {
            // Comment-only or blank line: allows apply to the next code line.
            pending.extend(line_scope);
        } else {
            line_allows[i] = std::mem::take(&mut pending);
            line_allows[i].extend(line_scope);
        }
    }

    for rule in rules::REGISTRY {
        if !rule.applies(rel_path) {
            continue;
        }
        match rule.kind {
            RuleKind::TokenDeny { tokens, .. } => {
                for (i, line) in lines.iter().enumerate() {
                    for token in tokens {
                        if clean::find_token(&line.code, token).is_some() {
                            diags.push(token_diag(rule, rel_path, i + 1, token));
                            break; // one diagnostic per line per rule
                        }
                    }
                }
            }
            RuleKind::RequireForbidUnsafe => {
                let has = lines.iter().any(|l| {
                    l.code
                        .split_whitespace()
                        .collect::<String>()
                        .contains("#![forbid(unsafe_code)]")
                });
                if !has {
                    diags.push(Diagnostic {
                        rule: rule.slug.into(),
                        path: rel_path.into(),
                        line: 1,
                        message: format!(
                            "crate/binary root is missing `#![forbid(unsafe_code)]` — {}",
                            rule.summary
                        ),
                    });
                }
            }
            // Dispatched below over the parsed structure (phase-purity
            // needs the whole workspace and runs in check_sources).
            RuleKind::Structural(_) => {}
        }
    }

    let fs = structure::FileStructure::parse(rel_path, &lines);
    diags.extend(contracts::check_file(rel_path, &fs));

    let analyzed = Analyzed {
        rel_path: rel_path.to_string(),
        structure: fs,
        file_allows,
        line_allows,
    };
    (analyzed, diags)
}

/// Check one file's source against every applicable per-file rule.
///
/// `rel_path` is the workspace-relative `/`-separated path; scoping and
/// root detection key off it, so callers (and tests) can present any
/// content as living anywhere in the workspace. The workspace-level
/// `phase-purity` pass needs every file at once and therefore only runs
/// in [`check_sources`]/[`check_workspace`].
pub fn check_file(rel_path: &str, source: &str) -> Vec<Diagnostic> {
    let (analyzed, diags) = analyze(rel_path, source);
    let mut diags = analyzed.filter(diags);
    diags.sort_by(|a, b| a.line.cmp(&b.line).then_with(|| a.rule.cmp(&b.rule)));
    diags
}

/// Check a set of in-memory `(rel_path, source)` files as one workspace:
/// every per-file rule plus the cross-file `phase-purity` pass.
pub fn check_sources(files: &[(String, String)]) -> Report {
    let mut analyzed = Vec::with_capacity(files.len());
    let mut per_file_diags = Vec::with_capacity(files.len());
    for (rel, source) in files {
        let (a, d) = analyze(rel, source);
        analyzed.push(a);
        per_file_diags.push(d);
    }

    let parsed: Vec<contracts::ParsedFile> = analyzed
        .iter()
        .map(|a| contracts::ParsedFile {
            rel_path: a.rel_path.clone(),
            structure: a.structure.clone(),
        })
        .collect();
    for d in contracts::phase_purity(&parsed) {
        if let Some(i) = analyzed.iter().position(|a| a.rel_path == d.path) {
            per_file_diags[i].push(d);
        }
    }

    let mut report = Report {
        files_scanned: files.len(),
        unresolved_roots: contracts::unresolved_roots(&parsed),
        ..Report::default()
    };
    for (a, diags) in analyzed.iter().zip(per_file_diags) {
        report.diagnostics.extend(a.filter(diags));
    }
    report.diagnostics.sort_by(|a, b| {
        a.path
            .cmp(&b.path)
            .then_with(|| a.line.cmp(&b.line))
            .then_with(|| a.rule.cmp(&b.rule))
    });
    report.diagnostics.dedup();
    report
}

fn token_diag(rule: &Rule, rel_path: &str, line: usize, token: &str) -> Diagnostic {
    Diagnostic {
        rule: rule.slug.into(),
        path: rel_path.into(),
        line,
        message: format!(
            "`{token}` violates the determinism contract here ({}); fix it or annotate with \
             `// detlint: allow({}, reason = \"...\")`",
            rule.summary, rule.slug
        ),
    }
}

fn unknown_rule(rel_path: &str, line: usize, slug: &str) -> Diagnostic {
    Diagnostic {
        rule: rules::BAD_ANNOTATION.into(),
        path: rel_path.into(),
        line,
        message: format!(
            "allow({slug}) names no registered rule — known slugs: {}",
            rules::REGISTRY
                .iter()
                .map(|r| r.slug)
                .collect::<Vec<_>>()
                .join(", ")
        ),
    }
}

/// Walk the workspace at `root` and check every `.rs` file under the scan
/// dirs ([`paths::SCAN_DIRS`]), including the cross-file passes.
pub fn check_workspace(root: &Path) -> std::io::Result<Report> {
    let mut files = Vec::new();
    for rel in paths::collect_rs_files(root)? {
        let source = std::fs::read_to_string(root.join(&rel))?;
        files.push((paths::normalise(&rel), source));
    }
    Ok(check_sources(&files))
}

#[cfg(test)]
mod tests {
    use super::*;

    const ENGINE: &str = "crates/evo-core/src/x.rs";

    #[test]
    fn flags_hashmap_in_engine_crate() {
        let diags = check_file(ENGINE, "use std::collections::HashMap;\n");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "hash-iter");
        assert_eq!(diags[0].line, 1);
    }

    #[test]
    fn ignores_hashmap_outside_engine_crates() {
        assert!(check_file("crates/obs/src/x.rs", "use std::collections::HashMap;\n")
            .is_empty());
        assert!(check_file("src/x.rs", "use std::collections::HashMap;\n").is_empty());
    }

    #[test]
    fn ignores_tokens_in_comments_and_strings() {
        let src = "// a HashMap would be wrong here\nlet s = \"HashMap\";\n";
        assert!(check_file(ENGINE, src).is_empty());
    }

    #[test]
    fn trailing_allow_exempts_its_line() {
        let src = "use std::collections::HashMap; // detlint: allow(hash-iter, reason = \"ok\")\n";
        assert!(check_file(ENGINE, src).is_empty());
    }

    #[test]
    fn preceding_allow_exempts_next_code_line() {
        let src = "// detlint: allow(hash-iter, reason = \"lookup-only\")\n\
                   use std::collections::HashMap;\n\
                   type M = HashMap<u32, u32>;\n";
        let diags = check_file(ENGINE, src);
        assert_eq!(diags.len(), 1, "allow covers one line, not the file: {diags:?}");
        assert_eq!(diags[0].line, 3);
    }

    #[test]
    fn file_allow_exempts_whole_file() {
        let src = "//! detlint: allow-file(atomics, reason = \"message substrate\")\n\
                   use std::sync::atomic::{AtomicU64, Ordering};\n\
                   fn f(x: &AtomicU64) -> u64 { x.load(Ordering::Acquire) }\n";
        assert!(check_file("crates/cluster/src/x.rs", src).is_empty());
    }

    #[test]
    fn allow_without_reason_is_a_violation() {
        let src = "use std::collections::HashMap; // detlint: allow(hash-iter)\n";
        let diags = check_file(ENGINE, src);
        assert_eq!(diags.len(), 2, "{diags:?}"); // bad-annotation + hash-iter
        assert!(diags.iter().any(|d| d.rule == rules::BAD_ANNOTATION));
        assert!(diags.iter().any(|d| d.rule == "hash-iter"));
    }

    #[test]
    fn allow_for_unknown_rule_is_reported() {
        let src = "// detlint: allow(no-such-rule, reason = \"x\")\nfn f() {}\n";
        let diags = check_file(ENGINE, src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, rules::BAD_ANNOTATION);
    }

    #[test]
    fn wall_clock_and_env_rules_fire_outside_exemptions() {
        let src = "fn f() { let t = std::time::Instant::now(); }\n\
                   fn g() -> bool { std::env::var(\"X\").is_ok() }\n";
        let diags = check_file("crates/cluster/src/x.rs", src);
        assert_eq!(diags.len(), 2);
        assert_eq!(diags[0].rule, "wall-clock");
        assert_eq!(diags[1].rule, "env-read");
        // ... but not in the CLI or workspace tests (the CLI file is a
        // binary root, so it still needs the forbid-unsafe attribute).
        let cli = format!("#![forbid(unsafe_code)]\n{src}");
        assert!(check_file("src/bin/cli.rs", &cli).is_empty());
        assert!(check_file("tests/observability.rs", src).is_empty());
    }

    #[test]
    fn ambient_rng_fires_even_in_engine_tests() {
        let src = "let x: u8 = rand::random();\n";
        assert_eq!(check_file("crates/ipd/tests/t.rs", src).len(), 1);
        assert!(check_file("crates/bench/src/paper_data.rs", src).is_empty());
    }

    #[test]
    fn forbid_unsafe_required_in_roots_only() {
        let bare = "pub fn f() {}\n";
        let good = "#![forbid(unsafe_code)]\npub fn f() {}\n";
        assert_eq!(check_file("crates/obs/src/lib.rs", bare).len(), 1);
        assert!(check_file("crates/obs/src/lib.rs", good).is_empty());
        // Non-root modules don't need the attribute.
        assert!(check_file("crates/obs/src/other.rs", bare).is_empty());
    }

    #[test]
    fn one_diagnostic_per_line_per_rule() {
        let src = "use std::collections::{HashMap, HashSet};\n";
        assert_eq!(check_file(ENGINE, src).len(), 1);
    }
}
