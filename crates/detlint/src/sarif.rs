//! SARIF 2.1.0 output, for CI diff annotation and artifact upload.
//!
//! Hand-rolled (the tool is dependency-free): one `run`, the rule
//! registry mirrored into `tool.driver.rules` so viewers can show the
//! full rationale, and one `result` per diagnostic with a physical
//! location. The subset used here is stable across SARIF consumers
//! (GitHub code scanning, VS Code SARIF viewer).

use crate::diag::{json_string, Report};
use crate::rules;

/// Render `report` as a SARIF 2.1.0 log.
pub fn to_sarif(report: &Report) -> String {
    let mut out = String::from(
        "{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",\
         \"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":{\
         \"name\":\"detlint\",\"informationUri\":\"docs/STATIC_ANALYSIS.md\",\"rules\":[",
    );
    for (i, r) in rules::REGISTRY.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"id\":{},\"shortDescription\":{{\"text\":{}}},\
             \"fullDescription\":{{\"text\":{}}}}}",
            json_string(r.slug),
            json_string(r.summary),
            json_string(r.rationale),
        ));
    }
    // The reserved slug for malformed annotations is a rule too, as far
    // as SARIF consumers are concerned.
    out.push_str(&format!(
        ",{{\"id\":{},\"shortDescription\":{{\"text\":\
         {}}}}}",
        json_string(rules::BAD_ANNOTATION),
        json_string("malformed or unknown detlint allow annotation"),
    ));
    out.push_str("]}},\"results\":[");
    for (i, d) in report.diagnostics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"ruleId\":{},\"level\":\"error\",\"message\":{{\"text\":{}}},\
             \"locations\":[{{\"physicalLocation\":{{\"artifactLocation\":\
             {{\"uri\":{}}},\"region\":{{\"startLine\":{}}}}}}}]}}",
            json_string(&d.rule),
            json_string(&d.message),
            json_string(&d.path),
            d.line,
        ));
    }
    out.push_str("]}]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Diagnostic;

    #[test]
    fn sarif_log_carries_rules_and_results() {
        let report = Report {
            files_scanned: 1,
            diagnostics: vec![Diagnostic {
                rule: "phase-purity".into(),
                path: "crates/evo-core/src/engine.rs".into(),
                line: 12,
                message: "RNG \"reachable\"".into(),
            }],
            ..Report::default()
        };
        let log = to_sarif(&report);
        assert!(log.contains("\"version\":\"2.1.0\""), "{log}");
        assert!(log.contains("\"ruleId\":\"phase-purity\""), "{log}");
        assert!(log.contains("\"startLine\":12"), "{log}");
        assert!(log.contains("RNG \\\"reachable\\\""), "escaped: {log}");
        // Every registered rule (and the reserved slug) is declared.
        for r in rules::REGISTRY {
            assert!(log.contains(&format!("\"id\":\"{}\"", r.slug)), "{}", r.slug);
        }
        assert!(log.contains("\"id\":\"bad-annotation\""), "{log}");
    }

    #[test]
    fn empty_report_is_valid_sarif_with_no_results() {
        let log = to_sarif(&Report::default());
        assert!(log.ends_with("\"results\":[]}]}"), "{log}");
    }
}
