//! Diagnostics and report rendering (text and JSON).

/// One violation at a file/line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule slug ([`crate::rules::BAD_ANNOTATION`] for malformed allows).
    pub rule: String,
    /// Workspace-relative `/`-separated path.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description of the violation.
    pub message: String,
}

impl Diagnostic {
    /// `path:line: [rule] message` — the grep/editor-friendly form.
    pub fn render(&self) -> String {
        format!("{}:{}: [{}] {}", self.path, self.line, self.rule, self.message)
    }
}

/// The outcome of a workspace check.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Report {
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// All violations, sorted by (path, line, rule).
    pub diagnostics: Vec<Diagnostic>,
    /// Phase-purity roots that name no fn of the scanned tree
    /// ([`crate::contracts::unresolved_roots`]). Not a violation, since a
    /// partial tree need not hold every phase; the live workspace's
    /// self-check requires it empty.
    pub unresolved_roots: Vec<&'static str>,
}

impl Report {
    /// `true` when the workspace honours the contract.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Render the machine-readable JSON form:
    /// `{"files_scanned":N,"violations":N,"diagnostics":[{...}]}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!("\"files_scanned\":{},", self.files_scanned));
        out.push_str(&format!("\"violations\":{},", self.diagnostics.len()));
        out.push_str("\"diagnostics\":[");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"rule\":{},\"path\":{},\"line\":{},\"message\":{}}}",
                json_string(&d.rule),
                json_string(&d.path),
                d.line,
                json_string(&d.message),
            ));
        }
        out.push_str("]}");
        out
    }
}

/// Escape `s` as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_grep_friendly_text() {
        let d = Diagnostic {
            rule: "hash-iter".into(),
            path: "crates/evo-core/src/fitness.rs".into(),
            line: 238,
            message: "HashMap forbidden here".into(),
        };
        assert_eq!(
            d.render(),
            "crates/evo-core/src/fitness.rs:238: [hash-iter] HashMap forbidden here"
        );
    }

    #[test]
    fn json_escapes_specials() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn report_json_shape() {
        let r = Report {
            files_scanned: 2,
            diagnostics: vec![Diagnostic {
                rule: "atomics".into(),
                path: "a.rs".into(),
                line: 1,
                message: "m".into(),
            }],
            ..Report::default()
        };
        assert_eq!(
            r.to_json(),
            "{\"files_scanned\":2,\"violations\":1,\"diagnostics\":[{\"rule\":\"atomics\",\
             \"path\":\"a.rs\",\"line\":1,\"message\":\"m\"}]}"
        );
    }
}
