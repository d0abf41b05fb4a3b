//! Report assembly and hand-rolled JSON serialization for the
//! machine-readable output (`wakurln-lint --json`).
//!
//! Schema `wakurln-lint/v1`:
//!
//! ```json
//! {
//!   "schema": "wakurln-lint/v1",
//!   "files_scanned": 93,
//!   "allowed_count": 91,
//!   "findings": [ {"rule": "…", "file": "…", "line": 10, "message": "…"} ],
//!   "allowed":  [ {"rule": "…", "file": "…", "line": 12, "reason": "…"} ],
//!   "rule_counts": { "map-iteration": 0, … }
//! }
//! ```
//!
//! `findings` are the *unannotated* violations — the array a clean tree
//! commits as `[]` and the regression guard pins to `[]`. `allowed` is
//! the suppression inventory (every entry carries its marker reason).

use crate::rules::{Finding, RULES};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The whole-workspace lint result.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Number of `.rs` files lexed and checked.
    pub files_scanned: usize,
    /// Unannotated findings (violations).
    pub findings: Vec<Finding>,
    /// Suppressed findings (marker reason in `allowed`).
    pub allowed: Vec<Finding>,
}

impl Report {
    /// Fold per-file findings into the report.
    pub fn absorb(&mut self, file_findings: Vec<Finding>) {
        self.files_scanned += 1;
        for f in file_findings {
            if f.allowed.is_some() {
                self.allowed.push(f);
            } else {
                self.findings.push(f);
            }
        }
    }

    /// Count of unannotated findings per rule, for the summary line.
    pub fn rule_counts(&self) -> BTreeMap<&'static str, usize> {
        let mut counts: BTreeMap<&'static str, usize> = RULES.iter().map(|r| (*r, 0)).collect();
        for f in &self.findings {
            *counts.entry(f.rule).or_insert(0) += 1;
        }
        counts
    }

    /// Serialize as schema-stable JSON (sorted, 2-space indent).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"schema\": \"wakurln-lint/v1\",\n");
        let _ = writeln!(s, "  \"files_scanned\": {},", self.files_scanned);
        let _ = writeln!(s, "  \"allowed_count\": {},", self.allowed.len());
        s.push_str("  \"findings\": [");
        write_entries(&mut s, &self.findings, false);
        s.push_str("],\n  \"allowed\": [");
        write_entries(&mut s, &self.allowed, true);
        s.push_str("],\n  \"rule_counts\": {");
        let counts = self.rule_counts();
        for (i, (rule, n)) in counts.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\n    \"{rule}\": {n}");
        }
        s.push_str("\n  }\n}\n");
        s
    }
}

fn write_entries(s: &mut String, entries: &[Finding], allowed: bool) {
    for (i, f) in entries.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "\n    {{\"rule\": {}, \"file\": {}, \"line\": {}, ",
            json_str(f.rule),
            json_str(&f.file),
            f.line
        );
        if allowed {
            let reason = f.allowed.as_deref().unwrap_or("");
            let _ = write!(s, "\"reason\": {}}}", json_str(reason));
        } else {
            let _ = write!(s, "\"message\": {}}}", json_str(&f.message));
        }
    }
    if !entries.is_empty() {
        s.push_str("\n  ");
    }
}

/// Escape a string for JSON.
fn json_str(v: &str) -> String {
    let mut out = String::with_capacity(v.len() + 2);
    out.push('"');
    for c in v.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
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
    fn findings_are_counted() {
        let mut r = Report::default();
        r.absorb(vec![Finding {
            rule: "panic-path",
            file: "x.rs".to_string(),
            line: 3,
            message: "`.unwrap()` with \"quotes\" and {braces}".to_string(),
            allowed: None,
        }]);
        let json = r.to_json();
        assert!(json.contains("\"findings\": [\n    {\"rule\": \"panic-path\""));
        assert!(json.contains("\"panic-path\": 1"));
        assert!(json.contains("\\\"quotes\\\""));
    }
}
