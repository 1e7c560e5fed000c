//! Diagnostics: the violation record, waiver resolution, and the two
//! output formats (human `file:line:col` lines and machine JSON).

use std::fmt::Write as _;

/// One rule hit at a source position. `waived` is filled in by waiver
/// resolution after all rules ran.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Rule id, e.g. `D001`.
    pub rule: &'static str,
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    pub line: u32,
    pub col: u32,
    /// One-line explanation with the offending identifier inlined.
    pub message: String,
    /// The waiver reason when a `lint:allow` covers this hit.
    pub waived: Option<String>,
}

/// A parsed `// lint:allow(rule[, rule…]): reason` comment.
#[derive(Debug, Clone)]
pub struct Waiver {
    /// Rule ids this waiver covers; `*` covers every rule except W001.
    pub rules: Vec<String>,
    pub file: String,
    /// Line of the comment itself.
    pub line: u32,
    /// First following line holding code — a standalone waiver comment
    /// covers that line; a trailing one covers its own.
    pub covers_line: u32,
    /// Mandatory justification (empty ⇒ a W001 violation is emitted).
    pub reason: String,
    /// Set during resolution; an unused waiver is reported (non-fatal).
    pub used: bool,
}

impl Waiver {
    /// Whether this waiver covers `rule` at `line` in the same file.
    pub fn covers(&self, rule: &str, line: u32) -> bool {
        if rule == crate::rules::W001 {
            return false; // a missing reason can't waive itself
        }
        (line == self.line || line == self.covers_line)
            && self.rules.iter().any(|r| r == rule || r == "*")
    }
}

/// Full result of a lint run.
#[derive(Debug, Default)]
pub struct Report {
    pub violations: Vec<Violation>,
    pub waivers: Vec<Waiver>,
    /// Number of files actually scanned (after exclusions).
    pub files_scanned: usize,
}

impl Report {
    /// Unwaived violations — what gates CI.
    pub fn unwaived(&self) -> impl Iterator<Item = &Violation> {
        self.violations.iter().filter(|v| v.waived.is_none())
    }

    /// Exit status the CLI should use: 0 only when nothing unwaived
    /// remains (reasonless waivers surface as unwaived W001 hits).
    pub fn is_clean(&self) -> bool {
        self.unwaived().next().is_none()
    }

    /// Human-readable rendering: one `file:line:col [rule] message` per
    /// violation, waived hits listed separately, then a summary line.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for v in self.unwaived() {
            let _ = writeln!(
                out,
                "{}:{}:{}: [{}] {}",
                v.file, v.line, v.col, v.rule, v.message
            );
        }
        let waived: Vec<&Violation> = self
            .violations
            .iter()
            .filter(|v| v.waived.is_some())
            .collect();
        if !waived.is_empty() {
            let _ = writeln!(out, "\nwaived ({}):", waived.len());
            for v in &waived {
                let _ = writeln!(
                    out,
                    "  {}:{}:{}: [{}] {} — waived: {}",
                    v.file,
                    v.line,
                    v.col,
                    v.rule,
                    v.message,
                    v.waived.as_deref().unwrap_or("")
                );
            }
        }
        let unused: Vec<&Waiver> = self
            .waivers
            .iter()
            .filter(|w| !w.used && !w.reason.is_empty())
            .collect();
        if !unused.is_empty() {
            let _ = writeln!(
                out,
                "\nunused waivers ({}) — consider removing:",
                unused.len()
            );
            for w in &unused {
                let _ = writeln!(
                    out,
                    "  {}:{}: lint:allow({})",
                    w.file,
                    w.line,
                    w.rules.join(",")
                );
            }
        }
        let n_unwaived = self.unwaived().count();
        let _ = writeln!(
            out,
            "\nssr-lint: {} file(s) scanned, {} violation(s) ({} waived), {} unwaived",
            self.files_scanned,
            self.violations.len(),
            waived.len(),
            n_unwaived
        );
        out
    }

    /// Machine-readable rendering: a single stable JSON object.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n  \"violations\": [");
        let mut first = true;
        for v in &self.violations {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "\n    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"col\": {}, \"message\": {}, \"waived\": {}}}",
                json_str(v.rule),
                json_str(&v.file),
                v.line,
                v.col,
                json_str(&v.message),
                match &v.waived {
                    Some(r) => json_str(r),
                    None => "null".to_string(),
                }
            );
        }
        if !first {
            out.push_str("\n  ");
        }
        out.push_str("],\n  \"unused_waivers\": [");
        let mut first = true;
        for w in self
            .waivers
            .iter()
            .filter(|w| !w.used && !w.reason.is_empty())
        {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "\n    {{\"file\": {}, \"line\": {}, \"rules\": {}}}",
                json_str(&w.file),
                w.line,
                json_str(&w.rules.join(","))
            );
        }
        if !first {
            out.push_str("\n  ");
        }
        let _ = write!(
            out,
            "],\n  \"summary\": {{\"files_scanned\": {}, \"violations\": {}, \"waived\": {}, \"unwaived\": {}}}\n}}",
            self.files_scanned,
            self.violations.len(),
            self.violations.iter().filter(|v| v.waived.is_some()).count(),
            self.unwaived().count()
        );
        out.push('\n');
        out
    }
}

/// Escape a string as a JSON string literal (hand-rolled; the workspace
/// vendors no serde by policy).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
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
    fn json_escaping() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn report_renders_both_formats() {
        let report = Report {
            violations: vec![
                Violation {
                    rule: "D001",
                    file: "crates/engine/src/x.rs".into(),
                    line: 10,
                    col: 5,
                    message: "ad-hoc seed arithmetic on `seed`".into(),
                    waived: None,
                },
                Violation {
                    rule: "A001",
                    file: "crates/engine/src/y.rs".into(),
                    line: 3,
                    col: 1,
                    message: "narrowing cast".into(),
                    waived: Some("saturating boundary".into()),
                },
            ],
            waivers: vec![],
            files_scanned: 2,
        };
        let human = report.render_human();
        assert!(human.contains("crates/engine/src/x.rs:10:5: [D001]"));
        assert!(human.contains("waived: saturating boundary"));
        assert!(human.contains("1 unwaived"));
        let json = report.render_json();
        assert!(json.contains("\"rule\": \"D001\""));
        assert!(json.contains("\"waived\": \"saturating boundary\""));
        assert!(json.contains("\"unwaived\": 1"));
        assert!(!report.is_clean());
    }
}
