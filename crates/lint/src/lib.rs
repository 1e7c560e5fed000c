//! `ssr-lint` — workspace-specific static analysis for the invariants
//! the test suite can only catch after the fact: bit-determinism per
//! seed, arithmetic width on the interaction clock and weight totals,
//! and panic discipline in the service daemon.
//!
//! Three rule series, grounded in real past bugs (see `rules`):
//!
//! * **D — determinism.** All seed streams derive via
//!   `rng::derive_seed`; no `HashMap`/`HashSet` in trajectory code; no
//!   wall-clock reads outside timing paths.
//! * **A — arithmetic width.** No narrowing casts or bare `+`/`-` on
//!   interaction-clock / weight-total expressions; no unchecked `-=`
//!   on count fields.
//! * **P — panic discipline.** No `unwrap()`/`expect()` in service
//!   non-test code.
//!
//! # Waivers
//!
//! A violation that is intentional is waived **in place**, with a
//! mandatory reason:
//!
//! ```text
//! // lint:allow(D002): membership-only set; never iterated
//! let mut seen = std::collections::HashSet::new();
//! ```
//!
//! A waiver covers its own line (trailing form) or the next line of
//! code (standalone form), and may list several ids
//! (`lint:allow(A001, A002): …`) or `*`. A waiver without a reason is
//! itself a violation (`W001`) and cannot be waived — CI stays red
//! until the justification is written down.
//!
//! # Scope
//!
//! `vendor/`, `target/`, `tests/`, `benches/`, and fixture trees are
//! never scanned; `#[cfg(test)]` modules and `#[test]` functions inside
//! scanned files are masked token-precisely. Rules further scope
//! themselves by path (see `rules::RULES`).

pub mod diag;
pub mod lexer;
pub mod rules;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use diag::{Report, Violation, Waiver};
use lexer::{lex, Token, TokenKind};
use rules::{RuleCtx, RULES, W001};

/// Directory names the walker never descends into. `vendor` holds
/// offline shims of external crates (not ours to lint), `fixtures`
/// holds deliberately-violating lint test inputs, `tests`/`benches`
/// are test code by definition.
const EXCLUDED_DIRS: &[&str] = &[
    "target", "vendor", "fixtures", "tests", "benches", ".git", ".github",
];

/// Lint a single file's source text. `rel_path` must be the
/// workspace-relative `/`-separated path (rules scope on it).
pub fn lint_source(rel_path: &str, source: &str) -> (Vec<Violation>, Vec<Waiver>) {
    let tokens = lex(source);
    let mask = test_mask(&tokens);
    let ctx = RuleCtx {
        path: rel_path,
        tokens: &tokens,
        mask: &mask,
    };

    let mut violations = Vec::new();
    for rule in RULES {
        if (rule.applies)(rel_path) {
            violations.extend((rule.check)(&ctx));
        }
    }

    let mut waivers = parse_waivers(rel_path, &tokens);

    // Resolve: first matching waiver wins; reasonless waivers match but
    // surface as W001 below, so a bad waiver silences nothing quietly.
    for v in &mut violations {
        for w in &mut waivers {
            if w.covers(v.rule, v.line) {
                w.used = true;
                if !w.reason.is_empty() {
                    v.waived = Some(w.reason.clone());
                }
                break;
            }
        }
    }
    for w in &waivers {
        if w.reason.is_empty() {
            violations.push(Violation {
                rule: W001,
                file: rel_path.to_string(),
                line: w.line,
                col: 1,
                message: format!(
                    "waiver `lint:allow({})` lacks a reason — write \
                     `// lint:allow(id): why this is sound`",
                    w.rules.join(",")
                ),
                waived: None,
            });
        }
    }
    violations.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    (violations, waivers)
}

/// Lint every non-excluded `.rs` file under `root` (the workspace
/// root). Deterministic: files are visited in sorted path order.
pub fn lint_tree(root: &Path) -> io::Result<Report> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();

    let mut report = Report::default();
    for rel in files {
        let bytes = fs::read(root.join(&rel))?;
        let source = String::from_utf8_lossy(&bytes);
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        let (violations, waivers) = lint_source(&rel_str, &source);
        report.violations.extend(violations);
        report.waivers.extend(waivers);
        report.files_scanned += 1;
    }
    Ok(report)
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if EXCLUDED_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_path_buf());
            }
        }
    }
    Ok(())
}

/// Build the test mask: `true` for every token inside a
/// `#[cfg(test)]`-gated item or a `#[test]` function. Attribute
/// detection is token-precise: `#` `[` … `]` whose interior mentions
/// the bare identifier `test` (covers `#[test]`, `#[cfg(test)]`,
/// `#[cfg(all(test, …))]`), then the following item is masked through
/// its closing brace (or terminating `;` for brace-less items).
fn test_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let code: Vec<usize> = (0..tokens.len())
        .filter(|&i| !tokens[i].is_comment())
        .collect();

    let mut ci = 0;
    while ci < code.len() {
        let i = code[ci];
        if tokens[i].text == "#" && ci + 1 < code.len() && tokens[code[ci + 1]].text == "[" {
            // Parse to the matching `]`.
            let mut depth = 0usize;
            let mut cj = ci + 1;
            let mut mentions_test = false;
            while cj < code.len() {
                let t = &tokens[code[cj]];
                match t.text.as_str() {
                    "[" => depth += 1,
                    "]" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    "test" if t.kind == TokenKind::Ident => mentions_test = true,
                    _ => {}
                }
                cj += 1;
            }
            if mentions_test && cj < code.len() {
                // Mask from the attribute through the end of the item:
                // the first top-level `{ … }` after the attribute, or a
                // terminating `;` if one comes first.
                let mut ck = cj + 1;
                let mut brace_depth = 0usize;
                let end = loop {
                    if ck >= code.len() {
                        break code.len() - 1;
                    }
                    let t = &tokens[code[ck]];
                    match t.text.as_str() {
                        "{" => brace_depth += 1,
                        "}" => {
                            brace_depth = brace_depth.saturating_sub(1);
                            if brace_depth == 0 {
                                break ck;
                            }
                        }
                        ";" if brace_depth == 0 => break ck,
                        _ => {}
                    }
                    ck += 1;
                };
                for &tok_idx in code.iter().take(end + 1).skip(ci) {
                    mask[tok_idx] = true;
                }
                ci = end + 1;
                continue;
            }
            ci = cj + 1;
            continue;
        }
        ci += 1;
    }
    mask
}

/// A plausible rule id inside `lint:allow(...)`: `*` or letters
/// followed by digits (`D001`). Anything else means the comment is
/// *describing* the syntax (docs, messages), not using it.
fn is_rule_id(s: &str) -> bool {
    if s == "*" {
        return true;
    }
    let letters: String = s.chars().take_while(|c| c.is_ascii_uppercase()).collect();
    let digits = &s[letters.len()..];
    !letters.is_empty() && !digits.is_empty() && digits.chars().all(|c| c.is_ascii_digit())
}

/// Extract `lint:allow(...)` waivers from comment tokens. Only plain
/// implementation comments count: doc comments (`///`, `//!`, `/**`)
/// frequently *describe* the waiver syntax and never waive anything.
fn parse_waivers(rel_path: &str, tokens: &[Token]) -> Vec<Waiver> {
    let mut out = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        let is_plain_comment = match t.kind {
            TokenKind::LineComment => !t.text.starts_with("///") && !t.text.starts_with("//!"),
            TokenKind::BlockComment => !t.text.starts_with("/**") && !t.text.starts_with("/*!"),
            _ => false,
        };
        if !is_plain_comment {
            continue;
        }
        let Some(pos) = t.text.find("lint:allow(") else {
            continue;
        };
        let rest = &t.text[pos + "lint:allow(".len()..];
        let Some(close) = rest.find(')') else {
            continue;
        };
        let rules: Vec<String> = rest[..close]
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        if rules.is_empty() || !rules.iter().all(|r| is_rule_id(r)) {
            continue;
        }
        let after = rest[close + 1..].trim_start();
        let reason = after
            .strip_prefix(':')
            .map(|r| r.trim().trim_end_matches("*/").trim().to_string())
            .unwrap_or_default();
        // A trailing waiver (code precedes it on its own line) covers
        // only that line; a standalone one covers the next line
        // bearing code.
        let trailing = tokens[..i]
            .iter()
            .any(|p| !p.is_comment() && p.line == t.line);
        let covers_line = if trailing {
            t.line
        } else {
            tokens[i + 1..]
                .iter()
                .find(|n| !n.is_comment() && n.line > t.line)
                .map(|n| n.line)
                .unwrap_or(t.line)
        };
        out.push(Waiver {
            rules,
            file: rel_path.to_string(),
            line: t.line,
            covers_line,
            reason,
            used: false,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_mask_covers_cfg_test_modules() {
        let src = "fn live() { a.unwrap(); }\n\
                   #[cfg(test)]\nmod tests {\n  fn t() { b.unwrap(); }\n}\n";
        let (violations, _) = lint_source("crates/service/src/x.rs", src);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert_eq!(violations[0].line, 1);
    }

    #[test]
    fn test_mask_covers_test_fns_and_attr_lists() {
        let src = "#[test]\nfn t() { x.unwrap(); }\n\
                   #[cfg(all(test, feature = \"x\"))]\nfn u() { y.unwrap(); }\n\
                   fn live() { z.unwrap(); }\n";
        let (violations, _) = lint_source("crates/service/src/x.rs", src);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert_eq!(violations[0].line, 5);
    }

    #[test]
    fn waiver_trailing_and_standalone() {
        let src = "let a = q.unwrap(); // lint:allow(P001): startup, config is static\n\
                   // lint:allow(P001): second, standalone form\n\
                   let b = r.unwrap();\n\
                   let c = s.unwrap();\n";
        let (violations, waivers) = lint_source("crates/service/src/x.rs", src);
        assert_eq!(waivers.len(), 2);
        let unwaived: Vec<_> = violations.iter().filter(|v| v.waived.is_none()).collect();
        assert_eq!(unwaived.len(), 1);
        assert_eq!(unwaived[0].line, 4);
    }

    #[test]
    fn reasonless_waiver_is_w001_and_does_not_silence() {
        let src = "// lint:allow(P001)\nlet b = r.unwrap();\n";
        let (violations, _) = lint_source("crates/service/src/x.rs", src);
        let ids: Vec<&str> = violations
            .iter()
            .filter(|v| v.waived.is_none())
            .map(|v| v.rule)
            .collect();
        assert!(ids.contains(&"P001"), "{violations:?}");
        assert!(ids.contains(&"W001"), "{violations:?}");
    }

    #[test]
    fn wildcard_waiver_covers_all_but_w001() {
        let src = "// lint:allow(*): fixture exercising everything\nlet b = r.unwrap();\n";
        let (violations, _) = lint_source("crates/service/src/x.rs", src);
        assert!(
            violations.iter().all(|v| v.waived.is_some()),
            "{violations:?}"
        );
    }

    #[test]
    fn waivers_in_strings_are_ignored() {
        let src = "let s = \"lint:allow(P001): not a comment\";\nlet b = r.unwrap();\n";
        let (violations, waivers) = lint_source("crates/service/src/x.rs", src);
        assert!(waivers.is_empty());
        assert_eq!(violations.iter().filter(|v| v.waived.is_none()).count(), 1);
    }
}
