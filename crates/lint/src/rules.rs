//! The rule set. Every rule is a pure function over one file's token
//! stream (comments and `#[cfg(test)]` / `#[test]` spans already
//! masked) plus its workspace-relative path.
//!
//! Rule ids are stable and documented in the README ("Static
//! analysis"). Adding a rule = adding a `Rule` entry to [`RULES`] with
//! an `applies` path predicate and a `check` body, plus a fixture pair
//! under `crates/lint/tests/fixtures/`.
//!
//! # Why token-level?
//!
//! These lints encode *repo conventions*, not type-system facts: "seeds
//! are only combined through `derive_seed`", "the interaction clock is
//! only ever widened or saturated", "the daemon never unwraps". A
//! conservative token walk with a lookback window catches every past
//! real bug in this family (silent u64 clock wrap, zero-leaf descent,
//! daemon death on a malformed spool file) at the cost of occasional
//! false positives — which the mandatory-reason waiver syntax turns
//! into documentation.

use crate::diag::Violation;
use crate::lexer::{Token, TokenKind};

/// Rule id for "waiver lacks a reason" (synthesised by the waiver
/// parser, not by a `Rule`; it can never be waived).
pub const W001: &str = "W001";

/// A single lint rule.
pub struct Rule {
    /// Stable id (`D001`, `A002`, …).
    pub id: &'static str,
    /// One-line summary shown by `--list-rules` and the README.
    pub summary: &'static str,
    /// Path predicate over the `/`-separated workspace-relative path.
    pub applies: fn(&str) -> bool,
    /// The check itself.
    pub check: fn(&RuleCtx<'_>) -> Vec<Violation>,
}

/// Per-file context handed to rules.
pub struct RuleCtx<'a> {
    /// Workspace-relative `/`-separated path.
    pub path: &'a str,
    /// Token stream of the whole file, comments included.
    pub tokens: &'a [Token],
    /// `mask[i]` is true when token `i` sits inside `#[cfg(test)]` /
    /// `#[test]` code and must be ignored.
    pub mask: &'a [bool],
}

impl RuleCtx<'_> {
    /// Iterate over checkable (non-comment, non-test) token indices.
    fn code_indices(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.tokens.len()).filter(|&i| !self.mask[i] && !self.tokens[i].is_comment())
    }

    /// Previous / next non-comment token index, still honouring order
    /// (comments may sit between any two tokens).
    fn prev_code(&self, i: usize) -> Option<usize> {
        (0..i).rev().find(|&j| !self.tokens[j].is_comment())
    }

    fn next_code(&self, i: usize) -> Option<usize> {
        ((i + 1)..self.tokens.len()).find(|&j| !self.tokens[j].is_comment())
    }

    fn violation(&self, rule: &'static str, i: usize, message: String) -> Violation {
        let t = &self.tokens[i];
        Violation {
            rule,
            file: self.path.to_string(),
            line: t.line,
            col: t.col,
            message,
            waived: None,
        }
    }
}

fn is_ident(t: &Token, text: &str) -> bool {
    t.kind == TokenKind::Ident && t.text == text
}

/// Binary arithmetic operators whose appearance next to a seed
/// identifier marks ad-hoc derivation. `|` and `&` are deliberately
/// absent: closure parameter lists (`|seed| …`) and borrows would
/// swamp the signal, and no past bug mixed seeds bitwise without `^`.
const SEED_ARITH_OPS: &[&str] = &[
    "+", "-", "*", "/", "%", "^", "<<", ">>", "+=", "-=", "*=", "^=",
];

/// Method names that perform arithmetic when called *on* a seed.
fn is_arith_method(name: &str) -> bool {
    name.starts_with("wrapping_")
        || name.starts_with("checked_")
        || name.starts_with("saturating_")
        || name.starts_with("overflowing_")
        || name.starts_with("rotate_")
        || name == "pow"
        || name == "swap_bytes"
}

/// Identifier looks like a seed value (not the derivation helpers
/// themselves — call sites are skipped by the "followed by `(`" test).
fn is_seed_ident(text: &str) -> bool {
    text.to_ascii_lowercase().contains("seed")
}

/// `word` occurs in snake_case `ident` on `_` boundaries
/// (`max_interactions` contains `interactions`; `InteractionSchema`
/// does not — no boundary after the `s`).
fn contains_word(ident: &str, word: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = ident[from..].find(word) {
        let start = from + pos;
        let end = start + word.len();
        let left_ok = start == 0 || ident.as_bytes()[start - 1] == b'_';
        let right_ok = end == ident.len() || ident.as_bytes()[end] == b'_';
        if left_ok && right_ok {
            return true;
        }
        from = start + 1;
    }
    false
}

/// Identifier names a wide accumulator: the interaction clock or a
/// weight total. These are the quantities that silently wrapped or
/// truncated in past PRs.
fn is_accumulator_ident(text: &str) -> bool {
    let t = text.to_ascii_lowercase();
    [
        "interactions",
        "ordered_pairs",
        "total_weight",
        "weight_total",
        "clock",
    ]
    .iter()
    .any(|w| contains_word(&t, w))
}

/// Identifier names an agent/state count.
fn is_count_ident(text: &str) -> bool {
    let t = text.to_ascii_lowercase();
    t == "count"
        || t == "counts"
        || t.ends_with("_count")
        || t.ends_with("_counts")
        || t.starts_with("count_")
}

fn in_dir(path: &str, dir: &str) -> bool {
    path.starts_with(dir)
}

/// Trajectory code: the engines and the protocol zoo.
fn trajectory_scope(path: &str) -> bool {
    in_dir(path, "crates/engine/src/") || in_dir(path, "crates/core/src/")
}

/// Everything that must be bit-deterministic per seed (trajectory code
/// plus the seed-handling surfaces that feed it).
fn determinism_scope(path: &str) -> bool {
    trajectory_scope(path)
        || in_dir(path, "crates/cli/src/")
        || in_dir(path, "crates/service/src/")
        || in_dir(path, "crates/analysis/src/")
        || in_dir(path, "crates/topology/src/")
        || in_dir(path, "src/")
        || in_dir(path, "examples/")
}

/// Crates allowed to read the wall clock (timing/benchmark paths).
fn wall_clock_allowed(path: &str) -> bool {
    in_dir(path, "crates/bench/") || in_dir(path, "crates/cli/") || in_dir(path, "crates/service/")
}

// ---------------------------------------------------------------------------
// D-series: determinism
// ---------------------------------------------------------------------------

/// D001 — ad-hoc seed arithmetic. Any arithmetic operator or
/// arithmetic method applied directly to an identifier containing
/// `seed` is flagged: streams must be derived with
/// `rng::derive_seed(base, index)` (or fed verbatim to a seeded
/// constructor). Tagging an *already derived* seed
/// (`derive_seed(b, i) ^ STREAM_TAG`) is allowed — the operand there is
/// a call result, not a raw seed identifier.
fn check_d001(ctx: &RuleCtx<'_>) -> Vec<Violation> {
    let mut out = Vec::new();
    for i in ctx.code_indices() {
        let t = &ctx.tokens[i];
        if t.kind != TokenKind::Ident || !is_seed_ident(&t.text) {
            continue;
        }
        // A call (`derive_seed(…)`, `.base_seed(…)`, `seed_from_u64(…)`)
        // is the sanctioned surface, not an arithmetic use.
        if ctx.next_code(i).is_some_and(|j| ctx.tokens[j].text == "(") {
            continue;
        }
        // `seed <op> …`  or  `seed.<arith_method>(…)`
        if let Some(j) = ctx.next_code(i) {
            let nt = &ctx.tokens[j];
            if nt.kind == TokenKind::Punct && SEED_ARITH_OPS.contains(&nt.text.as_str()) {
                // `&` / `|` / `*` / `-` can be unary or type syntax when
                // *preceding* an expression; here they follow the seed
                // identifier, where they are binary — except a method
                // chain like `seed .wrapping_add`, handled below, and
                // `seed >` generics/comparison which we never flag.
                out.push(ctx.violation(
                    "D001",
                    i,
                    format!(
                        "ad-hoc seed arithmetic: `{} {}` — derive streams with \
                         `rng::derive_seed(base, index)` or pass the seed verbatim \
                         to a seeded constructor",
                        t.text, nt.text
                    ),
                ));
                continue;
            }
            if nt.text == "." {
                if let Some(k) = ctx.next_code(j) {
                    let mt = &ctx.tokens[k];
                    if mt.kind == TokenKind::Ident && is_arith_method(&mt.text) {
                        out.push(ctx.violation(
                            "D001",
                            i,
                            format!(
                                "ad-hoc seed arithmetic: `{}.{}(…)` — derive streams \
                                 with `rng::derive_seed(base, index)`",
                                t.text, mt.text
                            ),
                        ));
                        continue;
                    }
                }
            }
        }
        // `… <op> seed` — only when the operator is clearly binary
        // (preceded by a value: ident/number/closing bracket).
        if let Some(j) = ctx.prev_code(i) {
            let pt = &ctx.tokens[j];
            if pt.kind == TokenKind::Punct && SEED_ARITH_OPS.contains(&pt.text.as_str()) {
                if let Some(k) = ctx.prev_code(j) {
                    let ppt = &ctx.tokens[k];
                    let binary = matches!(ppt.kind, TokenKind::Ident | TokenKind::Num)
                        || ppt.text == ")"
                        || ppt.text == "]";
                    // `&mut seed`, `*seed`, `-1 => seed` etc. are unary.
                    if binary
                        && !matches!(ppt.text.as_str(), "mut" | "as" | "return" | "in" | "match")
                    {
                        out.push(ctx.violation(
                            "D001",
                            i,
                            format!(
                                "ad-hoc seed arithmetic: `… {} {}` — derive streams with \
                                 `rng::derive_seed(base, index)`",
                                pt.text, t.text
                            ),
                        ));
                    }
                }
            }
        }
    }
    out
}

/// D002 — hash collections in trajectory code. `HashMap`/`HashSet`
/// iteration order is nondeterministic (SipHash keys differ per
/// process unless pinned), so their appearance anywhere in engine/core
/// non-test code is flagged. Membership-only uses (insert/contains,
/// never iterated) are legitimate — waive them with a reason saying so.
fn check_d002(ctx: &RuleCtx<'_>) -> Vec<Violation> {
    let mut out = Vec::new();
    for i in ctx.code_indices() {
        let t = &ctx.tokens[i];
        if is_ident(t, "HashMap") || is_ident(t, "HashSet") {
            out.push(ctx.violation(
                "D002",
                i,
                format!(
                    "`{}` in trajectory code: iteration order is nondeterministic — \
                     use `BTreeMap`/`BTreeSet`/`Vec`, or waive if the use is \
                     membership-only and never iterated",
                    t.text
                ),
            ));
        }
    }
    out
}

/// D003 — wall-clock reads outside timing paths. `Instant`/`SystemTime`
/// anywhere but `crates/bench`, `crates/cli`, `crates/service` makes
/// trajectory code time-dependent.
fn check_d003(ctx: &RuleCtx<'_>) -> Vec<Violation> {
    let mut out = Vec::new();
    for i in ctx.code_indices() {
        let t = &ctx.tokens[i];
        if is_ident(t, "Instant") || is_ident(t, "SystemTime") {
            out.push(ctx.violation(
                "D003",
                i,
                format!(
                    "wall-clock type `{}` outside bench/cli/service timing paths — \
                     simulation code must be a pure function of (spec, seed)",
                    t.text
                ),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// A-series: arithmetic width
// ---------------------------------------------------------------------------

const NARROW_TYPES: &[&str] = &["u64", "u32", "u16", "u8", "usize", "i64", "i32"];

/// How many tokens before an `as` we search for an accumulator
/// identifier. Statements here are short; 16 tokens spans the longest
/// real accessor chain (`self.interactions.min(u64::MAX as u128) as u64`).
const CAST_LOOKBACK: usize = 16;

/// A001 — narrowing cast on a wide accumulator. `<clock/weight expr> as
/// u64/u32/usize/…` silently truncates past the type boundary (the
/// exact bug class fixed after n ≥ 2³¹ runs). Saturating API-boundary
/// accessors are fine — waive them, naming the wide-accessor
/// alternative in the reason.
fn check_a001(ctx: &RuleCtx<'_>) -> Vec<Violation> {
    let mut out = Vec::new();
    for i in ctx.code_indices() {
        if !is_ident(&ctx.tokens[i], "as") {
            continue;
        }
        let Some(j) = ctx.next_code(i) else { continue };
        let ty = &ctx.tokens[j];
        if ty.kind != TokenKind::Ident || !NARROW_TYPES.contains(&ty.text.as_str()) {
            continue;
        }
        // Look back (bounded, stopping at statement boundaries) for an
        // accumulator identifier feeding this cast.
        let mut k = i;
        let mut steps = 0;
        let mut culprit: Option<&Token> = None;
        while let Some(p) = ctx.prev_code(k) {
            let pt = &ctx.tokens[p];
            if matches!(pt.text.as_str(), ";" | "{" | "}") || steps >= CAST_LOOKBACK {
                break;
            }
            if pt.kind == TokenKind::Ident && is_accumulator_ident(&pt.text) {
                culprit = Some(pt);
                break;
            }
            k = p;
            steps += 1;
        }
        if let Some(c) = culprit {
            out.push(ctx.violation(
                "A001",
                i,
                format!(
                    "narrowing cast `as {}` on wide accumulator `{}` — widen operands \
                     first and keep the full-width value (`interactions_wide()` \
                     pattern); if this is a documented saturating API boundary, waive it",
                    ty.text, c.text
                ),
            ));
        }
    }
    out
}

/// A002 — bare `+`/`+=`/`-`/`-=` on a wide accumulator. The interaction
/// clock and weight totals must go through
/// `saturating_add`/`checked_add`-style helpers with pre-widened
/// operands (a bare u64 `+= 1` near `u64::MAX` wraps in release and
/// panics in debug — the PR 6 bug).
fn check_a002(ctx: &RuleCtx<'_>) -> Vec<Violation> {
    let mut out = Vec::new();
    for i in ctx.code_indices() {
        let t = &ctx.tokens[i];
        if t.kind != TokenKind::Ident || !is_accumulator_ident(&t.text) {
            continue;
        }
        let Some(j) = ctx.next_code(i) else { continue };
        let nt = &ctx.tokens[j];
        if nt.kind == TokenKind::Punct && matches!(nt.text.as_str(), "+" | "+=" | "-" | "-=") {
            out.push(ctx.violation(
                "A002",
                i,
                format!(
                    "bare `{}` on wide accumulator `{}` — use \
                     `saturating_add`/`checked_*` helpers with widened operands",
                    nt.text, t.text
                ),
            ));
        }
    }
    out
}

/// A003 — unchecked subtraction on a count field. `counts[s] -= 1` on
/// an unsigned count wraps silently in release when the invariant that
/// the state is occupied is ever violated (the `update_count` bug) —
/// use `checked_sub` with an explicit panic message, or
/// `checked_add_signed`.
fn check_a003(ctx: &RuleCtx<'_>) -> Vec<Violation> {
    let mut out = Vec::new();
    for i in ctx.code_indices() {
        let t = &ctx.tokens[i];
        if t.kind != TokenKind::Ident || !is_count_ident(&t.text) {
            continue;
        }
        // Skip an optional index expression: counts [ … ] -= 1
        let mut j = match ctx.next_code(i) {
            Some(j) => j,
            None => continue,
        };
        if ctx.tokens[j].text == "[" {
            let mut depth = 1;
            let mut k = j;
            loop {
                k = match ctx.next_code(k) {
                    Some(k) => k,
                    None => break,
                };
                match ctx.tokens[k].text.as_str() {
                    "[" => depth += 1,
                    "]" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
            }
            j = match ctx.next_code(k) {
                Some(j) => j,
                None => continue,
            };
        }
        let nt = &ctx.tokens[j];
        if nt.kind == TokenKind::Punct && nt.text == "-=" {
            out.push(ctx.violation(
                "A003",
                i,
                format!(
                    "unchecked `-=` on count `{}` — unsigned underflow wraps silently \
                     in release; use `checked_sub(…).expect(…)` or `checked_add_signed`",
                    t.text
                ),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// P-series: panic discipline
// ---------------------------------------------------------------------------

/// P001 — `unwrap()`/`expect()` in service non-test code. The daemon's
/// contract is degrade-don't-die: a malformed spool file, a missing
/// checkpoint, or a poisoned cache entry becomes a typed error or a
/// logged skip (crash-orphan-requeue), never a process abort.
fn check_p001(ctx: &RuleCtx<'_>) -> Vec<Violation> {
    let mut out = Vec::new();
    for i in ctx.code_indices() {
        let t = &ctx.tokens[i];
        if !(is_ident(t, "unwrap") || is_ident(t, "expect")) {
            continue;
        }
        let preceded_by_dot = ctx.prev_code(i).is_some_and(|j| ctx.tokens[j].text == ".");
        let followed_by_paren = ctx.next_code(i).is_some_and(|j| ctx.tokens[j].text == "(");
        if preceded_by_dot && followed_by_paren {
            out.push(ctx.violation(
                "P001",
                i,
                format!(
                    "`.{}()` in service code — the daemon must degrade, not die: \
                     return a typed `ServiceError` or log-and-skip \
                     (crash-orphan-requeue)",
                    t.text
                ),
            ));
        }
    }
    out
}

/// The registry, in reporting order.
pub const RULES: &[Rule] = &[
    Rule {
        id: "D001",
        summary: "seeds combine only through rng::derive_seed / seeded constructors (no ad-hoc seed arithmetic)",
        applies: determinism_scope,
        check: check_d001,
    },
    Rule {
        id: "D002",
        summary: "no HashMap/HashSet in engine/core trajectory code (nondeterministic iteration order)",
        applies: trajectory_scope,
        check: check_d002,
    },
    Rule {
        id: "D003",
        summary: "no Instant/SystemTime outside bench/cli/service timing paths",
        applies: |p| !wall_clock_allowed(p),
        check: check_d003,
    },
    Rule {
        id: "A001",
        summary: "no narrowing casts on interaction-clock / weight-total expressions in the engine",
        applies: |p| in_dir(p, "crates/engine/src/"),
        check: check_a001,
    },
    Rule {
        id: "A002",
        summary: "no bare +/- arithmetic on interaction-clock / weight-total identifiers in the engine",
        applies: |p| in_dir(p, "crates/engine/src/"),
        check: check_a002,
    },
    Rule {
        id: "A003",
        summary: "no unchecked -= on count fields in the engine",
        applies: |p| in_dir(p, "crates/engine/src/"),
        check: check_a003,
    },
    Rule {
        id: "P001",
        summary: "no unwrap()/expect() in service non-test code (degrade, don't die)",
        applies: |p| in_dir(p, "crates/service/src/"),
        check: check_p001,
    },
];
