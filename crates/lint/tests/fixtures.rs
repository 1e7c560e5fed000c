//! Per-rule fixture tests over a deliberately-violating fixture tree:
//! every rule id fires at a known `file:line`, waivers behave, the
//! `vendor/` exclusion holds, and conforming code stays clean — in both
//! the human and the JSON rendering.

use std::path::PathBuf;

use ssr_lint::diag::Report;
use ssr_lint::lint_tree;

fn fixture_report() -> Report {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/tree");
    lint_tree(&root).expect("fixture tree is readable")
}

const BAD_ENGINE: &str = "crates/engine/src/bad_engine.rs";
const BAD_SERVICE: &str = "crates/service/src/bad_service.rs";

/// Every rule id fires at the exact `file:line` seeded in the fixtures.
#[test]
fn every_rule_fires_at_its_seeded_position() {
    let report = fixture_report();
    let hits: Vec<(&str, &str, u32)> = report
        .violations
        .iter()
        .map(|v| (v.rule, v.file.as_str(), v.line))
        .collect();

    let expected: &[(&str, &str, u32)] = &[
        ("D002", BAD_ENGINE, 4),
        ("D003", BAD_ENGINE, 5),
        ("D001", BAD_ENGINE, 8),
        ("D003", BAD_ENGINE, 9),
        ("D002", BAD_ENGINE, 10),
        ("A002", BAD_ENGINE, 11),
        ("A003", BAD_ENGINE, 12),
        ("A001", BAD_ENGINE, 13),
        ("P001", BAD_SERVICE, 4),
        ("P001", BAD_SERVICE, 5),
        ("P001", BAD_SERVICE, 6), // waived, but still recorded
        ("W001", BAD_SERVICE, 7),
        ("P001", BAD_SERVICE, 8),
    ];
    for want in expected {
        assert!(hits.contains(want), "missing {want:?} in {hits:?}");
    }
}

/// Waiver semantics: a reasoned trailing waiver silences its line, a
/// reasonless waiver surfaces as W001 and silences nothing.
#[test]
fn waivers_resolve_and_reasonless_waivers_gate() {
    let report = fixture_report();
    let service: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.file == BAD_SERVICE)
        .collect();

    let waived: Vec<_> = service.iter().filter(|v| v.waived.is_some()).collect();
    assert_eq!(waived.len(), 1, "{service:?}");
    assert_eq!(waived[0].line, 6);
    assert_eq!(
        waived[0].waived.as_deref(),
        Some("fixture waived on purpose")
    );

    // The reasonless waiver on line 7 covers line 8 but must not
    // silence it; it additionally emits W001.
    assert!(service
        .iter()
        .any(|v| v.rule == "P001" && v.line == 8 && v.waived.is_none()));
    assert!(service
        .iter()
        .any(|v| v.rule == "W001" && v.line == 7 && v.waived.is_none()));
    assert!(!report.is_clean());
}

/// `vendor/` is never scanned: its planted D001/D003 bait must not
/// surface, and the file count covers exactly the three real fixtures.
#[test]
fn vendor_tree_is_excluded() {
    let report = fixture_report();
    assert!(
        report
            .violations
            .iter()
            .all(|v| !v.file.starts_with("vendor/")),
        "{:?}",
        report.violations
    );
    assert_eq!(report.files_scanned, 3);
}

/// Conforming code (derive_seed, BTreeMap, saturating/checked
/// arithmetic) produces no hits at all.
#[test]
fn conforming_fixture_is_clean() {
    let report = fixture_report();
    assert!(
        report
            .violations
            .iter()
            .all(|v| !v.file.ends_with("good.rs")),
        "{:?}",
        report.violations
    );
}

/// Both renderings carry `file:line` for each seeded violation.
#[test]
fn human_and_json_outputs_carry_positions() {
    let report = fixture_report();
    let human = report.render_human();
    let json = report.render_json();

    for (rule, file, line) in [
        ("D001", BAD_ENGINE, 8),
        ("A001", BAD_ENGINE, 13),
        ("P001", BAD_SERVICE, 4),
    ] {
        let human_line = human
            .lines()
            .find(|l| l.contains(&format!("{file}:{line}:")) && l.contains(&format!("[{rule}]")));
        assert!(
            human_line.is_some(),
            "no human line for {rule} {file}:{line}\n{human}"
        );

        let json_line = json.lines().find(|l| {
            l.contains(&format!("\"rule\": \"{rule}\""))
                && l.contains(&format!("\"file\": \"{file}\""))
                && l.contains(&format!("\"line\": {line},"))
        });
        assert!(
            json_line.is_some(),
            "no json entry for {rule} {file}:{line}\n{json}"
        );
    }

    // The summary object gates CI: unwaived must be non-zero here.
    assert!(json.contains("\"unwaived\": "));
    assert!(!json.contains("\"unwaived\": 0"));
}
